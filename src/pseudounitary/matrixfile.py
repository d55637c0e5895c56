"""Versioned JSON files for complex matrices.

A matrix file is a JSON object with a format tag, the signature (p, q), a
kind ("square" for n x n, "block" for p x q tangent blocks), and a flat
row-major entry list of [real, imag] pairs. Entries are written with 17
significant digits, so a write/read cycle reproduces every float bit for
bit. Unknown keys are ignored on load, which lets writers attach extra data
(the samplers attach ground truth).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .metric import SignatureMetric, _checked_metric, as_matrix, make_metric

FORMAT_VERSION = "upq-matrix/1"
KIND_SQUARE = "square"
KIND_BLOCK = "block"


@dataclass(frozen=True, eq=False)
class MatrixDocument:
    """A matrix read from a file, with its signature and kind."""

    matrix: np.ndarray
    metric: SignatureMetric
    kind: str


def _expected_shape(metric: SignatureMetric, kind: str) -> tuple[int, int]:
    if kind == KIND_SQUARE:
        return (metric.n, metric.n)
    if kind == KIND_BLOCK:
        return (metric.p, metric.q)
    raise ValueError(f"unknown matrix kind {kind!r}")


# 17 significant digits guarantee an exact float64 round trip. %.17g prints an
# integer-valued float below 1e17 with neither "." nor an exponent, so such an
# entry gets ".0" to read back as a float. Indexed by 2 * whole(re) + whole(im).
_CELLS = np.array([f"[%.17g{re}, %.17g{im}]" for re in ("", ".0") for im in ("", ".0")],
                  dtype=object)


def _entries_text(a: np.ndarray) -> str:
    """The rows of [re, im] cells, every float printed by one % call."""
    x = np.ascontiguousarray(a).reshape(-1).view(float)
    whole = (x == np.trunc(x)) & (np.abs(x) < 1e17)
    cells = _CELLS[2 * whole[0::2] + whole[1::2]].reshape(a.shape).tolist()
    # the rows of a p x 0 block are empty and print nothing, as at (0, q)
    template = ",\n".join("    " + ", ".join(row) for row in cells if row)
    return template % tuple(x.tolist())


def _pairs(a) -> list:
    """The entries of an ndarray as a row-major list of [re, im] pairs.

    json.dumps calls this for each object it cannot write itself, so
    anything but an ndarray, a numpy integer for one, stays a TypeError.
    """
    if not isinstance(a, np.ndarray):
        raise TypeError(f"Object of type {type(a).__name__} is not JSON serializable")
    return np.ascontiguousarray(as_matrix(a, a.shape, "array")).view(float).reshape(-1, 2).tolist()


def dumps_matrix(m, metric: SignatureMetric, kind: str = KIND_SQUARE,
                 extra: dict | None = None) -> str:
    """Serialize a matrix to the JSON file format.

    The items of extra go between the header and the entries, each written
    by json.dumps; an ndarray anywhere among them is written as its list of
    [re, im] pairs. A NaN or infinite float among them, which JSON cannot
    hold, raises ValueError.
    """
    shape = _expected_shape(_checked_metric(metric), kind)
    a = as_matrix(m, shape, f"{kind} matrix for ({metric.p}, {metric.q})")
    lines = ["{"]
    lines.append(f'  "format": "{FORMAT_VERSION}",')
    lines.append(f'  "kind": "{kind}",')
    lines.append(f'  "p": {metric.p},')
    lines.append(f'  "q": {metric.q},')
    for key, value in (extra or {}).items():
        text = json.dumps(value, default=_pairs, allow_nan=False)
        lines.append(f'  {json.dumps(str(key))}: {text},')
    lines.append('  "entries": [')
    lines.append(_entries_text(a))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def loads_matrix(text: str) -> MatrixDocument:
    """Parse the JSON file format, validating shape and finiteness."""
    try:
        doc = json.loads(text)
    except RecursionError:
        # the decoder recurses once per nested array or object, unknown keys included
        raise ValueError("matrix file nests too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ValueError("matrix file must hold a JSON object")
    if doc.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported matrix file format {doc.get('format')!r}, "
                         f"expected {FORMAT_VERSION!r}")
    kind = doc.get("kind")
    metric = make_metric(doc.get("p"), doc.get("q"))
    shape = _expected_shape(metric, kind)
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != shape[0] * shape[1]:
        raise ValueError(f"entries must be a list of {shape[0] * shape[1]} [re, im] pairs")
    # numpy would read the strings "1" and booleans as numbers
    try:
        kinds = set(map(type, chain.from_iterable(entries)))
    except TypeError:  # an entry that is a bare number or null
        raise ValueError("entries must be [re, im] pairs") from None
    if not kinds <= {int, float}:
        names = ", ".join(sorted(k.__name__ for k in kinds - {int, float}))
        raise ValueError(f"entries must be numeric [re, im] pairs, found {names}")
    try:
        # an empty list is the (0, 2) array of a block at (0, q) or (p, 0)
        arr = np.asarray(entries or np.empty((0, 2)), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"entries must be numeric [re, im] pairs: {exc}") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("entries must be [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries contain non-finite values")
    # a view keeps every bit, the sign of -0.0 included; re + 1j * im does not
    m = arr.view(complex).reshape(shape)
    return MatrixDocument(matrix=m, metric=metric, kind=kind)
