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

import numpy as np

from .metric import SignatureMetric, make_metric

FORMAT_VERSION = "upq-matrix/1"
KIND_SQUARE = "square"
KIND_BLOCK = "block"


@dataclass(frozen=True, eq=False)
class MatrixDocument:
    """A matrix read from a file, with its signature, kind, and raw JSON."""

    matrix: np.ndarray
    metric: SignatureMetric
    kind: str
    raw: dict


def _fmt(x: float) -> str:
    # 17 significant digits guarantee an exact float64 round trip.
    if not np.isfinite(x):
        raise ValueError("matrix files cannot hold non-finite entries")
    s = "%.17g" % x
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _expected_shape(metric: SignatureMetric, kind: str) -> tuple[int, int]:
    if kind == KIND_SQUARE:
        return (metric.n, metric.n)
    if kind == KIND_BLOCK:
        return (metric.p, metric.q)
    raise ValueError(f"unknown matrix kind {kind!r}")


def dumps_matrix(m, metric: SignatureMetric, kind: str = KIND_SQUARE,
                 extra: dict | None = None) -> str:
    """Serialize a matrix to the JSON file format."""
    shape = _expected_shape(metric, kind)
    a = np.asarray(m, dtype=complex)
    if a.shape != shape:
        raise ValueError(f"{kind} matrix for ({metric.p}, {metric.q}) must have shape {shape}, "
                         f"got {a.shape}")
    lines = ["{"]
    lines.append(f'  "format": "{FORMAT_VERSION}",')
    lines.append(f'  "kind": "{kind}",')
    lines.append(f'  "p": {metric.p},')
    lines.append(f'  "q": {metric.q},')
    for key, value in (extra or {}).items():
        lines.append(f'  {json.dumps(str(key))}: {json.dumps(value)},')
    row_texts = []
    for row in a.reshape(shape[0], shape[1]):
        cells = ", ".join(f"[{_fmt(v.real)}, {_fmt(v.imag)}]" for v in row)
        row_texts.append("    " + cells)
    lines.append('  "entries": [')
    lines.append(",\n".join(row_texts))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def loads_matrix(text: str) -> MatrixDocument:
    """Parse the JSON file format, validating shape and finiteness."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("matrix file must hold a JSON object")
    if doc.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported matrix file format {doc.get('format')!r}, "
                         f"expected {FORMAT_VERSION!r}")
    kind = doc.get("kind")
    if kind not in (KIND_SQUARE, KIND_BLOCK):
        raise ValueError(f"unknown matrix kind {kind!r}")
    metric = make_metric(doc.get("p"), doc.get("q"))
    shape = _expected_shape(metric, kind)
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != shape[0] * shape[1]:
        raise ValueError(f"entries must be a list of {shape[0] * shape[1]} [re, im] pairs")
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"entries must be numeric [re, im] pairs: {exc}") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("entries must be [re, im] pairs")
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries contain non-finite values")
    m = (arr[:, 0] + 1j * arr[:, 1]).reshape(shape)
    return MatrixDocument(matrix=m, metric=metric, kind=kind, raw=doc)
