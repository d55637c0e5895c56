"""Command line interface for membership checks, decompositions, exp/log, sampling.

Reports go to stdout as JSON; matrix outputs use the matrix file format so
commands compose through pipes ("-" reads stdin). Exit codes: 0 for success
or a positive verdict, 1 for a mathematical negative (non-member,
inequivalent, outside the exponential image), 2 for usage or input errors.
Diagnostics go to stderr only. The UPQ_TOL environment variable overrides
the default tolerance; every command also takes --tol.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from .canonical import (
    T_COMPARE_TOL,
    _checked_invariants,
    block_decompose,
    canonical_invariant,
    invariant_from_blocks,
)
from .lie import LieElement, exp_us, log_us
from .matrixfile import (
    KIND_BLOCK,
    KIND_SQUARE,
    MatrixDocument,
    dumps_matrix,
    loads_matrix,
)
from .metric import (
    DEFAULT_TOL,
    MembershipError,
    block_identities_residual,
    hermitian_residual,
    make_metric,
    membership_residual,
    fast_inverse,
)
from .sampler import SampleSpec, haar_unitary, sample_upq, sample_us_lie, sample_us_pp
from .spectral import extract_generators


def _checked_tol(tol: float, source: str) -> float:
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"{source} must be a finite nonnegative number, got {tol!r}")
    return tol


def _default_tol() -> float:
    raw = os.environ.get("UPQ_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise ValueError(f"UPQ_TOL must be a number, got {raw!r}") from None
    return _checked_tol(tol, "UPQ_TOL")


def _entries(m: np.ndarray) -> list:
    return np.ascontiguousarray(m, complex).reshape(-1).view(float).reshape(-1, 2).tolist()


def _read_document(path: str, kind: str = KIND_SQUARE) -> tuple[MatrixDocument, dict]:
    if path == "-":
        text = sys.stdin.read()
        shown = "<stdin>"
    else:
        with open(path, "r", encoding="utf-8") as fp:
            text = fp.read()
        shown = path
    doc = loads_matrix(text)
    if doc.kind != kind:
        raise ValueError(f"expected a {kind!r} matrix file, got {doc.kind!r}")
    return doc, {"path": shown, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def _print_report(command: str, source, tolerances: dict, metric, result: dict) -> None:
    """Print the JSON report; its result opens with p and q unless metric is None."""
    if metric is not None:
        result = {"p": metric.p, "q": metric.q, **result}
    print(json.dumps({"command": command, "input": source, "tolerances": tolerances,
                      "result": result}, indent=2))


def _cmd_check(args) -> int:
    doc, source = _read_document(args.file)
    res = membership_residual(doc.matrix, doc.metric)
    member = res <= args.tol
    herm = hermitian_residual(doc.matrix)
    _print_report("check", source, {"membership": args.tol}, doc.metric, {
        "membership_residual": res,
        "is_member": bool(member),
        "hermitian_residual": herm,
        "is_hermitian": herm <= args.tol,
        "block_identities_residual": block_identities_residual(doc.matrix, doc.metric),
    })
    return 0 if member else 1


def _cmd_invert(args) -> int:
    doc, _ = _read_document(args.file)
    inv = fast_inverse(doc.matrix, doc.metric, args.tol)
    sys.stdout.write(dumps_matrix(inv, doc.metric, KIND_SQUARE))
    return 0


def _cmd_generators(args) -> int:
    doc, source = _read_document(args.file)
    gens = extract_generators(doc.matrix, doc.metric, args.tol)
    _print_report("generators", source, {"membership": args.tol}, doc.metric, {
        "sigma": gens.sigma,
        "count": gens.k,
        "generators": [
            {
                "lambda": float(gens.lambdas[j]),
                "alpha": float(gens.alphas[j]),
                "beta": float(gens.betas[j]),
                "vector": _entries(gens.vectors[j]),
            }
            for j in range(gens.k)
        ],
    })
    return 0


def _pieces_payload(pieces) -> list:
    """JSON form of canonical (kind, t, sign) pieces."""
    return [{"kind": kind, "t": float(t), "sign": int(sign)} for kind, t, sign in pieces]


def _cmd_decompose(args) -> int:
    doc, source = _read_document(args.file)
    dec = block_decompose(doc.matrix, doc.metric, args.tol)
    _print_report("decompose", source, {"membership": args.tol}, doc.metric, {
        "blocks": _pieces_payload(dec.blocks),
        "unitary": _entries(dec.q),
        "reconstruction_residual": dec.residual,
    })
    return 0


def _cmd_invariants(args) -> int:
    doc, source = _read_document(args.file)
    inv = canonical_invariant(doc.matrix, doc.metric, args.tol)
    _print_report("invariants", source, {"membership": args.tol, "t_compare": T_COMPARE_TOL},
                  doc.metric, {"invariant": _pieces_payload(inv.triples)})
    return 0


def _cmd_equiv(args) -> int:
    doc1, source1 = _read_document(args.file1)
    doc2, source2 = _read_document(args.file2)
    if doc1.metric != doc2.metric:
        raise ValueError(
            f"signature mismatch: ({doc1.metric.p}, {doc1.metric.q}) vs "
            f"({doc2.metric.p}, {doc2.metric.q})"
        )
    inv1, inv2 = _checked_invariants([doc1.matrix, doc2.matrix], doc1.metric, args.tol)
    equivalent = inv1.matches(inv2)
    tolerances = {"membership": args.tol, "t_compare": T_COMPARE_TOL}
    _print_report("equiv", [source1, source2], tolerances, None, {
        "equivalent": bool(equivalent),
        "invariant_1": _pieces_payload(inv1.triples),
        "invariant_2": _pieces_payload(inv2.triples),
    })
    return 0 if equivalent else 1


def _cmd_exp(args) -> int:
    doc, _ = _read_document(args.file, KIND_BLOCK)
    m = exp_us(LieElement(metric=doc.metric, block=doc.matrix))
    sys.stdout.write(dumps_matrix(m, doc.metric, KIND_SQUARE))
    return 0


def _cmd_log(args) -> int:
    doc, _ = _read_document(args.file)
    elem = log_us(doc.matrix, doc.metric, args.tol)
    sys.stdout.write(dumps_matrix(elem.block, doc.metric, KIND_BLOCK))
    return 0


def _cmd_sample(args) -> int:
    metric = make_metric(args.p, args.q)
    if args.family == "uspp":
        spec = SampleSpec(metric=metric, seed=args.seed, t_max=args.tmax)
        m, truth = sample_us_pp(spec)
        extra = {
            "ground_truth": {
                "blocks": _pieces_payload(truth.blocks),
                "invariant": _pieces_payload(invariant_from_blocks(truth.blocks).triples),
                "unitary": truth.q,
            }
        }
        sys.stdout.write(dumps_matrix(m, metric, KIND_SQUARE, extra))
    elif args.family == "lie":
        elem = sample_us_lie(metric, args.seed)
        sys.stdout.write(dumps_matrix(elem.block, metric, KIND_BLOCK))
    elif args.family == "upq":
        m = sample_upq(metric, args.seed)
        sys.stdout.write(dumps_matrix(m, metric, KIND_SQUARE))
    else:
        m = haar_unitary(metric.n, args.seed)
        sys.stdout.write(dumps_matrix(m, metric, KIND_SQUARE))
    return 0


def _cmd_dim(args) -> int:
    metric = make_metric(args.p, args.q)
    _print_report("dim", {"p": metric.p, "q": metric.q}, {}, metric,
                  {"dimension": metric.p * metric.q})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="upq",
        description="Verify, decompose, and sample Hermitian members of U(p, q).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def file_cmd(name: str, handler, help_text: str, files: int = 1):
        cmd = sub.add_parser(name, help=help_text)
        if files == 1:
            cmd.add_argument("file", help="matrix file path, or - for stdin")
        else:
            cmd.add_argument("file1", help="first matrix file path, or - for stdin")
            cmd.add_argument("file2", help="second matrix file path")
        cmd.add_argument("--tol", type=float, default=None,
                         help=f"membership tolerance (default {DEFAULT_TOL}, or UPQ_TOL)")
        cmd.set_defaults(func=handler)
        return cmd

    file_cmd("check", _cmd_check, "membership and structure residuals of a square matrix")
    file_cmd("invert", _cmd_invert, "fast group inverse of a member")
    file_cmd("generators", _cmd_generators, "spectral generator data of a Hermitian member")
    file_cmd("decompose", _cmd_decompose, "canonical 2x2 block decomposition at (p, p)")
    file_cmd("invariants", _cmd_invariants, "canonical equivalence invariant at (p, p)")
    file_cmd("equiv", _cmd_equiv, "compare two members up to sign and conjugation", files=2)
    file_cmd("exp", _cmd_exp, "exponential of a tangent block file")
    file_cmd("log", _cmd_log, "logarithm of a positive-definite Hermitian member")

    samp = sub.add_parser("sample", help="seeded sample matrices")
    samp.add_argument("--family", required=True, choices=("uspp", "lie", "upq", "haar"))
    samp.add_argument("--p", required=True, type=int)
    samp.add_argument("--q", required=True, type=int)
    samp.add_argument("--seed", required=True, type=int)
    samp.add_argument("--tmax", type=float, default=3.0,
                      help="upper bound for hyperbolic parameters (uspp family)")
    samp.set_defaults(func=_cmd_sample)

    dim = sub.add_parser("dim", help="dimension of the Hermitian tangent space")
    dim.add_argument("--p", required=True, type=int)
    dim.add_argument("--q", required=True, type=int)
    dim.set_defaults(func=_cmd_dim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "tol"):
            args.tol = _default_tol() if args.tol is None else _checked_tol(args.tol, "--tol")
        return args.func(args)
    except MembershipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
