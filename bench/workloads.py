"""Seeded inputs, operations and oracles for the four benchmark workloads.

Every input is drawn from the package's own samplers with seeds taken from a
generator seeded by the benchmark seed, so one seed always gives the same
inputs. Every expected answer is fixed when the inputs are built: verdicts
(member or not, equivalent or not) come from how the input was made, and the
numerical oracles below are written with plain numpy, apart from the
invariant comparison, which uses ``invariant_from_blocks`` on the sampler's
ground truth.

The mix of operations inside each workload is a fixed repeating schedule, so
the seed changes the matrices but not the proportions of operation kinds and
sizes. That keeps the timing percentiles of different seeds comparable.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np

import pseudounitary as pu
import pseudounitary.cli as pu_cli
from pseudounitary import MembershipError

WORKLOADS = ("invariants_small", "decompose_large", "membership_screen", "cli_pipeline")

# Tolerances of the acceptance criteria the oracles reuse: C04 reassembly and
# C07 exp/log round trips (relative to max(1, norm)), C10 inverse product.
REASSEMBLY_TOL = 1e-9
ROUND_TRIP_TOL = 1e-9
INVERSE_TOL = 1e-9
MEMBER_TOL = 1e-10
# Inputs stay in the calibrated range: tangents of spectral norm <= 3, t <= 3.
TANGENT_NORM = 3.0
T_MAX = 3.0

KIND_MIXES = {
    "default": (0.4, 0.2, 0.2, 0.2),
    "iota_heavy": (0.1, 0.1, 0.4, 0.4),
    "hyperbolic_only": (0.5, 0.5, 0.0, 0.0),
}

# How `upq` is started: the console script is not installed, so the children
# import the entry point from PYTHONPATH the same way the script would.
UPQ = ("-c", "from pseudounitary.cli import run; run()")


@dataclass
class Op:
    """One public-API call with its expected outcome.

    ``reject`` marks inputs on which a MembershipError is the correct answer;
    otherwise ``check`` inspects the returned value and gives a mismatch
    description, or None when the value is right.
    """

    kind: str
    case: str
    call: Callable[[], Any]
    reject: bool = False
    check: Callable[[Any], str | None] | None = None


@dataclass
class CliOp:
    """One `upq` invocation, or a pipe of them counted as one operation."""

    kind: str
    case: str
    argvs: list
    codes: tuple
    check: Callable[[str], str | None] | None = None


@dataclass
class Workload:
    """Operations in schedule order; ``chunk`` consecutive ones form a unit of
    the same mix, over which throughput is measured (default: the whole list)."""

    name: str
    ops: list
    chunk: int | None = None


# ---------------------------------------------------------------------------
# numpy-only oracles


def _rel(a, b) -> float:
    return float(np.linalg.norm(a - b)) / max(1.0, float(np.linalg.norm(b)))


def membership_defect(x: np.ndarray, signs: np.ndarray) -> float:
    """|X* J X - J|_F / (1 + |X|_F^2), the README's residual, computed directly."""
    defect = x.conj().T @ (signs[:, None] * x) - np.diag(signs)
    return float(np.linalg.norm(defect) / (1.0 + np.linalg.norm(x) ** 2))


def expm_tangent(block: np.ndarray) -> np.ndarray:
    """exp of [[0, B], [B*, 0]] through an eigendecomposition of that matrix."""
    p, q = block.shape
    t = np.zeros((p + q, p + q), dtype=complex)
    t[:p, p:] = block
    t[p:, :p] = block.conj().T
    w, v = np.linalg.eigh(t)
    return (v * np.exp(w)[None, :]) @ v.conj().T


def canonical_matrix(blocks, q: np.ndarray) -> np.ndarray:
    """Q* B Q for (kind, t, sign) pieces placed at rows/columns (j, p + j)."""
    p = len(blocks)
    b = np.zeros((2 * p, 2 * p), dtype=complex)
    for j, (kind, t, sign) in enumerate(blocks):
        if kind == pu.HYPERBOLIC:
            c, s = sign * np.cosh(t), sign * np.sinh(t)
            b[j, j] = b[p + j, p + j] = c
            b[j, p + j] = b[p + j, j] = s
        else:
            b[j, j] = sign
            b[p + j, p + j] = -sign
    return q.conj().T @ b @ q


def from_generators(sigma: int, lambdas, vectors: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """sigma * (sum_j lambda_j z_j z_j* - J), with one generator per row."""
    acc = -np.diag(signs).astype(complex)
    if len(lambdas):
        acc = acc + vectors.T @ (np.asarray(lambdas)[:, None] * vectors.conj())
    return sigma * acc


def _hermitian_noise(rng, n: int) -> np.ndarray:
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    e = e + e.conj().T
    return e / np.linalg.norm(e)


def perturbed(m: np.ndarray, rng) -> np.ndarray:
    """A 1e-6 relative Hermitian perturbation: still Hermitian, no longer a member."""
    return m + 1e-6 * max(1.0, float(np.linalg.norm(m))) * _hermitian_noise(rng, m.shape[0])


def block_unitary(metric, seed: int) -> np.ndarray:
    q = np.zeros((metric.n, metric.n), dtype=complex)
    q[: metric.p, : metric.p] = pu.haar_unitary(metric.p, seed)
    q[metric.p:, metric.p:] = pu.haar_unitary(metric.q, seed + 1)
    return q


def tangent(metric, seed: int) -> "pu.LieElement":
    """sample_us_lie scaled so the block's spectral norm stays <= 3."""
    el = pu.sample_us_lie(metric, seed, scale=2.5 / (np.sqrt(metric.p) + np.sqrt(metric.q)))
    norm = float(np.linalg.norm(el.block, 2))
    if norm <= TANGENT_NORM:
        return el
    return pu.LieElement(metric=metric, block=el.block * (0.99 * TANGENT_NORM / norm))


def _seeds(rng):
    while True:
        yield int(rng.integers(1, 2**31 - 2))


def _expect(value: bool, what: str) -> Callable[[Any], str | None]:
    return lambda got: None if bool(got) is value else f"{what}: expected {value}, got {got}"


def _matches(expected) -> Callable[[Any], str | None]:
    def check(inv):
        if inv.matches(expected):
            return None
        return f"invariant {inv.triples} differs from ground truth {expected.triples}"
    return check


# ---------------------------------------------------------------------------
# in-process workloads


def _exp_op(metric, el) -> Op:
    ref = expm_tangent(el.block)

    def check(m):
        err = _rel(m, ref)
        res = membership_defect(m, metric.signs)
        if err > ROUND_TRIP_TOL or res > MEMBER_TOL:
            return f"exp_us error {err:.2e}, membership residual {res:.2e}"
        return None
    return Op("exp_us", f"({metric.p},{metric.q})", lambda: pu.exp_us(el), check=check)


def _log_op(metric, el) -> Op:
    m = pu.exp_us(el)
    block = el.block

    def check(back):
        err = _rel(back.block, block)
        return None if err <= ROUND_TRIP_TOL else f"log_us tangent error {err:.2e}"
    return Op("log_us", f"({metric.p},{metric.q})", lambda: pu.log_us(m, metric), check=check)


def build_invariants_small(seed: int) -> Workload:
    """Hermitian members of U(p, p), p in 1..4, through the overhead-bound API calls."""
    rng = np.random.default_rng(seed)
    seeds = _seeds(rng)
    mixes = list(KIND_MIXES.values())
    ops = []
    for i in range(480):
        p = 1 + i % 4
        metric = pu.make_metric(p, p)
        weights = mixes[(i // 4) % 3]
        tied = (i // 12) % 4 == 0
        t_values = (float(rng.uniform(0.2, T_MAX)),) * p if tied else None
        s = next(seeds)
        spec = pu.SampleSpec(metric=metric, seed=s, t_max=T_MAX,
                             block_kind_weights=weights, t_values=t_values)
        m, truth = pu.sample_us_pp(spec)
        inv = pu.invariant_from_blocks(truth.blocks)
        slot = i % 10
        if slot in (0, 3, 6):
            ops.append(Op("canonical_invariant", "member",
                          lambda m=m, g=metric: pu.canonical_invariant(m, g), check=_matches(inv)))
        elif slot in (1, 7):
            q = block_unitary(metric, next(seeds))
            sign = 1.0 if rng.integers(2) else -1.0
            m2 = sign * (q.conj().T @ m @ q)
            ops.append(Op("are_equivalent", "equivalent",
                          lambda a=m, b=m2, g=metric: pu.are_equivalent(a, b, g),
                          check=_expect(True, "are_equivalent")))
        elif slot in (4, 9):
            # Same seed and weights give the same block kinds; shifting every
            # hyperbolic parameter makes the pair inequivalent unless all
            # pieces are iota, and the ground truth decides which.
            shift = float(rng.uniform(0.05, 0.5))
            ts = tuple(b.t + shift for b in truth.blocks)
            m2, truth2 = pu.sample_us_pp(pu.SampleSpec(
                metric=metric, seed=s, t_max=T_MAX, block_kind_weights=weights, t_values=ts))
            same = inv.matches(pu.invariant_from_blocks(truth2.blocks))
            ops.append(Op("are_equivalent", "equivalent" if same else "inequivalent",
                          lambda a=m, b=m2, g=metric: pu.are_equivalent(a, b, g),
                          check=_expect(same, "are_equivalent")))
        elif slot == 2:
            ops.append(_exp_op(metric, tangent(metric, next(seeds))))
        elif slot == 5:
            ops.append(_log_op(metric, tangent(metric, next(seeds))))
        else:
            bad = perturbed(m, rng)
            if (i // 10) % 2:
                ops.append(Op("canonical_invariant", "nonmember",
                              lambda b=bad, g=metric: pu.canonical_invariant(b, g), reject=True))
            else:
                ops.append(Op("are_equivalent", "nonmember",
                              lambda b=bad, a=m, g=metric: pu.are_equivalent(b, a, g),
                              reject=True))
    return Workload("invariants_small", ops)


def _decompose_op(metric, seed: int) -> Op:
    m, truth = pu.sample_us_pp(pu.SampleSpec(metric=metric, seed=seed, t_max=T_MAX))
    inv = pu.invariant_from_blocks(truth.blocks)

    def check(dec):
        triples = [(b.kind, b.t, b.sign) for b in dec.blocks]
        err = _rel(canonical_matrix(triples, dec.q), m)
        if err > REASSEMBLY_TOL:
            return f"block_decompose reassembly error {err:.2e}"
        return _matches(inv)(pu.invariant_from_blocks(dec.blocks))
    return Op("block_decompose", f"p={metric.p}",
              lambda: pu.block_decompose(m, metric), check=check)


def _generators_op(metric, seed: int, sign: float) -> Op:
    m = sign * pu.exp_us(tangent(metric, seed))

    def check(gens):
        err = _rel(from_generators(gens.sigma, gens.lambdas, gens.vectors, metric.signs), m)
        return None if err <= REASSEMBLY_TOL else f"generator reconstruction error {err:.2e}"
    return Op("extract_generators", f"({metric.p},{metric.q})",
              lambda: pu.extract_generators(m, metric), check=check)


def build_decompose_large(seed: int) -> Workload:
    """Kernel-bound sizes: n = 64 and 128 decompositions, generators and exp/log."""
    rng = np.random.default_rng(seed)
    seeds = _seeds(rng)
    pp32, pp64 = pu.make_metric(32, 32), pu.make_metric(64, 64)
    small, large = pu.make_metric(24, 40), pu.make_metric(48, 80)
    ops = []
    # Twelve slots sorted by cost put the median inside the block_decompose
    # p=32 class and p90 inside the p=64 class, away from class boundaries.
    for cycle in range(8):
        ops.append(_exp_op(small, tangent(small, next(seeds))))
        ops.append(_decompose_op(pp64, next(seeds)))
        ops.append(_log_op(small, tangent(small, next(seeds))))
        ops.append(_decompose_op(pp32, next(seeds)))
        ops.append(_generators_op(small, next(seeds), 1.0 if cycle % 2 else -1.0))
        ops.append(_decompose_op(pp64, next(seeds)))
        ops.append(_exp_op(large, tangent(large, next(seeds))))
        ops.append(_decompose_op(pp32, next(seeds)))
        ops.append(_log_op(large, tangent(large, next(seeds))))
        ops.append(_generators_op(large, next(seeds), -1.0 if cycle % 2 else 1.0))
        ops.append(_decompose_op(pp32, next(seeds)))
        ops.append(_decompose_op(pp64, next(seeds)))
    return Workload("decompose_large", ops)


SCREEN_SIGNATURES = ((1, 2), (2, 3), (3, 5), (4, 7), (6, 10), (9, 15))


def build_membership_screen(seed: int) -> Workload:
    """One-shot membership questions at unequal (p, q), about half of them rejected."""
    rng = np.random.default_rng(seed)
    seeds = _seeds(rng)
    ops = []
    for rep in range(8):
        for p, q in SCREEN_SIGNATURES:
            metric = pu.make_metric(p, q)
            generic = pu.sample_upq(metric, next(seeds))
            sign = 1.0 if rep % 2 else -1.0
            hermitian = sign * pu.exp_us(tangent(metric, next(seeds)))
            source = hermitian if rep % 4 < 2 else generic
            inputs = (
                ("generic", generic, True),
                ("hermitian", hermitian, True),
                ("perturbed", perturbed(source, rng), False),
                ("rescaled", (1.0 + 1e-3) * source, False),
            )
            for case, x, member in inputs:
                ops.extend(_screen_ops(metric, case, x, member))
    return Workload("membership_screen", ops)


def _screen_ops(metric, case: str, x: np.ndarray, member: bool) -> list:
    ref = membership_defect(x, metric.signs)

    def residual_check(r):
        if abs(r - ref) > 1e-9 * ref + 1e-13:
            return f"membership_residual {r:.6e} vs reference {ref:.6e}"
        return None

    def inverse_check(inv):
        err = float(np.linalg.norm(x @ inv - np.eye(metric.n)))
        return None if err <= INVERSE_TOL else f"fast_inverse product defect {err:.2e}"

    def require_check(a):
        return None if np.array_equal(a, x) else "require_member changed its input"

    return [
        Op("is_pseudo_unitary", case, lambda: pu.is_pseudo_unitary(x, metric),
           check=_expect(member, "is_pseudo_unitary")),
        Op("membership_residual", case, lambda: pu.membership_residual(x, metric),
           check=residual_check),
        Op("fast_inverse", case, lambda: pu.fast_inverse(x, metric),
           reject=not member, check=inverse_check),
        Op("require_member", case, lambda: pu.require_member(x, metric, hermitian=True),
           reject=case != "hermitian", check=require_check),
    ]


# ---------------------------------------------------------------------------
# cli_pipeline


SMALL_P = (1, 2, 3, 4, 2)
BIG_P = 64


def _report(out: str) -> dict:
    return json.loads(out)["result"]


def _parse_matrix(out: str) -> np.ndarray:
    doc = json.loads(out)
    e = np.asarray(doc["entries"], dtype=float)
    return e[:, 0] + 1j * e[:, 1]


def _invariant(items) -> "pu.CanonicalInvariant":
    return pu.CanonicalInvariant(tuple((d["kind"], d["t"], d["sign"]) for d in items))


def _cli_sample_text(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pu_cli.main(argv)
    if code != 0:
        raise RuntimeError(f"upq {' '.join(argv)} exited {code} during setup")
    return out.getvalue()


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)
    return path


def _sample_argv(p: int, seed: int) -> list:
    return ["sample", "--family", "uspp", "--p", str(p), "--q", str(p), "--seed", str(seed)]


def _sample_op(p: int, seed: int) -> CliOp:
    argv = _sample_argv(p, seed)
    expected = json.loads(_cli_sample_text(argv))

    def check(out):
        return None if json.loads(out) == expected else "sample output differs"
    return CliOp("sample", f"p={p}", [argv], (0,), check)


def _exp_log_op(workdir: str, tag: str, metric, el) -> CliOp:
    path = _write(workdir, f"{tag}-tangent.json", pu.dumps_matrix(el.block, metric, pu.KIND_BLOCK))

    def check(out):
        err = _rel(_parse_matrix(out).reshape(el.block.shape), el.block)
        return None if err <= ROUND_TRIP_TOL else f"exp | log round trip error {err:.2e}"
    return CliOp("exp|log", f"p={metric.p}", [["exp", path], ["log", "-"]], (0, 0), check)


def _file_ops(workdir: str, tag: str, p: int, rng, seeds) -> list:
    """check, invert | check, decompose, invariants, generators and equiv on one member file."""
    metric = pu.make_metric(p, p)
    s = next(seeds)
    member_text = _cli_sample_text(_sample_argv(p, s))
    truth_inv = _invariant(json.loads(member_text)["ground_truth"]["invariant"])
    m, truth = pu.sample_us_pp(pu.SampleSpec(metric=metric, seed=s, t_max=T_MAX))
    q = block_unitary(metric, next(seeds))
    sign = 1.0 if rng.integers(2) else -1.0
    shift = float(rng.uniform(0.05, 0.5))
    ts = tuple(b.t + shift for b in truth.blocks)
    m2, truth2 = pu.sample_us_pp(pu.SampleSpec(metric=metric, seed=s, t_max=T_MAX, t_values=ts))
    inequivalent = not pu.invariant_from_blocks(truth.blocks).matches(
        pu.invariant_from_blocks(truth2.blocks))
    member = _write(workdir, f"{tag}-member.json", member_text)
    nonmember = _write(workdir, f"{tag}-nonmember.json", pu.dumps_matrix(perturbed(m, rng), metric))
    equivalent = _write(workdir, f"{tag}-equivalent.json",
                        pu.dumps_matrix(sign * (q.conj().T @ m @ q), metric))
    other = _write(workdir, f"{tag}-other.json", pu.dumps_matrix(m2, metric))
    size = f"p={p}"

    def member_check(expected):
        def check(out):
            got = _report(out)["is_member"]
            return None if got is expected else f"check is_member {got}, expected {expected}"
        return check

    def decompose_check(out):
        r = _report(out)
        triples = [(b["kind"], b["t"], b["sign"]) for b in r["blocks"]]
        u = np.asarray(r["unitary"], dtype=float)
        err = _rel(canonical_matrix(triples, (u[:, 0] + 1j * u[:, 1]).reshape(m.shape)), m)
        if err > REASSEMBLY_TOL:
            return f"decompose reassembly error {err:.2e}"
        got = pu.invariant_from_blocks([pu.HyperbolicBlock(*t) for t in triples])
        return None if got.matches(truth_inv) else "decompose blocks differ from ground truth"

    def invariants_check(out):
        got = _invariant(_report(out)["invariant"])
        return None if got.matches(truth_inv) else f"invariants {got.triples} differ"

    def generators_check(out):
        r = _report(out)
        gens = r["generators"]
        vec = np.array([[complex(a, b) for a, b in g["vector"]] for g in gens]).reshape(
            len(gens), metric.n)
        rebuilt = from_generators(r["sigma"], [g["lambda"] for g in gens], vec, metric.signs)
        err = _rel(rebuilt, m)
        return None if err <= REASSEMBLY_TOL else f"generators reconstruction error {err:.2e}"

    def equiv_check(expected):
        def check(out):
            got = _report(out)["equivalent"]
            return None if got is expected else f"equiv {got}, expected {expected}"
        return check

    return [
        CliOp("check", size + " member", [["check", member]], (0,), member_check(True)),
        CliOp("check", size + " nonmember", [["check", nonmember]], (1,), member_check(False)),
        CliOp("invert|check", size, [["invert", member], ["check", "-"]], (0, 0),
              member_check(True)),
        CliOp("decompose", size, [["decompose", member]], (0,), decompose_check),
        CliOp("invariants", size, [["invariants", member]], (0,), invariants_check),
        CliOp("generators", size, [["generators", member]], (0,), generators_check),
        CliOp("equiv", size + " equivalent", [["equiv", member, equivalent]], (0,),
              equiv_check(True)),
        CliOp("equiv", size + (" inequivalent" if inequivalent else " equivalent"),
              [["equiv", member, other]], (1 if inequivalent else 0,),
              equiv_check(not inequivalent)),
    ]


def build_cli_pipeline(seed: int, workdir: str) -> Workload:
    """Sequential `upq` processes in cycles of ten, two of them on n = 128 matrices.

    Every cycle has the same shape: `sample` of an n = 128 member, eight
    invocations on small member files (p from SMALL_P), and `exp | log -` of
    a 64 x 64 tangent. The two n = 128 invocations both write a matrix file
    of that size and cost about the same, so p90 sits inside their class.
    """
    rng = np.random.default_rng(seed)
    seeds = _seeds(rng)
    os.makedirs(workdir, exist_ok=True)
    big = pu.make_metric(BIG_P, BIG_P)
    sample = _sample_op(BIG_P, next(seeds))
    exp_log = _exp_log_op(workdir, "big", big, tangent(big, next(seeds)))
    ops = []
    for cycle, p in enumerate(SMALL_P):
        ops.append(sample)
        ops.extend(_file_ops(workdir, f"c{cycle}", p, rng, seeds))
        ops.append(exp_log)
    return Workload("cli_pipeline", ops, chunk=10)


def build(name: str, seed: int, workdir: str) -> Workload:
    if name == "invariants_small":
        return build_invariants_small(seed)
    if name == "decompose_large":
        return build_decompose_large(seed)
    if name == "membership_screen":
        return build_membership_screen(seed)
    if name == "cli_pipeline":
        return build_cli_pipeline(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# running one operation


def run_op(op: Op, tracer=None) -> tuple[float, str, str | None]:
    """Call the operation once; return (seconds, outcome, mismatch or None)."""
    if tracer is not None:
        tracer.begin_op(op)
    start = perf_counter()
    try:
        value = op.call()
    except MembershipError as exc:
        elapsed = perf_counter() - start
        return elapsed, "rejected", None if op.reject else f"unexpected rejection: {exc}"
    except Exception as exc:  # a library crash is a counted failure, not a harness abort
        elapsed = perf_counter() - start
        return elapsed, f"error:{type(exc).__name__}", f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.end_op()
    elapsed = perf_counter() - start
    if op.reject:
        return elapsed, "returned", "expected a MembershipError, got a result"
    return elapsed, "returned", op.check(value) if op.check else None


def _cli_verdict(op: CliOp, codes: list, out: str, err: str) -> str | None:
    if tuple(codes) != op.codes:
        return f"exit codes {codes}, expected {list(op.codes)}: {err.strip()[-300:]}"
    return op.check(out) if op.check else None


def run_cli_process(op: CliOp, env: dict, cwd: str, timeout: float = 120.0):
    """Run the invocation as real processes chained by pipes."""
    procs = []
    start = perf_counter()
    try:
        stdin = None
        for argv in op.argvs:
            proc = subprocess.Popen([sys.executable, *UPQ, *argv], stdin=stdin,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    env=env, cwd=cwd)
            if stdin is not None:
                stdin.close()
            stdin = proc.stdout
            procs.append(proc)
        out, err = procs[-1].communicate(timeout=timeout)
        for proc in procs[:-1]:
            proc.wait(timeout=timeout)
            err = proc.stderr.read() + err
        elapsed = perf_counter() - start
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for stream in (proc.stdout, proc.stderr):
                if stream is not None and not stream.closed:
                    stream.close()
    codes = [proc.returncode for proc in procs]
    text = out.decode("utf-8", "replace")
    outcome = "exit:" + ",".join(map(str, codes))
    return elapsed, outcome, _cli_verdict(op, codes, text, err.decode("utf-8", "replace"))


def run_cli_inprocess(op: CliOp, tracer=None):
    """Run the invocation through cli.main in this process, piping text between stages."""
    codes = []
    text = ""
    errors = io.StringIO()
    if tracer is not None:
        tracer.begin_op(op)
    start = perf_counter()
    try:
        for argv in op.argvs:
            out = io.StringIO()
            saved = sys.stdin
            sys.stdin = io.StringIO(text)
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errors):
                    codes.append(pu_cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code if isinstance(exc.code, int) else 1)
            finally:
                sys.stdin = saved
            text = out.getvalue()
    finally:
        if tracer is not None:
            tracer.end_op()
    elapsed = perf_counter() - start
    outcome = "exit:" + ",".join(map(str, codes))
    return elapsed, outcome, _cli_verdict(op, codes, text, errors.getvalue())
