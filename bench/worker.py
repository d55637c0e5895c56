"""One benchmark process: set a workload up, then time it or trace it.

run.py starts this file in a fresh interpreter for every set-up sample, for
the timed run and for the traced run. It prints one JSON object as the last
line of its standard output.

    --phase setup    import, build inputs, warm up; report the set-up time
    --phase measure  set up, then a closed loop over the operations
    --phase trace    set up under the tracer, then alternate untraced and
                     traced passes over the operation list
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # set-up time counts from here, before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

sys.dont_write_bytecode = True
import env  # noqa: E402

env.pin_threads()
sys.path.insert(0, env.SRC)

import resource  # noqa: E402
from array import array  # noqa: E402

import numpy as np  # noqa: E402

import pseudounitary  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_MISMATCHES = 20
# Traced passes are capped so the spans of the fast workloads stay in memory.
MAX_TRACED_PASSES = 5
STARTUP_SAMPLES = 5
MIB = 1024.0  # ru_maxrss is in KiB on Linux


def _outdir(root_out: str, name: str, seed: int) -> str:
    return os.path.join(root_out, f"tmp-{name}-{seed}-{os.getpid()}")


def set_up(name: str, seed: int, workdir: str, tracer=None):
    """Build the inputs and warm every operation kind up once; returns the workload."""
    if tracer is not None:
        tracer.begin_op(tracing.SETUP)
    try:
        wl = workloads.build(name, seed, workdir)
    finally:
        if tracer is not None:
            tracer.end_op()
    # One call of each kind loads lazy state (LAPACK, imports inside functions);
    # for the CLI one process warms the file cache of the interpreter and numpy.
    first = {}
    for op in wl.ops:
        first.setdefault(op.kind, op)
    warm = list(first.values())[:1] if wl.name == "cli_pipeline" else first.values()
    runner = _runner(wl, traced_cli=tracer is not None)
    for op in warm:
        runner(op)
    return wl


def _runner(wl, traced_cli: bool = False):
    if wl.name != "cli_pipeline":
        return workloads.run_op
    if traced_cli:
        return workloads.run_cli_inprocess
    child = env.child_env()
    return lambda op, tracer=None: workloads.run_cli_process(op, child, env.ROOT)


def _versions() -> dict:
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "package": pseudounitary.__version__,
    }


def measure(name: str, seed: int, seconds: float, workdir: str) -> dict:
    wl = set_up(name, seed, workdir)
    setup_s = perf_counter() - STARTED
    runner = _runner(wl)
    chunk = wl.chunk or len(wl.ops)
    # Samples go to flat arrays so the harness's own memory grows by only ten
    # bytes per operation and barely moves peak_rss_mb.
    latencies, positions = array("d"), array("I")
    rates, mismatches = [], []
    failed = 0
    chunk_time = chunk_good = 0
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline or not rates:
        position = i % len(wl.ops)
        op = wl.ops[position]
        elapsed, outcome, problem = runner(op)
        latencies.append(elapsed)
        positions.append(position)
        chunk_time += elapsed
        if problem is None:
            chunk_good += 1
        else:
            failed += 1
            if len(mismatches) < MAX_MISMATCHES:
                mismatches.append({"index": position, "kind": op.kind, "case": op.case,
                                   "outcome": outcome, "problem": problem})
        i += 1
        if i % chunk == 0:
            rates.append(chunk_good / chunk_time)
            chunk_time = chunk_good = 0
    who = resource.RUSAGE_CHILDREN if name == "cli_pipeline" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / MIB
    lat = np.frombuffer(latencies)
    p50, p90 = np.quantile(lat, [0.5, 0.9])
    groups = {}
    for position, op in enumerate(wl.ops):
        groups.setdefault(f"{op.kind} [{op.case}]", []).append(position)
    pos = np.frombuffer(positions, dtype=np.uint32)
    by_kind = {key: lat[np.isin(pos, members)] for key, members in sorted(groups.items())}
    return {
        "setup_s": setup_s,
        "attempted": len(lat),
        "failed": failed,
        "ops_per_s": statistics.median(rates),
        "chunks": len(rates),
        "latency_p50_ms": 1e3 * p50,
        "latency_p90_ms": 1e3 * p90,
        "beyond_p90": int(np.count_nonzero(lat > p90)),
        "peak_rss_mb": peak_rss_mb,
        "mismatches": mismatches,
        "median_ms_by_kind": {k: 1e3 * float(np.median(v)) for k, v in by_kind.items() if v.size},
        "versions": _versions(),
    }


def _startup_split() -> dict:
    """Median start-up costs of bare interpreters, numpy and the package, in ms."""
    child = env.child_env()
    probes = {
        "numpy": "import time; t = time.perf_counter(); import numpy; "
                 "print(time.perf_counter() - t)",
        "pkg": "import time, numpy; t = time.perf_counter(); import pseudounitary.cli; "
               "print(time.perf_counter() - t)",
    }
    walls, inner = [], {key: [] for key in probes}
    for _ in range(STARTUP_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child, cwd=env.ROOT, check=True,
                       timeout=60)
        walls.append(perf_counter() - start)
        for key, code in probes.items():
            out = subprocess.run([sys.executable, "-c", code], env=child, cwd=env.ROOT,
                                 check=True, capture_output=True, text=True, timeout=60)
            inner[key].append(float(out.stdout.strip()))
    return {
        "cli.interpreter_ms": 1e3 * statistics.median(walls),
        "cli.import_numpy_ms": 1e3 * statistics.median(inner["numpy"]),
        "cli.import_pkg_ms": 1e3 * statistics.median(inner["pkg"]),
    }


def trace(name: str, seed: int, seconds: float, workdir: str, spans_path: str) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    wl = set_up(name, seed, workdir, tracer)
    runner = _runner(wl, traced_cli=True)
    setup_spans = len(tracer.spans)
    pass_times = {False: [], True: []}
    outcomes = {False: None, True: None}
    traced_ops = []
    attempted = failed = 0
    mismatches = []
    deadline = perf_counter() + seconds
    traced = False
    while not pass_times[True] or perf_counter() < deadline:
        if traced and len(pass_times[True]) >= MAX_TRACED_PASSES:
            traced = False
        total = 0.0
        seen = []
        for index, op in enumerate(wl.ops):
            elapsed, outcome, problem = runner(op, tracer if traced else None)
            total += elapsed
            seen.append((op.kind, op.case, outcome, problem is None))
            attempted += 1
            if problem is not None:
                failed += 1
                if len(mismatches) < MAX_MISMATCHES:
                    mismatches.append({"index": index, "kind": op.kind, "case": op.case,
                                       "traced": traced, "outcome": outcome, "problem": problem})
            if traced:
                traced_ops.append(op)
        pass_times[traced].append(total)
        if outcomes[traced] is None:
            outcomes[traced] = seen
        if traced and len(pass_times[True]) == 1:
            _write_spans(spans_path, tracer.spans)
        traced = not traced
    tracer.uninstall()

    summary = tracing.Summary(tracer.spans, traced_ops, len(pass_times[True]))
    values = _layer_values(summary)
    values["trace.overhead_ratio"] = (statistics.median(pass_times[False])
                                      / statistics.median(pass_times[True]))
    if name == "cli_pipeline":
        values.update(_startup_split())
    return {
        "attempted": attempted,
        "failed": failed,
        "outcomes_match": outcomes[False] == outcomes[True],
        "passes": {"untraced": len(pass_times[False]), "traced": len(pass_times[True])},
        "ops_per_pass": len(wl.ops),
        "spans": len(tracer.spans) - setup_spans,
        "metrics": values,
        "calls_per_op_by_kind": summary.table(),
        "mismatches": mismatches,
        "versions": _versions(),
    }


def _layer_values(s: "tracing.Summary") -> dict:
    main_calls = s.calls["cli.main"]
    return {
        "metric.require_member.calls_per_op": s.calls_per_op("metric.require_member"),
        "metric.require_member.calls_per_op.canonical_invariant":
            s.per_kind("metric.require_member", "canonical_invariant"),
        "metric.require_member.calls_per_op.are_equivalent":
            s.per_kind("metric.require_member", "are_equivalent"),
        "metric.require_member.total_ms": s.total_ms("metric.require_member"),
        "metric.membership_residual.calls_per_op": s.calls_per_op("metric.membership_residual"),
        "metric.hermitian_residual.calls_per_op": s.calls_per_op("metric.hermitian_residual"),
        "metric.fast_inverse.total_ms": s.total_ms("metric.fast_inverse"),
        "metric.rejections_per_op": s.rejections / s.n_ops,
        "metric.self_ms": s.self_ms("metric"),
        "kernel.eigh.calls_per_op": s.calls_per_op("kernel.eigh"),
        "kernel.eigvalsh.calls_per_op": s.calls_per_op("kernel.eigvalsh"),
        "kernel.svd.calls_per_op": s.calls_per_op("kernel.svd"),
        "kernel.qr.calls_per_op": s.calls_per_op("kernel.qr"),
        "kernel.eig_calls_per_op.canonical_invariant":
            s.per_kind("kernel.eigh", "canonical_invariant")
            + s.per_kind("kernel.eigvalsh", "canonical_invariant"),
        "kernel.eig_calls_per_op.block_decompose":
            s.per_kind("kernel.eigh", "block_decompose")
            + s.per_kind("kernel.eigvalsh", "block_decompose"),
        "kernel.total_ms": s.kernel_ms(),
        "spectral.extract_generators.calls_per_op":
            s.calls_per_op("spectral.extract_generators"),
        "spectral.extract_generators.total_ms": s.total_ms("spectral.extract_generators"),
        "spectral.self_ms": s.self_ms("spectral"),
        "canonical.block_decompose.calls_per_op": s.calls_per_op("canonical.block_decompose"),
        "canonical.block_decompose.total_ms": s.total_ms("canonical.block_decompose"),
        "canonical.classify_block.calls_per_op": s.calls_per_op("canonical.classify_block"),
        "canonical.invariant_from_blocks.total_ms": s.total_ms("canonical.invariant_from_blocks"),
        "canonical.self_ms": s.self_ms("canonical"),
        "lie.exp_us.total_ms": s.total_ms("lie.exp_us"),
        "lie.log_us.total_ms": s.total_ms("lie.log_us"),
        "lie.self_ms": s.self_ms("lie"),
        "matrixfile.dumps_matrix.total_ms": s.total_ms("matrixfile.dumps_matrix"),
        "matrixfile.loads_matrix.total_ms": s.total_ms("matrixfile.loads_matrix"),
        "matrixfile.bytes_written": s.bytes["matrixfile.dumps_matrix"] / s.passes,
        "matrixfile.bytes_read": s.bytes["matrixfile.loads_matrix"] / s.passes,
        "cli.interpreter_ms": 0.0,
        "cli.import_numpy_ms": 0.0,
        "cli.import_pkg_ms": 0.0,
        "cli.main_ms": 1e3 * s.total["cli.main"] / main_calls if main_calls else 0.0,
        "sampler.total_ms": 1e3 * s.sampler_setup,
    }


def _write_spans(path: str, spans: list) -> None:
    """Spans of set-up and the first traced pass, one JSON array per line."""
    with open(path, "w", encoding="utf-8") as fp:
        for span in spans:
            op = span.op if span.op is tracing.SETUP else f"{span.op.kind} [{span.op.case}]"
            fp.write(json.dumps([span.name, span.start, span.end, span.parent, op,
                                 span.raised, span.nbytes]) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--phase", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--out", required=True, help="directory for spans and scratch files")
    args = ap.parse_args(argv)
    workdir = _outdir(args.out, args.workload, args.seed)
    try:
        if args.phase == "setup":
            set_up(args.workload, args.seed, workdir)
            result = {"setup_s": perf_counter() - STARTED}
        elif args.phase == "measure":
            result = measure(args.workload, args.seed, args.seconds, workdir)
        else:
            spans = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl")
            result = trace(args.workload, args.seed, args.seconds, workdir, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
