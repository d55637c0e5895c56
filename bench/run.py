"""Benchmark of the pseudounitary package: end-to-end metrics or a per-layer trace.

    python3 bench/run.py --workload invariants_small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Every set-up sample, the timed run and the
traced run each use a fresh interpreter (bench/worker.py) with BLAS pinned to
one thread. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print the same
numbers by name and unit, with run metadata. A fuller report, and the spans of
a traced run, go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
import env  # noqa: E402

env.pin_threads()

# Set-up is timed in this many fresh processes (the timed run's own set-up is
# one of them) and reported as their median.
SETUP_SAMPLES = 3
OUT = os.path.join(env.ROOT, "bench", "out")
WORKER = os.path.join(env.ROOT, "bench", "worker.py")
CHILD_SLACK_S = 120.0


def manifest() -> dict:
    """BENCHMARK.json: the names and units of the metrics this script prints."""
    with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        return json.load(fp)


def _select(values: dict, specs: list) -> dict:
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def run_worker(phase: str, args) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--phase", phase, "--out", OUT]
    proc = subprocess.run(cmd, env=env.child_env(), cwd=env.ROOT, capture_output=True, text=True,
                          timeout=args.seconds + CHILD_SLACK_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: worker {phase} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """The checked-out commit read from .git, or "unknown" outside a repository."""
    git = os.path.join(env.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fp:
            head = fp.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fp:
                return fp.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fp:
            for line in fp:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    pkg = os.path.join(env.SRC, "pseudounitary")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fp:
                total += sum(1 for _ in fp)
    return total


def metadata(loadavg) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(loadavg),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "environment": env.POLICY,
    }


def end_to_end(args, specs) -> tuple[dict, dict]:
    setups = [run_worker("setup", args)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    res = run_worker("measure", args)
    setups.append(res["setup_s"])
    res["setup_samples_s"] = setups
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": res["ops_per_s"],
        "latency_p50_ms": res["latency_p50_ms"],
        "latency_p90_ms": res["latency_p90_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    metrics = _select(values, specs)
    n = res["attempted"]
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "ops_per_s": f"median over {res['chunks']} passes of the operation mix",
        "latency_p50_ms": f"{n} samples",
        "latency_p90_ms": f"{n} samples, {res['beyond_p90']} beyond p90",
        "peak_rss_mb": "largest upq child" if args.workload == "cli_pipeline" else "worker process",
    }
    lines = [f"  {k:<16} {m['value']:>12.4f} {m['unit']:<6} ({notes[k]})" for k, m in metrics.items()]
    lines.insert(4, f"  {'error_rate':<16} {res['failed'] / n:>12.4f} {'fraction':<6} "
                    f"({res['failed']} of {n} attempted)")
    return res, {"metrics": metrics, "lines": lines}


def per_layer(args, specs) -> tuple[dict, dict]:
    res = run_worker("trace", args)
    metrics = _select(res["metrics"], specs)
    lines = [f"  {name:<56} {m['value']:>14.4f} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  traced passes {res['passes']['traced']}, untraced passes "
                 f"{res['passes']['untraced']}, {res['ops_per_pass']} operations per pass, "
                 f"traced and untraced outcomes {'match' if res['outcomes_match'] else 'DIFFER'}")
    return res, {"metrics": metrics, "lines": lines}


def main(argv=None) -> int:
    spec = manifest()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(env.SRC, "pseudounitary", "__init__.py")):
        print("bench: src/pseudounitary is missing; run from the root of a full checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    meta = metadata(os.getloadavg())
    if args.trace:
        res, shown = per_layer(args, spec["per_layer"])
    else:
        res, shown = end_to_end(args, spec["end_to_end"])
    meta.update(res.pop("versions"))
    correct = res["failed"] == 0 and res.get("outcomes_match", True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("  " + "  ".join(f"{k}={v}" for k, v in meta.items() if k != "environment"))
    for m in res["mismatches"]:
        print(f"  MISMATCH {m['kind']} [{m['case']}] #{m['index']}: {m['outcome']}: {m['problem']}")
    print("\n".join(shown["lines"]))

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metadata": meta, "correct": correct,
              "metrics": shown["metrics"], "detail": res}
    path = os.path.join(OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(report, fp, indent=1)
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": shown["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
