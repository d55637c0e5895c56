"""Self-tests of the benchmark: python3 -m pytest bench -q (from the repository root).

They run the real harness briefly, so they take about a minute; the
package's own suite under tests/ does not collect them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import env  # noqa: E402

env.pin_threads()
sys.path.insert(0, env.SRC)

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fp:
    MANIFEST = json.load(_fp)


def _bench(workload: str, trace: int, seconds: str = "1") -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "11", "--seconds", seconds, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=env.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_manifest_lists_the_workloads_the_harness_runs():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    specs = MANIFEST["per_layer" if trace else "end_to_end"]
    assert {s["name"]: s["unit"] for s in specs} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_seed_code_validates_twice_per_invariant_and_four_times_per_equivalence():
    # fixed expectations for the current package; a validate-once change
    # is meant to lower both counts
    metrics = _bench("invariants_small", 1)["metrics"]
    assert metrics["metric.require_member.calls_per_op.canonical_invariant"]["value"] == 2
    assert metrics["metric.require_member.calls_per_op.are_equivalent"]["value"] == 4


def _corrupt(wl) -> None:
    """Invert the expected outcome of the first operation."""
    op = wl.ops[0]
    if isinstance(op, workloads.CliOp):
        op.codes = tuple(1 - c for c in op.codes)
    else:
        op.reject = not op.reject


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_expected_answer_raises_error_rate(workload, monkeypatch, tmp_path):
    build = workloads.build

    def corrupted(name, seed, workdir):
        wl = build(name, seed, workdir)
        _corrupt(wl)
        return wl

    monkeypatch.setattr(workloads, "build", corrupted)
    res = worker.measure(workload, 5, 0.5, str(tmp_path / "work"))
    assert res["failed"] >= 1
    assert res["failed"] / res["attempted"] > 0
    assert res["mismatches"][0]["index"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_runs_have_identical_outcomes(workload, tmp_path):
    wl = workloads.build(workload, 7, str(tmp_path / "work"))
    if workload == "cli_pipeline":
        ops = wl.ops[:10]  # one cycle, two of its invocations on n = 128 files
        child = env.child_env()
        untraced = [workloads.run_cli_process(op, child, env.ROOT) for op in ops]
        run_traced = workloads.run_cli_inprocess
    else:
        ops = wl.ops
        untraced = [workloads.run_op(op) for op in ops]
        run_traced = workloads.run_op
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [run_traced(op, tracer) for op in ops]
    finally:
        tracer.uninstall()
    assert tracer.spans, "the tracer recorded nothing"
    assert [(o, p) for _, o, p in untraced] == [(o, p) for _, o, p in traced]
    assert all(p is None for _, _, p in untraced)


def test_tracer_restores_every_binding():
    import numpy as np

    import pseudounitary as pu

    before = (pu.require_member, pu.canonical.require_member, np.linalg.eigh)
    tracer = tracing.Tracer()
    tracer.install()
    assert pu.canonical.require_member is not before[1]
    tracer.uninstall()
    assert (pu.require_member, pu.canonical.require_member, np.linalg.eigh) == before


def test_refuses_to_run_without_the_package(tmp_path):
    # a directory holding only BENCHMARK.json and bench/
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(MANIFEST))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "invariants_small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
