"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from paraopt_kit.core import OuterRecord, PairedTrajectory, SolveLog  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def _tiny_case(name):
    w = workloads.tiny(workloads.WORKLOADS[name])
    return w, workloads.setup_solve(w.spec, seed=2)


def test_checker_rejects_zero_trajectory():
    _, case = _tiny_case("heat-track-pc")
    p, d = case.problem, case.decomp
    log = SolveLog(records=[OuterRecord(0, 1.0, 0, 0.0)], converged=True)
    reason, _ = workloads.check_solve(
        case, (PairedTrajectory.zeros(d.L_hat, p.M), log))
    assert reason is not None and reason.startswith("residual")


def test_checker_accepts_a_real_solve():
    _, case = _tiny_case("heat-tc-tri")
    reason, counts = workloads.check_solve(case, workloads.run_solve(case))
    assert reason is None and counts[0] > 0


def test_sweep_checker_rejects_tracking_bound_at_one():
    w = workloads.tiny(workloads.WORKLOADS["analysis-sweep"])
    case = workloads.setup_sweep(w.spec, seed=0)
    grids, oracle = workloads.run_sweep(case)
    grids[0][0] = grids[0][0][:2] + (1.0,)
    reason, _ = workloads.check_sweep(case, (grids, oracle))
    assert reason is not None and "tracking rho*" in reason


def test_trace_guard_fails_when_a_boundary_is_not_reached():
    w = workloads.tiny(workloads.WORKLOADS["heat-track-nopc"])
    w = dataclasses.replace(w, reaches=w.reaches + ("preconditioner.apply_inverse",))
    args = argparse.Namespace(seed=0, seconds=0.0, trace=1, tiny=True)
    with pytest.raises(tracing.TraceGuardError, match="apply_inverse"):
        harness.traced_run(w, args, started=time.perf_counter(),
                           log=lambda msg: None)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run(["--workload", "analysis-sweep", "--seed", "0", "--seconds",
                 "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
