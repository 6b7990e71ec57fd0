"""Smoke tests of the benchmark at n = 24, so the harness cannot rot unnoticed.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_smoke_untraced(workload):
    res = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    # At n = 24 the Laplacian is well conditioned, so the probe passes too.
    assert res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(run.END_TO_END)
    assert res["metrics"]["success_frac"]["value"] == 1.0
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_smoke_traced_self_check(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    res = _result(proc)
    assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(tracer.PER_LAYER)
    assert "tracer self-check: ok" in proc.stdout
    record = os.path.join(ROOT, ".bench_out", workload, "record-seed3-trace1.json")
    with open(record) as fh:
        assert json.load(fh)["self_check"] == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "verify", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_checks_fail_a_wrong_report():
    good = {"command": "converge", "timestamp": "t", "results": [
        {"pair": p, "rho": 1e-12, "history": [1.0] + [1e-12] * workloads.CONVERGE_ITERS}
        for p in workloads.CONVERGE_PAIRS]}
    ops, errs, _ = workloads.check_invocation("converge", 0, json.dumps(good))
    assert [ok for _, ok, _ in ops] == [True, True] and errs == [1e-12]
    stalled = json.loads(json.dumps(good))
    stalled["results"][1]["history"][-1] = 1e-3
    ops, _, _ = workloads.check_invocation("converge", 0, json.dumps(stalled))
    assert [ok for _, ok, _ in ops] == [True, False]
    ops, _, _ = workloads.check_invocation("converge", 0, json.dumps(good).replace("1e-12", "NaN", 1))
    assert not any(ok for _, ok, _ in ops)
    ops, _, _ = workloads.check_invocation("converge", 2, None)
    assert not any(ok for _, ok, _ in ops)


def test_summarize_splits_self_time_by_layer():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0.0],
        ["transfer.ideal_pair", 1.0, 6.0, 0, 0.0],
        ["linalg.lapack.svd", 2.0, 5.0, 1, 7.0],
        ["transfer.ideal_pair", 3.0, 4.0, 2, 0.0],
    ]
    s = tracer.summarize(spans)
    assert s["self_s"] == {"cli": 5.0, "transfer": 3.0, "linalg.lapack": 2.0}
    assert s["calls"]["transfer.ideal_pair"] == 2
    assert s["incl_s"]["transfer.ideal_pair"] == 5.0   # the nested call is not counted twice
    assert s["extra"]["linalg.lapack.svd"] == 7.0
