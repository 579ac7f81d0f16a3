"""Tests of the benchmark itself, on its smoke size; a run takes seconds.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from run import WORKLOADS, wrong_answers
from tracer import METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def child(*args):
    proc = subprocess.run(
        [sys.executable, "-I", os.path.join(HERE, "child.py"), *args],
        capture_output=True, text=True, check=True, timeout=120,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[0])["plan"], json.loads(lines[-1])


def smoke(trace):
    proc = bench("--workload", "all", "--size", "smoke", "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_untraced_run_reports_every_end_to_end_metric(benchmark_spec):
    reports = smoke(trace=0)
    wanted = {m["name"]: m["unit"] for m in benchmark_spec["end_to_end"]}
    assert [w["name"] for w in benchmark_spec["workloads"]] == list(WORKLOADS)
    assert list(reports) == list(WORKLOADS)
    for report in reports.values():
        assert report["correct"] and report["failed"] == 0
        assert report["attempted"] >= 1
        got = {name: entry["unit"] for name, entry in report["metrics"].items()}
        assert got == wanted
        assert report["metrics"]["verdicts_ok"]["value"] == 1.0
        assert all(entry["value"] > 0 for entry in report["metrics"].values())


def test_traced_run_reports_every_layer_metric(benchmark_spec):
    reports = smoke(trace=1)
    wanted = [m["name"] for m in benchmark_spec["per_layer"]]
    assert wanted == METRICS + ["trace.overhead_ratio", "trace.unattributed_s"]
    for report in reports.values():
        assert report["correct"] and report["failed"] == 0
        assert list(report["metrics"]) == wanted
    for name in wanted:
        assert any(r["metrics"][name]["value"] > 0 for r in reports.values()), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_no_verdict_or_digest(workload):
    _, plain = child("--workload", workload, "--size", "smoke", "--seed", "4")
    _, traced = child("--workload", workload, "--size", "smoke", "--seed", "4", "--trace")
    assert "layers" in traced and "layers" not in plain
    answers = [(c["id"], c["passed"], c["digest"]) for c in plain["checks"]]
    assert answers == [(c["id"], c["passed"], c["digest"]) for c in traced["checks"]]


def test_each_repetition_starts_with_empty_caches():
    _, result = child("--workload", "series_twist", "--size", "smoke")
    caches = result["cold_caches"]
    assert {"ospq.twist.series_twist", "ospq.hopf.r1_algebra"} <= set(caches)
    assert set(caches.values()) == {0}


def test_a_warm_cache_fails_every_check():
    result = {
        "cold_caches": {"ospq.twist.series_twist": 1},
        "checks": [{"id": "a", "passed": True, "expect": True, "digest": "d"}],
    }
    assert len(wrong_answers(result, {"a": "d"})) == 1
    result["cold_caches"]["ospq.twist.series_twist"] = 0
    assert wrong_answers(result, {"a": "d"}) == []


@pytest.mark.parametrize(
    "check",
    [
        {"id": "a", "passed": False, "expect": True, "digest": "d"},
        {"id": "a", "passed": True, "expect": False, "digest": "d"},
        {"id": "a", "passed": True, "expect": True, "digest": "other"},
        {"id": "b", "passed": True, "expect": True, "digest": "d"},
    ],
)
def test_a_wrong_verdict_or_digest_is_a_failure(check):
    result = {"cold_caches": {}, "checks": [check]}
    assert len(wrong_answers(result, {"a": "d"})) == 1


def test_seed_permutes_the_order_and_nothing_else():
    orders, answers = [], []
    for seed in ("1", "2", "3"):
        plan, result = child("--workload", "operator_identities", "--size", "smoke",
                             "--seed", seed)
        orders.append(plan)
        answers.append(sorted((c["id"], c["passed"], c["digest"]) for c in result["checks"]))
    assert len({tuple(order) for order in orders}) > 1
    assert answers[0] == answers[1] == answers[2]


def test_a_repetition_past_its_deadline_is_killed_and_failed(monkeypatch):
    monkeypatch.setattr(run, "REPETITION_DEADLINE_S", 0.05)
    bench_run = run.Run("series_twist", 0, 0, False, "smoke")
    report = bench_run.report(False)
    assert not report["correct"]
    assert report["failed"] == report["attempted"] >= 1
    assert any("deadline" in error for error in bench_run.errors)


def test_tracer_wraps_each_function_once():
    script = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import ospq, ospq.gmatrix as gm, ospq.texpr as tx, ospq.r1 as r1, ospq.hopf
from ospq.scalar import Scalar, ONE
from tracer import Tracer
original = gm.graded_kron
tracer = Tracer()
tracer.install()
assert gm.graded_kron is tx.graded_kron is r1.graded_kron is ospq.graded_kron
assert gm.graded_kron is not original and gm.graded_kron.__wrapped__ is original
assert Scalar.__radd__ is Scalar.__add__ and Scalar.__rmul__ is Scalar.__mul__
eye = gm.GradedMatrix.identity((0, 1))
tx.graded_kron(eye, eye)
1 + ONE
metrics = tracer.layer_metrics()
assert metrics["gmatrix.kron.calls"] == 1, metrics
assert metrics["scalar.add.calls"] == 1, metrics
assert metrics["scalar.mul.calls"] == 4, metrics
"""
    subprocess.run(
        [sys.executable, "-I", "-c", script, os.path.join(ROOT, "src"), HERE],
        check=True, timeout=60,
    )


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "spin_ladder", "--seed", "1", "--seconds", "1",
                 cwd=str(tmp_path))
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout
