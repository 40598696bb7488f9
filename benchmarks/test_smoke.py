"""Smoke test of the benchmark itself: every workload at tiny size emits
every metric BENCHMARK.json names, and the output checks reject a corrupted
failure table and a lowered optimiser rate.

Run: python3 -m pytest -q benchmarks/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(w):
    """One call per pass; Monte Carlo calls on 4 sampled demands."""
    if w.kind == "mc":
        return dataclasses.replace(w, demand_cap=4, calls=1, golden_digest=None)
    return dataclasses.replace(w, calls=1)


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(name, trace):
    result, info = run.run_workload(
        tiny(workloads.WORKLOADS[name]), seed=1, seconds=0.0, trace=trace, setup_reps=1
    )
    assert result["correct"], info["errors"]
    assert result["failed"] == 0
    assert result["attempted"] == 1 + run.MIN_PASSES * (2 if trace else 1)
    want = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    if trace:
        assert abs(result["metrics"]["trace.coverage"]["value"] - 1.0) <= run.COVERAGE_TOLERANCE


def _default_call(name):
    w = workloads.WORKLOADS[name]
    cfg, plan = workloads.setup(w)
    _, rep = workloads.execute(w, cfg, plan, workloads.call_seed(workloads.DEFAULT_SEED, 0))
    return w, cfg, rep


def _with_table(rep, table):
    return dataclasses.replace(rep, receiver_failures=tuple(tuple(r) for r in table))


def test_checker_rejects_corrupted_failure_table():
    w, cfg, rep = _default_call("mc-general-k4")
    assert workloads.check_golden(w, cfg, rep) == []
    flipped = [list(r) for r in rep.receiver_failures]
    flipped[0][0] ^= 1
    assert workloads.check_golden(w, cfg, _with_table(rep, flipped))
    out_of_range = [list(r) for r in rep.receiver_failures]
    out_of_range[0][0] = rep.trials + 1
    assert workloads.check_report(w, cfg, _with_table(rep, out_of_range))


def test_checker_rejects_missing_binding_failures():
    w, cfg, rep = _default_call("mc-joint2rx-over")
    assert workloads.check_golden(w, cfg, rep) == []
    assert workloads.check_pooled(w, [rep]) == []
    clean = _with_table(rep, [[0] * cfg.K for _ in rep.demands])
    assert workloads.check_golden(dataclasses.replace(w, golden_digest=None), cfg, clean)
    assert workloads.check_pooled(w, [clean])


def test_checker_rejects_lowered_optimiser_rate():
    w = workloads.WORKLOADS["opt-points"]
    _, point = workloads.execute(w, None, None, workloads.random_instance(1, 3))
    assert workloads.check_point(point) == []
    assert workloads.check_point(dict(point, unequal=point["phase_lp"] - 1e-6))
    assert workloads.check_point(dict(point, published=point["phase_lp"] - 1e-6))


def test_fails_without_the_program():
    bare = run.OUT_DIR / "bare"  # holds only BENCHMARK.json and the benchmark
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "opt-points", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
