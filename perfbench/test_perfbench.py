"""Self-tests of the benchmark harness (small inputs, a few seconds in all).

    PYTHONPATH=src python -m pytest -q perfbench
"""

import os
import shutil
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

import bench
import workloads
from stockalloc.ingest import build_feature_table, clean_records, parse_records
from stockalloc.pipeline import compare
from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SMALL_LEDGER = dict(n_facilities=20, n_products=5, n_months=24)


def test_ledger_generator_is_deterministic_per_seed(tmp_path):
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    counts = [workloads.generate_ledger(p, seed, **SMALL_LEDGER)
              for p, seed in zip(paths, (7, 7, 8))]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert counts[0] == counts[1]
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_ledger_fault_counts_are_exact(tmp_path):
    path = tmp_path / "ledger.csv"
    expected = workloads.generate_ledger(path, 3, n_facilities=40, n_products=10)
    assert all(expected[k] > 0 for k in ("missing", "rejected", "unbalanced", "all_zero", "outlier"))
    records, rejects = parse_records(str(path))
    kept, exclusions = clean_records(records)
    reasons = Counter(e.reason for e in exclusions)
    assert len(records) == expected["records"]
    assert len(rejects) == expected["rejected"]
    assert {k: reasons[k] for k in ("unbalanced", "all_zero", "outlier")} == {
        k: expected[k] for k in ("unbalanced", "all_zero", "outlier")}
    assert len(build_feature_table(kept)) == expected["rows"]


def test_tracer_self_times_account_for_traced_compare(tmp_path):
    instance = workloads.build("synth_forest", 2, str(tmp_path), small=True)
    with Tracer(seed=2) as tracer:
        start = time.perf_counter()
        with tracer.run(run_id=1):
            result = compare(instance.config)
        outside = time.perf_counter() - start
    root = tracer.spans[0]
    root_s = root[5] - root[4]
    assert root[3] == "compare" and root[2] is None
    assert sum(tracer.self_times().values()) == pytest.approx(root_s, rel=1e-9)
    assert root_s <= outside
    assert root_s >= 0.9 * outside
    names = {s[3] for s in tracer.spans}
    assert {"pipeline.prepare", "forest.train", "forest.predict", "weights.compute",
            "allocator.solve.pipeline", "allocator.solve.weights"} <= names
    # Every wrapper is removed again on exit.
    from stockalloc import pipeline, weights
    assert pipeline.solve_greedy is weights.__dict__["solve_greedy"]
    assert not hasattr(pipeline.solve_greedy, "__wrapped__")
    # The traced metrics are exactly the per-layer metrics BENCHMARK.json declares.
    traced = bench.layer_metrics(tracer, result, outside, outside)
    assert set(traced) == set(bench.metric_units("per_layer"))


def test_times_are_scaled_to_nominal_speed():
    # At half speed the reference takes twice its nominal time, so a call's time halves.
    assert bench.at_nominal_speed([2.0, 6.0], [0.4, 0.4, 0.8], 0.2) == pytest.approx([1.0, 2.0])


def _over_budget(config):
    report, outcomes, weight_report, prepared = compare(config)
    entry = next(iter(outcomes["decision_aware"].per_product.values()))
    entry["allocation"] = np.asarray(entry["allocation"]) + entry["budget"]
    return report, outcomes, weight_report, prepared


def _raises(config):
    raise RuntimeError("broken program")


def test_broken_allocation_is_counted_not_raised(tmp_path):
    instance = workloads.build("synth_linear_fd", 1, str(tmp_path), small=True)
    calls = bench.Calls(compare_fn=_over_budget)
    _, result, _ = calls.run(instance)
    assert result is not None
    assert (calls.attempted, calls.failed) == (1, 1)
    assert any("over budget" in m for m in calls.messages)

    calls.compare_fn = _raises
    seconds, result, report_bytes = calls.run(instance)
    assert result is None and report_bytes is None and seconds >= 0
    assert (calls.attempted, calls.failed) == (2, 2)

    calls.compare_fn = compare
    calls.run(instance)
    assert (calls.attempted, calls.failed) == (3, 2)


def test_wrong_ingest_counts_fail_the_call(tmp_path):
    instance = workloads.build("ledger_linear", 1, str(tmp_path), small=True)
    instance.expected_ingest = dict(instance.expected_ingest, rejected=instance.expected_ingest["rejected"] + 1)
    calls = bench.Calls()
    calls.run(instance)
    assert calls.failed == 1
    assert any("rejected" in m for m in calls.messages)


def test_lp_cross_check_flags_wrong_or_infeasible_allocations():
    pytest.importorskip("scipy")
    from checks import check_lp
    from stockalloc.allocator import AllocationProblem, solve_greedy

    rng = np.random.default_rng(0)
    problem = AllocationProblem(rng.uniform(0, 10, size=(6, 5)), 20.0)
    a = solve_greedy(problem).allocation
    assert check_lp([(problem, a)]) == []
    assert any("HiGHS" in m for m in check_lp([(problem, a * 0.5)]))
    assert any("over budget" in m for m in check_lp([(problem, a + 1.0)]))
    assert any("negative" in m for m in check_lp([(problem, a - a.max() - 1.0)]))


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth_forest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
