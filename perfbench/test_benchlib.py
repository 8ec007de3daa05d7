"""Tests of the benchmark's own arithmetic.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from benchlib import (  # noqa: E402
    MAX_DIGITS,
    Outcomes,
    Tracer,
    classify_failure,
    correct_digits,
    is_wrong,
    merge_aggregates,
    pass_summary,
    percentile,
    run_summary,
    spread_summary,
    worse_share,
)
from layers import per_layer_metrics  # noqa: E402
from workloads import CELLS, working_set  # noqa: E402


class PackageError(Exception):
    """Stands in for the package's typed error base class."""


class DomainProblem(PackageError):
    pass


def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(1, 101)]  # 1..100, shuffled order is irrelevant
    assert percentile(list(reversed(values)), 50.0) == pytest.approx(50.5)
    assert percentile(values, 99.0) == pytest.approx(99.01)
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 100.0) == 100.0
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_pass_percentiles_and_their_sample_count():
    done, busy, p50, p99 = pass_summary(999, 0.5, [1e-6 * (i + 1) for i in range(999)])
    assert (done, busy) == (999, 0.5)
    assert p50 == pytest.approx(500e-6)
    assert p99 == pytest.approx(989.02e-6)
    assert pass_summary(0, 0.1, []) == (0, 0.1, None, None)
    summary = run_summary([pass_summary(999, 0.5, [1e-6 * (i + 1) for i in range(999)])])
    assert summary["latency"]["samples"] == 999
    assert summary["latency"]["p99_resolved"] is False  # fewer than ten ops beyond p99
    summary = run_summary([pass_summary(500, 1.0, [1e-6] * 500)] * 2)
    assert summary["latency"]["samples"] == 1000
    assert summary["latency"]["p99_resolved"] is True
    assert summary["latency"]["p99_us"] == pytest.approx(1.0)
    three = run_summary([pass_summary(3, 3.0, [0.5, 0.5, 2.0])] * 400)
    assert three["latency"]["p99_resolved"] is False  # p99 of 3 is about the slowest


def test_run_summary_takes_medians_over_passes():
    fast = pass_summary(100, 1.0, [0.01] * 100)
    slow = pass_summary(100, 4.0, [0.04] * 100)  # a slow spell: 4x
    failed = pass_summary(0, 0.0, [])  # every op of the pass failed untimed
    summary = run_summary([fast, slow, fast, failed, fast])
    assert summary["passes"] == 5
    assert summary["ops_per_s"] == 100.0
    assert summary["latency"]["p50_us"] == pytest.approx(1e4)
    assert summary["latency"]["p99_us"] == pytest.approx(1e4)
    assert summary["latency"]["samples"] == 400
    assert run_summary([failed])["latency"] is None


def test_spread_is_quartile_distance_over_median():
    stats = spread_summary([float(v) for v in range(10, 0, -1)])  # 1..10
    assert stats["median"] == 5.5
    assert (stats["q1"], stats["q3"]) == (2.75, 8.25)  # quantiles(n=4), exclusive
    assert stats["spread"] == pytest.approx(1.0)
    assert spread_summary([3.0, 3.0, 3.0])["spread"] == 0.0
    single = spread_summary([2.0])
    assert single["median"] == 2.0 and single["spread"] is None


def test_worse_share_follows_the_better_direction():
    assert worse_share(100.0, 120.0, "lower") == pytest.approx(0.2)
    assert worse_share(100.0, 80.0, "lower") == pytest.approx(-0.2)
    assert worse_share(100.0, 80.0, "higher") == pytest.approx(0.2)
    assert worse_share(100.0, 125.0, "higher") == pytest.approx(-0.25)


def test_self_time_of_nested_spans():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    outer, a, b, c = (tracer.name_id(n) for n in ("outer", "a", "b", "c"))
    i_outer = tracer.open(outer)
    i_a = tracer.open(a)
    i_b = tracer.open(b)
    tracer.close(i_b)
    tracer.close(i_a)
    i_c = tracer.open(c)
    tracer.close(i_c)
    tracer.close(i_outer)
    assert tracer.self_times() == [3.0, 2.0, 1.0, 4.0]
    spans = tracer.aggregate()["spans"]
    assert spans["outer"] == {"n": 1, "total": 10.0, "self": 3.0}
    assert spans["a"]["self"] == 2.0
    assert sum(row["self"] for row in spans.values()) == 10.0  # never above the wall


def test_recursive_span_total_counts_the_outer_call_once():
    ticks = iter([0.0, 1.0, 2.0, 5.0])
    tracer = Tracer(clock=lambda: next(ticks))
    g = tracer.name_id("g")
    i0 = tracer.open(g)
    i1 = tracer.open(g)
    tracer.close(i1)
    tracer.close(i0)
    assert tracer.aggregate()["spans"]["g"] == {"n": 2, "total": 5.0, "self": 5.0}


def test_failure_classification_typed_and_untyped():
    assert classify_failure(DomainProblem("x"), PackageError) == "typed"
    assert classify_failure(ZeroDivisionError("x"), PackageError) == "untyped"
    outcomes = Outcomes(PackageError)
    outcomes.failure(DomainProblem("edge"), "nu=1")
    outcomes.failure(ZeroDivisionError("division"), "nu=5")
    outcomes.failure(ZeroDivisionError("division"), "nu=6")
    outcomes.completed([(1.0, 1.0, None, "nu=0")])
    summary = outcomes.summary()
    assert summary["attempted"] == 4
    assert summary["typed_failures"] == 1
    assert summary["untyped_failures"] == 2
    assert summary["fail_ratio"] == 0.75
    assert summary["untyped_fail_ratio"] == 0.5
    assert summary["failures_by_class"]["ZeroDivisionError"] == [2, "nu=5"]


def test_accuracy_digits_clamp_at_zero_and_sixteen():
    assert correct_digits(0.0) == MAX_DIGITS == 16.0
    assert correct_digits(1e-20) == 16.0
    assert correct_digits(1e-8) == pytest.approx(8.0)
    assert correct_digits(1.0) == 0.0  # off by 100%
    assert correct_digits(1e15) == 0.0
    assert correct_digits(math.nan) == 0.0
    assert correct_digits(math.inf) == 0.0


def test_wrong_means_beyond_tolerance_and_own_estimate():
    assert not is_wrong(1e-9, None)
    assert is_wrong(1e-6, None)
    assert not is_wrong(0.5, 10.0)  # loud: the estimate admits the error
    assert is_wrong(1e-6, 1e-12)
    outcomes = Outcomes(PackageError)
    outcomes.completed([(2.0, 1.0, 10.0, "loud"), (1.0, 1.0, 0.0, "exact")])
    outcomes.completed([(1.001, 1.0, 1e-15, "quiet")])
    outcomes.completed([(1.0, None, None, "no reference")])
    summary = outcomes.summary()
    assert summary["wrong_ops"] == 1
    assert summary["accuracy_digits"] == 0.0
    assert summary["est_violation_ratio"] == pytest.approx(1 / 3)
    assert summary["unchecked_outputs"] == 1


def test_per_layer_metrics_mark_missing_targets_absent():
    agg = merge_aggregates([{
        "spans": {"gammafn.gamma_real": {"n": 10, "total": 2.0, "self": 2.0}},
        "tags": {},
        "counters": {"max.kelvin_cancel_ratio": 3.0},
        "installed": ["gammafn.gamma_real"],
        "unreadable": [],
    }])
    trace = {"overhead_ratio": 1.5, "wall_s": 4.0, "ops": 20, "passes": 2}
    metrics, absent = per_layer_metrics(agg, trace)
    assert metrics["gammafn.calls"] == (5.0, "count")  # per pass
    assert metrics["gammafn.self_s"] == (1.0, "s")
    assert "gammafn.calls" not in absent
    assert "modified.cf_calls" in absent and metrics["modified.cf_calls"][0] == 0.0
    assert metrics["trace.overhead_ratio"] == (1.5, "ratio")


@pytest.mark.parametrize("workload", ["sweep", "highfreq", "creep"])
def test_working_set_is_seeded_and_apart_from_the_edge_set(workload):
    cells = CELLS[workload]()
    timed = working_set(workload, 7)
    edge = working_set(workload, 7, edge=True)
    assert timed == working_set(workload, 7)
    assert timed != working_set(workload, 8)
    assert len(timed) == sum(c.take for c in cells if not c.edge)
    assert len(edge) == sum(c.take for c in cells if c.edge)
    edge_keys = {c.key for c in cells if c.edge}
    assert not any(row["cell"] in edge_keys for row in timed)
    assert all(row["cell"] in edge_keys for row in edge)
