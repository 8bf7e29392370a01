"""Tests of the benchmark's own arithmetic and tracing.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import bench_trace  # noqa: E402
from bench_stats import (  # noqa: E402
    aggregate_counters,
    backlog_at,
    backlog_grows,
    counter_delta,
    max_sustained_rate,
    nearest_rank,
    ratio,
    samples_beyond,
    span_self_times,
)


# -- percentiles ---------------------------------------------------------
def test_nearest_rank_takes_the_ceiling_rank():
    values = list(range(1, 101))
    assert nearest_rank(values, 0.99) == 99
    assert nearest_rank(values, 0.50) == 50
    assert nearest_rank(values, 0.001) == 1
    assert nearest_rank(values, 1.0) == 100
    # ceil(0.5 * 3) = 2: the second smallest, not an interpolation.
    assert nearest_rank([30.0, 10.0, 20.0], 0.5) == 20.0
    # 0.29 * 1000 is 289.99999999999994 in binary; the rank is still 290.
    assert nearest_rank(list(range(1, 1001)), 0.29) == 290


def test_nearest_rank_edges():
    assert nearest_rank([], 0.5) is None
    assert nearest_rank([7.0], 0.99) == 7.0
    for bad in (0.0, -0.1, 1.01):
        with pytest.raises(ValueError):
            nearest_rank([1.0], bad)


def test_nearest_rank_agrees_with_the_job_server():
    from repro.server.jobserver import percentile

    rng = random.Random(5)
    for _ in range(200):
        values = [rng.random() for _ in range(rng.randint(1, 300))]
        q = rng.randint(1, 1000) / 1000
        assert nearest_rank(values, q) == percentile(values, q)


def test_samples_beyond_counts_values_above_the_rank():
    assert samples_beyond(1000, 0.99) == 10
    assert samples_beyond(100, 0.99) == 1
    assert samples_beyond(0, 0.99) == 0
    assert samples_beyond(5, 1.0) == 0


# -- ratios ------------------------------------------------------
def test_ratio_has_zero_for_an_empty_base():
    assert ratio(3, 4) == 0.75
    assert ratio(0, 0) == 0.0
    assert ratio(5, 0) == 0.0


# -- the open-loop rule ----------------------------------------------------------
def _point(rate, p99, rejected=0, growing=False):
    return {"rate": rate, "p99": p99, "rejected": rejected, "growing": growing}


def test_max_sustained_rate_takes_the_highest_rate_meeting_every_condition():
    points = [
        _point(6, 0.3), _point(8, 0.5), _point(10, 1.7),
        _point(12, 25.0, growing=True), _point(16, 46.0, rejected=979),
    ]
    assert max_sustained_rate(points, 1.0) == 8
    # Exactly at the limit passes.
    assert max_sustained_rate([_point(5, 1.0)], 1.0) == 5


def test_max_sustained_rate_disqualifies_rejections_and_growing_backlogs():
    assert max_sustained_rate([_point(4, 0.2), _point(8, 0.4, rejected=1)], 1.0) == 4
    assert max_sustained_rate([_point(4, 0.2), _point(8, 0.4, growing=True)], 1.0) == 4
    assert max_sustained_rate([_point(4, None)], 1.0) == 0.0
    assert max_sustained_rate([], 1.0) == 0.0
    # A failing lower rate does not hide a passing higher one.
    assert max_sustained_rate([_point(4, 2.0), _point(8, 0.4)], 1.0) == 8


def test_backlog_counts_requests_in_the_system():
    intervals = [(0.0, 1.0), (0.5, 3.0), (2.0, 2.5), (2.9, 10.0)]
    assert backlog_at(intervals, 0.0) == 1
    assert backlog_at(intervals, 1.0) == 1  # the first finished at 1.0
    assert backlog_at(intervals, 2.95) == 2
    assert backlog_at(intervals, 10.0) == 0
    assert not backlog_grows(mid=3, end=11, slack=8)
    assert backlog_grows(mid=3, end=12, slack=8)
    assert not backlog_grows(mid=40, end=2, slack=8)


# -- generic counter aggregation --------------------------------------------------
def test_aggregate_counters_sums_every_field_and_maxes_peaks():
    snaps = [
        {"tasks_completed": 10, "ready_queue_peak": 4, "task_time_total": 1.5,
         "record_size_memo_hits": 3, "name": "x", "flag": True},
        {"tasks_completed": 5, "ready_queue_peak": 9, "record_size_memo_misses": 2},
    ]
    total = aggregate_counters(snaps)
    assert total == {
        "tasks_completed": 15, "ready_queue_peak": 9, "task_time_total": 1.5,
        "record_size_memo_hits": 3, "record_size_memo_misses": 2,
    }


def test_aggregate_counters_covers_every_scheduler_stats_field():
    from repro.engine.scheduler import SchedulerStats

    a = SchedulerStats(tasks_completed=3, ready_queue_peak=7, columnar_chains=2)
    b = SchedulerStats(tasks_completed=4, ready_queue_peak=5, columnar_fallbacks=1)
    total = aggregate_counters([dataclasses.asdict(a), dataclasses.asdict(b)])
    assert set(total) == {f.name for f in dataclasses.fields(SchedulerStats)}
    assert total["tasks_completed"] == 7
    assert total["ready_queue_peak"] == 7
    assert total["columnar_chains"] == 2 and total["columnar_fallbacks"] == 1


def test_counter_delta_counts_since_the_snapshot_and_keeps_peaks():
    before = {"tasks_completed": 4, "ready_queue_peak": 6, "name": "x"}
    after = {"tasks_completed": 10, "ready_queue_peak": 6, "jobs_submitted": 2,
             "name": "x", "flag": True}
    assert counter_delta(after, before) == {
        "tasks_completed": 6, "ready_queue_peak": 6, "jobs_submitted": 2,
    }


def test_counters_cover_the_timed_part_only():
    """Set-up's load job (one task per partition in every context) is not
    counted: the timed task count is each context's total less those."""
    import run
    from bench_workloads import WORKLOADS

    workload = WORKLOADS["kmeans-checkpoint"]()
    workload.ITERATIONS = 1
    workload.scenarios = workload.scenarios[:2]
    evaluation = run.repeat(workload, 3, run.Calibration()).evaluation
    totals = sum(evaluation.sim[s.label]["tasks"] for s in workload.scenarios)
    load_tasks = workload.PARTITIONS * len(workload.scenarios)
    assert evaluation.counters["tasks_completed"] == totals - load_tasks
    assert evaluation.counters["jobs_submitted"] > 0


# -- self time ---------------------------------------------------------------------
def test_self_time_of_nested_spans():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),    # child
        (2.0, 3.0, 1),    # grandchild
        (5.0, 6.0, 0),    # second child
    ]
    selfs = span_self_times(spans)
    assert selfs == [6.0, 2.0, 1.0, 1.0]
    assert sum(selfs) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 8.0, 0), (4.0, 4.5, 0)]
    assert span_self_times(spans)[0] == pytest.approx(3.0)  # covered: [1, 8]


def test_self_time_ignores_what_children_cover_outside_the_parent():
    spans = [(2.0, 10.0, -1), (0.0, 3.0, 0), (8.0, 12.0, 0)]
    assert span_self_times(spans)[0] == pytest.approx(5.0)  # covered: [2,3] + [8,10]


def test_tracer_attributes_every_second_of_a_small_job_and_restores_the_program():
    from repro.analysis.experiments import build_engine_context
    from repro.engine.scheduler import TaskRuntime

    original = vars(TaskRuntime)["iterator"]
    ctx = build_engine_context(num_workers=2)
    rdd = ctx.parallelize([(i % 5, i) for i in range(200)], 4, record_size=1000)
    tracer = bench_trace.Tracer()
    tracer.install()
    close = tracer.root("test")
    try:
        result = dict(rdd.reduce_by_key(lambda a, b: a + b).collect())
    finally:
        close()
        tracer.uninstall()
    assert vars(TaskRuntime)["iterator"] is original
    assert result == {k: sum(i for i in range(200) if i % 5 == k) for k in range(5)}
    summary = tracer.layer_summary()
    covered = sum(summary[layer]["self_s"] for layer in bench_trace.LAYERS)
    assert covered == pytest.approx(summary["_root_s"], rel=1e-9)
    metrics = bench_trace.layer_metrics(summary, {})
    assert metrics["engine.task.calls"][0] > 0
    assert metrics["engine.shuffle.map_outputs"][0] == 4
    assert metrics["simulation.events"][0] > 0
    assert all(s[4] >= 0 for s in tracer.spans[1:]), "every span hangs off the root"


# -- the workloads' own references ------------------------------------------------------
def test_lloyd_reference_moves_centroids_to_cluster_means():
    from bench_workloads import lloyd_reference

    points = np.array([[0.0], [1.0], [10.0], [11.0]])
    out = lloyd_reference(points, np.array([[0.0], [10.0], [100.0]]), 3)
    # The third centroid never wins a point and keeps its position.
    assert out.tolist() == [[0.5], [10.5], [100.0]]


# -- BENCHMARK.json matches what the command reports -----------------------------------
def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_the_metrics_the_command_prints():
    import run
    from bench_workloads import WORKLOADS

    bench = _benchmark()
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    summary = {layer: {"self_s": 0.0, "spans": 0} for layer in bench_trace.LAYERS}
    summary.update(_by_name={}, _root_s=1.0)
    produced = {k: u for k, (_v, u) in bench_trace.layer_metrics(summary, {}).items()}
    produced.update({"trace.attributed_frac": "frac", "trace.overhead_frac": "frac"})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == produced


def test_benchmark_json_bounds():
    bench = _benchmark()
    for metric in bench["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert math.isclose(setup["bound"], 0.25)
