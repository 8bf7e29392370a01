"""Golden equivalence: fused data plane vs the seed's per-RDD recursion.

The engine collapses narrow ``compute`` chains into single streamed
passes.  Fusion is a pure data-plane optimisation: at identical seeds it
must reproduce the per-RDD recursion (the ``unfused`` fixture's reference
plane) bit-for-bit — same simulated runtimes, same action results, same
task counts, same accrued billing — under no failures and under concurrent
revocations alike, across the batch, streaming, and multi-tenant workloads.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import build_engine_context
from repro.core.ftmanager import FaultToleranceManager
from repro.simulation.clock import HOUR
from repro.workloads import ALSWorkload, KMeansWorkload, PageRankWorkload
from repro.workloads.streaming import StreamingWorkload

_MARKET = "od/r3.large"

WORKLOADS = {
    "pagerank": lambda ctx: PageRankWorkload(
        ctx, data_gb=0.5, num_edges=3_000, num_vertices=600,
        partitions=8, iterations=4, seed=7,
    ),
    "kmeans": lambda ctx: KMeansWorkload(
        ctx, data_gb=0.5, num_points=2_000, k=4, dim=4,
        partitions=8, iterations=4, seed=7,
    ),
    "als": lambda ctx: ALSWorkload(
        ctx, data_gb=0.5, num_ratings=2_000, num_users=300, num_items=120,
        partitions=8, iterations=3, seed=7,
    ),
}


def _run(factory, failures, failure_at):
    """One measured run; returns (runtime, result, task_counts, billing, stats)."""
    ctx = build_engine_context(num_workers=6, seed=0)
    manager = FaultToleranceManager(ctx, lambda: 1 * HOUR, min_tau=30.0)
    manager.start()
    workload = factory(ctx)
    workload.load()
    if failures:

        def inject(event):
            victims = ctx.cluster.live_workers()[:failures]
            ctx.cluster.force_revoke(victims)
            ctx.cluster.launch(_MARKET, 0.175, count=len(victims), delay=120.0)

        ctx.env.schedule_in(failure_at, "inject-failures", callback=inject)
    t0 = ctx.now
    result = workload.run()
    runtime = ctx.now - t0
    manager.stop()
    billing = ctx.env.provider.total_cost(ctx.now)
    stats = ctx.scheduler.stats
    return runtime, result, stats.task_counts(), billing, stats


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_planes_bit_identical(unfused, name):
    factory = WORKLOADS[name]
    with unfused():
        base_runtime, _, _, _, _ = _run(factory, 0, None)
    for failures in (0, 2):
        failure_at = base_runtime * 0.5 if failures else None
        with unfused():
            off = _run(factory, failures, failure_at)
        on = _run(factory, failures, failure_at)
        for label, a, b in zip(
            ("simulated runtime", "result", "task counts", "billing"), off, on
        ):
            assert a == b, f"{name}/{failures}: {label} diverged"
        # The unfused plane must not be silently fusing.
        assert off[4].fused_chains == 0


def test_streaming_bit_identical(unfused):
    """Micro-batch state folding with persist/unpersist cycling per batch."""

    def run(failures):
        ctx = build_engine_context(num_workers=6, seed=0)
        workload = StreamingWorkload(
            ctx, batch_records=1_200, num_keys=50, partitions=8, seed=11
        )
        if failures:

            def inject(event):
                victims = ctx.cluster.live_workers()[:failures]
                ctx.cluster.force_revoke(victims)
                ctx.cluster.launch(_MARKET, 0.175, count=len(victims), delay=120.0)

            ctx.env.schedule_in(150.0, "inject-failures", callback=inject)
        t0 = ctx.now
        result = workload.run(num_batches=5)
        runtime = ctx.now - t0
        return runtime, result, ctx.env.provider.total_cost(ctx.now)

    for failures in (0, 1):
        with unfused():
            reference = run(failures)
        assert run(failures) == reference


def test_multitenant_bit_identical(unfused):
    """Job-server multiplexing: fusion engages on the TPC-H narrow chains."""
    from repro.server.scenario import run_multitenant

    def run():
        report = run_multitenant(policy="fair", num_workers=4, seed=1234, queries=2)
        stats = report.pop("scheduler_stats")
        report.pop("sizing")
        return report, stats

    with unfused():
        off_report, off_stats = run()
    on_report, on_stats = run()
    assert off_report == on_report
    # Fusion must actually engage here (multi-operator narrow chains), and
    # must be fully off on the reference plane.
    assert on_stats["fused_chains"] > 0
    assert off_stats["fused_chains"] == 0
    # The control-plane counters agree: fusion changes how a task computes,
    # never which tasks run.
    for key in ("tasks_completed", "result_tasks", "map_tasks", "scheduling_rounds"):
        assert off_stats[key] == on_stats[key]

