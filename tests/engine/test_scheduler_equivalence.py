"""Golden readiness: the incremental frontier vs the seed resolver.

The incremental readiness engine is a pure optimisation: every scheduling
round it must hand out exactly the frontier the seed's recompute-everything
walk would (``tests/engine/reference_readiness.py``), by task key and in
order, under no failures and under concurrent revocations alike.  Any
divergence means a readiness decision was served stale.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import build_engine_context
from repro.core.ftmanager import FaultToleranceManager
from repro.engine.scheduler import TaskScheduler
from repro.simulation.clock import HOUR
from repro.workloads import ALSWorkload, KMeansWorkload, PageRankWorkload
from tests.engine.reference_readiness import FrontierCheck

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
    """One measured run; returns (runtime, result, stats)."""
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
    return runtime, result, ctx.scheduler.stats


def _scenarios(name):
    """Run ``name`` at 0, 1 and 5 revocations landed mid-job."""
    factory = WORKLOADS[name]
    base_runtime, base_result, _ = _run(factory, 0, None)
    runs = []
    for failures in (1, 5):
        runs.append(_run(factory, failures, base_runtime * 0.5))
    return base_result, runs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_frontier_matches_reference(readiness_oracle, name):
    base_result, runs = _scenarios(name)
    for _runtime, result, stats in runs:
        # Recomputing the lost lineage reproduces the failure-free answer.
        assert result == base_result
        # The optimisation must actually be engaged.
        assert stats.resolve_cache_hits > 0
        assert stats.readiness_rebuilds <= stats.scheduling_rounds


def test_oracle_flags_a_stale_frontier(monkeypatch):
    """Mutant check: deaf to checkpoint events, the frontier goes stale.

    With the checkpoint listener a no-op, a partition whose checkpoint
    lands keeps its cached answer, so once revocations drop the shuffle
    outputs the incremental frontier asks for map tasks the seed walk,
    reading the checkpoint, no longer needs.
    """
    monkeypatch.setattr(
        TaskScheduler, "_on_checkpoint_event", lambda self, *event: None
    )
    check = FrontierCheck(monkeypatch)
    _scenarios("pagerank")
    assert check.rounds > 0
    assert check.mismatches
