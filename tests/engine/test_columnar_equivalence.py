"""Golden equivalence: the columnar plane vs the row plane.

``FLINT_COLUMNAR`` changes only *how* fused chains execute — arrays of
columns through vectorised kernels instead of records through Python
closures.  Everything observable must be bit-identical across columnar
on/off: simulated runtimes, action results, task counts, accrued billing,
and the fusion books.  The columnar runs must also actually lower chains
(the equivalence would be vacuous otherwise).
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import build_engine_context
from repro.core.ftmanager import FaultToleranceManager
from repro.simulation.clock import HOUR
from repro.workloads import KMeansWorkload, PageRankWorkload

_MARKET = "od/r3.large"

# KMeans and PageRank are the workloads with hand-written batch kernels;
# they must lower every iteration's narrow chains (fallbacks stay 0).
WORKLOADS = {
    "pagerank": lambda ctx: PageRankWorkload(
        ctx, data_gb=0.5, num_edges=3_000, num_vertices=600,
        partitions=8, iterations=4, seed=7,
    ),
    "kmeans": lambda ctx: KMeansWorkload(
        ctx, data_gb=0.5, num_points=2_000, k=4, dim=4,
        partitions=8, iterations=4, seed=7,
    ),
}


def _run(monkeypatch, factory, columnar, failures=0, failure_at=None):
    """One measured run; returns (observables, stats)."""
    monkeypatch.setenv("FLINT_COLUMNAR", columnar)
    ctx = build_engine_context(num_workers=6, seed=0)
    assert ctx.columnar_enabled is (columnar == "on")
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
    observables = (runtime, result, stats.task_counts(), billing,
                   stats.fused_chains, stats.fused_stages)
    return observables, stats


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_columnar_plane_bit_identical(monkeypatch, name):
    """Columnar on/off: every observable matches exactly."""
    factory = WORKLOADS[name]
    base, base_stats = _run(monkeypatch, factory, "off")
    for failures in (0, 2):
        failure_at = base[0] * 0.5 if failures else None
        row, row_stats = _run(monkeypatch, factory, "off",
                              failures=failures, failure_at=failure_at)
        col, col_stats = _run(monkeypatch, factory, "on",
                              failures=failures, failure_at=failure_at)
        assert col == row, f"{name}/{failures}: observables diverged"
        assert row_stats.columnar_chains == 0
        assert col_stats.columnar_chains > 0
        assert col_stats.columnar_stages >= col_stats.columnar_chains
        # Both workloads' kernels cover every chain they emit.
        assert col_stats.columnar_fallbacks == 0


def test_columnar_inert_when_fusion_off(monkeypatch, unfused):
    """On the per-RDD reference plane there are no chains to lower."""
    factory = WORKLOADS["pagerank"]
    with unfused():
        row, row_stats = _run(monkeypatch, factory, "off")
        col, col_stats = _run(monkeypatch, factory, "on")
    assert col == row
    assert col_stats.columnar_chains == 0
    assert col_stats.columnar_fallbacks == 0
