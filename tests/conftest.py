"""Shared fixtures: small deterministic clusters and providers, plus the
test-side reference planes (per-RDD recursion, seed readiness walk)."""

from __future__ import annotations

import contextlib

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.environment import Environment
from repro.engine.context import FlintContext
from repro.market.market import OnDemandMarket, SpotMarket
from repro.market.provider import CloudProvider
from repro.simulation.clock import HOUR
from repro.simulation.rng import SeededRNG
from repro.traces.generators import peaky_trace


def build_on_demand_context(num_workers: int = 4, seed: int = 0):
    """An engine context over non-revocable workers (pure-engine tests)."""
    provider = CloudProvider([OnDemandMarket("od/r3.large", 0.175)])
    env = Environment(provider, seed=seed)
    cluster = Cluster(env)
    ctx = FlintContext(env, cluster)
    cluster.launch("od/r3.large", bid=0.175, count=num_workers)
    return ctx


def build_spot_context(
    num_workers: int = 4, mttf_hours: float = 2.0, seed: int = 0
):
    """A context over one volatile spot market (failure tests).

    Returns ``(ctx, market_id)``.
    """
    rng = SeededRNG(seed, "test-spot")
    trace = peaky_trace(
        rng,
        on_demand_price=0.175,
        spike_rate_per_hour=1.0 / mttf_hours,
        spike_duration_mean=180.0,
        step=60.0,
        horizon=30 * 24 * HOUR,
    )
    provider = CloudProvider(
        [
            SpotMarket("volatile/r3.large", trace, 0.175),
            OnDemandMarket("od/r3.large", 0.175),
        ]
    )
    env = Environment(provider, seed=seed)
    cluster = Cluster(env)
    ctx = FlintContext(env, cluster)
    cluster.launch("volatile/r3.large", bid=0.175, count=num_workers)
    return ctx, "volatile/r3.large"


@pytest.fixture
def ctx():
    """Default 4-worker on-demand context."""
    return build_on_demand_context()


@pytest.fixture
def fault_harness():
    """Run a workload under a fault plan with full invariant checking.

    Yields :func:`repro.faults.run_with_plan`: call it with a workload
    factory and a plan spec; it raises :class:`InvariantViolation` if the
    faulted run diverges from the failure-free reference or breaks any
    engine invariant.
    """
    from repro.faults import run_with_plan

    return run_with_plan


@pytest.fixture
def big_ctx():
    """10-worker on-demand context (paper's cluster size)."""
    return build_on_demand_context(num_workers=10)


@pytest.fixture
def unfused(monkeypatch):
    """Context manager: run tasks on the per-RDD reference plane.

    Inside ``with unfused():`` ``TaskRuntime._compute_fused`` is
    ``rdd.compute(partition, self)``, so every narrow chain recurses
    through ``iterator`` one RDD at a time (and no chain lowers to
    columnar kernels).  The fused and columnar planes must match it
    bit-for-bit.
    """
    from repro.engine.scheduler import TaskRuntime

    @contextlib.contextmanager
    def reference_plane():
        with monkeypatch.context() as patch:
            patch.setattr(
                TaskRuntime, "_compute_fused",
                lambda self, rdd, partition: rdd.compute(partition, self),
            )
            yield

    return reference_plane


@pytest.fixture
def readiness_oracle(monkeypatch):
    """Hold every scheduling round's ready frontier to the seed resolver.

    Yields the :class:`~tests.engine.reference_readiness.FrontierCheck`;
    at teardown the test fails if no round ran or any round's frontier
    differed from ``reference_frontier`` by task key or order.
    """
    from tests.engine.reference_readiness import FrontierCheck

    check = FrontierCheck(monkeypatch)
    yield check
    assert check.rounds, "the readiness oracle saw no scheduling round"
    assert not check.mismatches, (
        f"{len(check.mismatches)} of {check.rounds} rounds diverged from the "
        f"reference frontier; first (job, got, expected): {check.mismatches[0]}"
    )
