"""Fused narrow-chain execution: engagement, boundaries, and sizing memo.

These tests drive synthetic multi-operator chains (the paper workloads'
narrow stages are all single-operator, so fusion is a no-op there) and pin
down every pipeline-breaker the fusion walk must respect: persisted or
cached partitions, checkpointed parents, shuffle inputs, and shared
(multi-dependent) nodes.
"""

from __future__ import annotations

import pytest

from tests.conftest import build_on_demand_context


@pytest.fixture
def planes(unfused):
    """Run a scenario on the fused plane and on the per-RDD reference.

    ``planes(scenario)`` calls ``scenario(ctx)`` on a fresh context per
    plane, asserts both return the same outcome, and returns the fused
    run's scheduler stats.
    """

    def run(scenario):
        fused = build_on_demand_context(4)
        outcome = scenario(fused)
        reference = build_on_demand_context(4)
        with unfused():
            assert scenario(reference) == outcome
        assert reference.scheduler.stats.fused_chains == 0
        return fused.scheduler.stats

    return run


def _chain(ctx):
    base = ctx.parallelize(list(range(200)), 4, record_size=100)
    return (
        base.map(lambda x: x + 1)
        .filter(lambda x: x % 2 == 0)
        .map(lambda x: (x % 7, x))
    )


def test_multi_op_chain_fuses_and_matches(planes):
    def scenario(ctx):
        t0 = ctx.now
        return _chain(ctx).collect(), ctx.now - t0

    stats = planes(scenario)
    # One fused pass per partition, covering all three chained operators.
    assert stats.fused_chains == 4
    assert stats.fused_stages == 12


def test_persisted_mid_chain_is_boundary_until_unpersisted(planes):
    def scenario(ctx):
        base = ctx.parallelize(list(range(120)), 4, record_size=100)
        mid = base.map(lambda x: x * 2).map(lambda x: x + 3).persist()
        head = mid.map(lambda x: (x % 5, x)).filter(lambda kv: kv[0] != 1)
        first = head.collect()
        # The persisted node must actually materialise into the cache —
        # fusing through it would starve every later consumer.
        assert ctx.cached_partition_count(mid) == 4
        second = head.collect()
        mid.unpersist()
        assert ctx.cached_partition_count(mid) == 0
        third = head.collect()
        return first, second, third, ctx.now

    stats = planes(scenario)
    chains = stats.fused_chains
    stages = stats.fused_stages
    # While mid is persisted the chain breaks there: run 1 fuses the head's
    # two operators and mid's own two on first materialisation; run 2 fuses
    # only the head again (mid now served from cache).  After unpersist,
    # run 3 streams all four operators in one pass from the source.
    assert chains == (4 + 4) + 4 + 4
    assert stages == (4 * 2 + 4 * 2) + 4 * 2 + 4 * 4


def test_checkpointed_parent_is_boundary(planes):
    def scenario(ctx):
        base = ctx.parallelize(list(range(80)), 2, record_size=100)
        mid = base.map(lambda x: x + 10).map(lambda x: x * 3)
        mid.persist().checkpoint()
        mid.count()
        ctx.env.run_until(ctx.now + 60)  # let async checkpoint writes land
        assert ctx.checkpoints.is_fully_checkpointed(mid)
        # Drop the cache so the next read must come from the checkpoint,
        # not from a re-fused recompute of mid's lineage.
        mid.unpersist()
        head = mid.map(lambda x: x - 1).map(lambda x: (x % 4, x))
        return head.collect(), ctx.now

    stats = planes(scenario)
    # The second action fuses only head's two operators; the checkpointed
    # parent resolves through the registry (2 partitions, 2-stage chains).
    assert stats.fused_stages == 2 * 2 + 2 * 2


def test_union_chain_fuses_through_range_dependency(planes):
    def scenario(ctx):
        left = ctx.parallelize(list(range(60)), 2, record_size=100).map(
            lambda x: x * 2
        )
        right = ctx.parallelize(list(range(60, 120)), 2, record_size=100).map(
            lambda x: x * 5
        )
        merged = left.union(right).map(lambda x: x + 1).filter(lambda x: x % 3 != 0)
        return merged.collect(), ctx.now

    stats = planes(scenario)
    # Each union output partition covers exactly one parent partition, so
    # the chain fuses across the union into the contributing side:
    # filter -> map -> union -> side map = 4 stages on all 4 partitions.
    assert stats.fused_chains == 4
    assert stats.fused_stages == 16


def test_shared_node_is_boundary(planes):
    """A node with two dependants must memoise, not re-stream per consumer."""

    def scenario(ctx):
        base = ctx.parallelize(list(range(40)), 2, record_size=100)
        shared = base.map(lambda x: x + 1).map(lambda x: x * 2)
        combined = shared.map(lambda x: x + 100).union(shared.map(lambda x: -x))
        return sorted(combined.collect()), ctx.now

    planes(scenario)


def test_record_size_memo_counters():
    ctx = build_on_demand_context(2)
    base = ctx.parallelize(list(range(10)), 2, record_size=96)
    tail = base.map(lambda x: x).map(lambda x: x).map(lambda x: x)
    hits0, misses0 = ctx.record_size_memo_hits, ctx.record_size_memo_misses
    assert tail.record_size == 96
    misses_after_walk = ctx.record_size_memo_misses
    assert misses_after_walk > misses0  # first consult walks the lineage
    assert tail.record_size == 96
    assert ctx.record_size_memo_hits > hits0  # second consult is a dict read
    assert ctx.record_size_memo_misses == misses_after_walk
    # A new hint bumps the sizing epoch: stale memoised answers must not
    # survive, and the chain re-inherits the new value.
    base.set_record_size(64)
    assert tail.record_size == 64


def test_set_record_size_mid_chain_invalidates_descendants():
    ctx = build_on_demand_context(2)
    base = ctx.parallelize(list(range(10)), 2, record_size=50)
    mid = base.map(lambda x: x)
    tail = mid.map(lambda x: x)
    assert tail.record_size == 50
    mid.set_record_size(200)
    assert tail.record_size == 200
    assert base.record_size == 50  # ancestors keep their own hint
