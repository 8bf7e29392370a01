"""KMeans workload: clustering quality, caching, and its batch kernels."""

import pytest

from repro.engine.columnar import ColumnarUnsupported, from_records
from repro.workloads.kmeans import (
    KMeansWorkload,
    _add_vectors,
    _assign_batch,
    _closest,
    _combine_batch,
)
from tests.conftest import build_on_demand_context


def small_kmeans(ctx, iterations=3):
    return KMeansWorkload(
        ctx, data_gb=0.2, num_points=800, k=4, dim=4,
        partitions=4, iterations=iterations, seed=11,
    )


def test_helpers():
    assert _closest((0.0, 0.0), [(5.0, 5.0), (0.1, 0.1)]) == 1
    assert _add_vectors((1.0, 2.0), (3.0, 4.0)) == (4.0, 6.0)


def test_assign_batch_matches_closest_on_ties_and_infinities():
    inf = float("inf")
    centroids = [(1.0, 1.0), (-1.0, -1.0), (0.0, 2.0), (1e200, 0.0)]
    points = [
        (0.0, 0.0),  # equidistant from centroids 0 and 1: the first wins
        (0.0, 1.0),  # tie between 0 and 2
        (1e200, 1e200),  # every squared distance overflows to inf
        (-inf, 0.0),  # inf distances everywhere but the finite centroid ties
        (3.0, -0.0),
    ]
    batch = _assign_batch(from_records(points), centroids)
    expected = [(_closest(p, centroids), (p, 1)) for p in points]
    assert batch.to_records() == expected
    assert [cluster for cluster, _ in expected][:3] == [0, 0, 0]


def test_assign_batch_refuses_nan_distances():
    # inf - inf is NaN: _closest skips that centroid, argmin would pick it.
    points = [(float("inf"), 0.0)]
    with pytest.raises(ColumnarUnsupported):
        _assign_batch(from_records(points), [(float("inf"), 0.0), (0.0, 0.0)])


def test_combine_batch_matches_the_record_loop():
    centroids = [(0.0, 0.0), (5.0, 5.0), (-5.0, 5.0)]
    points = [(0.1 * i, 5.0 - 0.3 * i) for i in range(40)] + [(-4.9, 5.1), (-0.0, -0.0)]
    batch = _assign_batch(from_records(points), centroids)
    combined = {}
    for key, value in batch.to_records():
        prev = combined.get(key)
        combined[key] = value if prev is None else (
            _add_vectors(prev[0], value[0]), prev[1] + value[1]
        )
    assert repr(_combine_batch(batch, 2)) == repr(list(combined.items()))


def test_load_caches_points():
    ctx = build_on_demand_context(2)
    km = small_kmeans(ctx)
    points = km.load()
    assert points.persisted
    assert ctx.cached_partition_count(points) == 4


def test_returns_k_centroids():
    ctx = build_on_demand_context(2)
    km = small_kmeans(ctx)
    centroids = km.run()
    assert len(centroids) == 4
    assert all(len(c) == 4 for c in centroids)


def test_iterations_reduce_cost():
    ctx = build_on_demand_context(2)
    km = small_kmeans(ctx)
    km.load()
    one = km.cost(km.run(iterations=1))
    many = km.cost(km.run(iterations=5))
    assert many <= one * 1.01


def test_deterministic():
    a = small_kmeans(build_on_demand_context(2)).run()
    b = small_kmeans(build_on_demand_context(2)).run()
    assert a == b


def test_distance_cost_multiplier_slows_iterations():
    slow_ctx = build_on_demand_context(2)
    fast_ctx = build_on_demand_context(2)
    slow = KMeansWorkload(slow_ctx, data_gb=0.5, num_points=800, k=4, dim=4,
                          partitions=4, distance_cost=10.0, seed=11)
    fast = KMeansWorkload(fast_ctx, data_gb=0.5, num_points=800, k=4, dim=4,
                          partitions=4, distance_cost=1.0, seed=11)
    slow.load(); fast.load()
    t0 = slow_ctx.now
    slow.run(iterations=1)
    slow_dt = slow_ctx.now - t0
    t0 = fast_ctx.now
    fast.run(iterations=1)
    fast_dt = fast_ctx.now - t0
    assert slow_dt > fast_dt * 2
