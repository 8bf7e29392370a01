"""KMeans clustering (§5.1): the compute-intensive workload.

Spark mllib's DenseKMeans over a 16GB random dataset: a cached points RDD,
and per iteration a narrow distance-computation map followed by one small
shuffle (reduceByKey over k keys).  Because the expensive state is a single
cached *source-derived* RDD, KMeans has the flattest lineage of the three
batch workloads and the lowest checkpointing tax (Figure 6a).
"""

from __future__ import annotations

import operator
from typing import List, Optional, Tuple

import numpy as np

from repro.engine.columnar import ColumnarBatch, ColumnarUnsupported, sum_by_key
from repro.engine.context import FlintContext
from repro.engine.rdd import RDD
from repro.workloads.datagen import generate_clustered_points, initial_centroids

GB = 10**9


def _closest(point: Tuple[float, ...], centroids: List[Tuple[float, ...]]) -> int:
    # Explicit accumulation instead of sum(<genexpr>): identical float
    # operation order (left-to-right from 0), a third of the interpreter
    # overhead in the benchmark's hottest data-plane loop.
    best, best_d = 0, float("inf")
    for i, c in enumerate(centroids):
        d = 0.0
        for p, q in zip(point, c):
            diff = p - q
            d += diff * diff
            if d >= best_d:
                # Early exit is exact: terms are non-negative and float
                # addition is monotone, so the full sum can only be >= the
                # partial one — this centroid can no longer win (ties keep
                # the earlier index either way).
                break
        if d < best_d:
            best, best_d = i, d
    return best


def _add_vectors(a: Tuple[float, ...], b: Tuple[float, ...]) -> Tuple[float, ...]:
    return tuple(map(operator.add, a, b))


def _assigned_schema(dim: int):
    """Schema of the assignment map's ``(cluster, (point, 1))`` records."""
    return ("tuple", ("i8", ("tuple", (("tuple", ("f8",) * dim), "i8"))))


def _assign_batch(batch: ColumnarBatch, centroids: List[Tuple[float, ...]]) -> ColumnarBatch:
    """Columnar twin of the per-record ``_closest`` assignment map.

    Builds the squared-distance matrix (held as k rows of n) one dimension
    at a time, so every element accumulates left to right from 0.0
    exactly as ``_closest`` does (its early exit never changes the answer:
    the full sum only grows).  ``argmin`` takes the first minimum, which
    is ``_closest``'s strict ``<`` tie rule, all-``inf`` columns included.
    A NaN distance is refused: ``_closest`` skips it, ``argmin`` would
    pick it.
    """
    dim = len(centroids[0])
    cols = batch.require(("tuple", ("f8",) * dim))
    n = len(batch)
    by_dim = np.array(centroids, dtype=np.float64).T.copy()
    dist = np.zeros((len(centroids), n))
    diff = np.empty_like(dist)
    # Overflow to inf and inf - inf are silent on the row plane too.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(dim):
            np.subtract(cols[j], by_dim[j][:, None], out=diff)
            np.multiply(diff, diff, out=diff)
            dist += diff
    if np.isnan(dist.min()):  # min propagates NaN
        raise ColumnarUnsupported("NaN distance")
    best = dist.argmin(axis=0).astype(np.int64, copy=False)
    counts = np.ones(n, dtype=np.int64)
    return ColumnarBatch(_assigned_schema(dim), (best, (cols, counts)), n)


def _combine_batch(
    batch: ColumnarBatch, dim: int
) -> List[Tuple[int, Tuple[Tuple[float, ...], int]]]:
    """Columnar twin of the map-side combine of the assignment records.

    The ``(cluster, (vector sum, count))`` items the record loop builds
    with ``_add_vectors`` and ``+``, in first-occurrence cluster order:
    :func:`sum_by_key` adds each cluster's coordinates and counts in the
    same left-to-right order.
    """
    best, (cols, counts) = batch.require(_assigned_schema(dim))
    keys, sums = sum_by_key(best, (*cols, counts))
    vectors = zip(*(col.tolist() for col in sums[:dim]))
    return list(zip(keys.tolist(), zip(vectors, sums[dim].tolist())))


class KMeansWorkload:
    """Lloyd's algorithm over cached points.

    Args:
        data_gb: virtual dataset size (paper: 16GB).
        num_points: real point count.
        k: cluster count.
        dim: point dimensionality.
        distance_cost: compute multiplier of the assignment map — models the
            k distance evaluations per point that make KMeans CPU-bound.
    """

    def __init__(
        self,
        ctx: FlintContext,
        data_gb: float = 16.0,
        num_points: int = 24_000,
        k: int = 10,
        dim: int = 8,
        partitions: Optional[int] = None,
        iterations: int = 8,
        distance_cost: float = 6.0,
        source_cost: float = 5.0,
        seed: int = 23,
    ):
        self.ctx = ctx
        self.k = k
        self.dim = dim
        self.iterations = iterations
        self.partitions = partitions or max(8, ctx.default_parallelism)
        self.num_points = num_points
        self.distance_cost = distance_cost
        # Re-materialising points means re-fetching and re-parsing the raw
        # dataset from object storage - much slower than streaming memory.
        self.source_cost = source_cost
        self.seed = seed
        self.point_record_size = max(1, int(data_gb * GB / num_points))
        self.points: Optional[RDD] = None

    def load(self) -> RDD:
        """Build and cache the points RDD."""
        per_part = self.num_points // self.partitions
        self.points = self.ctx.generate(
            lambda p: generate_clustered_points(self.seed, p, per_part, self.k, self.dim),
            self.partitions,
            record_size=self.point_record_size,
            compute_multiplier=self.source_cost,
            name="points",
        ).persist()
        self.points.count()
        return self.points

    def run(self, iterations: Optional[int] = None) -> List[Tuple[float, ...]]:
        """Run Lloyd iterations; returns the final centroids."""
        if self.points is None:
            self.load()
        points = self.points
        centroids = initial_centroids(self.seed, self.k, self.dim)
        iters = iterations or self.iterations
        for _ in range(iters):
            frozen = list(centroids)
            stats = (
                points.map(
                    lambda p, cs=frozen: (_closest(p, cs), (p, 1)),
                    compute_multiplier=self.distance_cost,
                    batch_fn=lambda batch, cs=frozen: _assign_batch(batch, cs),
                )
                .reduce_by_key(
                    lambda a, b: (_add_vectors(a[0], b[0]), a[1] + b[1]),
                    min(self.partitions, self.k),
                    batch_fn=lambda batch, dim=self.dim: _combine_batch(batch, dim),
                )
            )
            totals = stats.collect()
            new_centroids = list(centroids)
            for idx, (vec_sum, count) in totals:
                new_centroids[idx] = tuple(x / count for x in vec_sum)
            centroids = new_centroids
        return centroids

    def cost(self, centroids: List[Tuple[float, ...]]) -> float:
        """Within-cluster sum of squared distances (quality metric)."""
        if self.points is None:
            self.load()

        def partition_cost(records):
            total = 0.0
            for p in records:
                c = centroids[_closest(p, centroids)]
                total += sum((x - y) * (x - y) for x, y in zip(p, c))
            return total

        return float(sum(self.ctx.run_job(self.points, partition_cost)))
