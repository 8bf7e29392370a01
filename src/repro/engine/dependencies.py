"""RDD dependencies: the edges of the lineage graph.

Narrow dependencies (each child partition reads a bounded set of parent
partitions) are pipelined within a task; shuffle dependencies are
materialisation barriers that split the lineage into stages, exactly as in
Spark's DAG scheduler.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.engine.partitioner import HashPartitioner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.rdd import RDD

_shuffle_ids = itertools.count()


class Dependency:
    """Base class; holds the parent RDD."""

    def __init__(self, rdd: "RDD"):
        self.rdd = rdd


class NarrowDependency(Dependency):
    """A dependency where child partition ``p`` needs specific parent partitions."""

    def parents_of(self, partition: int) -> List[int]:
        """Parent partition indices required by child partition ``partition``."""
        raise NotImplementedError


class OneToOneDependency(NarrowDependency):
    """Child partition ``p`` reads exactly parent partition ``p`` (map/filter)."""

    def parents_of(self, partition: int) -> List[int]:
        return [partition]


class RangeDependency(NarrowDependency):
    """A contiguous slice mapping, used by union.

    Child partitions ``[out_start, out_start + length)`` map one-to-one onto
    parent partitions ``[in_start, in_start + length)``.
    """

    def __init__(self, rdd: "RDD", in_start: int, out_start: int, length: int):
        super().__init__(rdd)
        self.in_start = in_start
        self.out_start = out_start
        self.length = length

    def parents_of(self, partition: int) -> List[int]:
        if self.out_start <= partition < self.out_start + self.length:
            return [partition - self.out_start + self.in_start]
        return []


class ShuffleDependency(Dependency):
    """A wide dependency: every child partition reads all parent partitions.

    Attributes:
        partitioner: assigns each map-side record's key to a reduce bucket.
        map_side_combine: when an aggregator is present, values are combined
            on the map side before shuffle write (reduceByKey semantics).
        aggregator: (create_combiner, merge_value, merge_combiners) triple, or
            None for a raw repartition (partitionBy, or a cogroup side that
            is not already partitioned).
        batch_combine: the map-side combine's columnar twin, or None: maps
            a ``ColumnarBatch`` of one map partition to exactly the
            ``(key, combiner)`` items the record loop would produce, in
            first-occurrence key order, or raises ``ColumnarUnsupported``.
    """

    def __init__(
        self,
        rdd: "RDD",
        partitioner: HashPartitioner,
        aggregator: Optional[Tuple[Callable, Callable, Callable]] = None,
        map_side_combine: bool = False,
        batch_combine: Optional[Callable] = None,
    ):
        super().__init__(rdd)
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.map_side_combine = map_side_combine and aggregator is not None
        self.batch_combine = batch_combine if self.map_side_combine else None
        self.shuffle_id = next(_shuffle_ids)

    @property
    def num_map_partitions(self) -> int:
        """How many map tasks feed this shuffle."""
        return self.rdd.num_partitions

    @property
    def num_reduce_partitions(self) -> int:
        return self.partitioner.num_partitions
