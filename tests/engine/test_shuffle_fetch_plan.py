"""Batched shuffle fetch planning: cached per-reducer plans + byte counters.

The manager precomputes, once per output epoch, every reducer's bucket
references and local/remote byte splits; registrations, evictions, and
worker loss bump the epoch so no fetch is ever served from a stale plan.
The maintained ``output_bytes`` counter is held to the reference scan
implementation (``output_bytes_by_scan``).
"""

from __future__ import annotations

from repro.cluster.worker import Worker
from repro.engine.dependencies import ShuffleDependency
from repro.engine.partitioner import HashPartitioner
from repro.engine.shuffle import ShuffleManager
from repro.market.instance import Instance
from tests.conftest import build_on_demand_context


def make_setup(num_maps=3, num_reduces=2, num_workers=2):
    ctx = build_on_demand_context(1)
    rdd = ctx.parallelize([(i, i) for i in range(12)], num_maps, record_size=100)
    dep = ShuffleDependency(rdd, HashPartitioner(num_reduces))
    manager = ShuffleManager()
    workers = []
    for i in range(num_workers):
        w = Worker(f"w-{i}", Instance(f"i-{i}", "m", "r3.large", 0.1, 0.0))
        manager.register_worker(w)
        workers.append(w)
    return manager, dep, workers


def _register_all(manager, dep, workers):
    manager.register_map_output(dep, 0, workers[0], [[(1, 1)], [(2, 2), (3, 3)]], 100)
    manager.register_map_output(dep, 1, workers[1], [[(4, 4)], []], 100)
    manager.register_map_output(dep, 2, workers[1], [[], [(5, 5)]], 100)


def test_plan_is_built_once_and_hit_afterwards():
    manager, dep, workers = make_setup()
    _register_all(manager, dep, workers)
    assert manager.plans_built == 0
    first = manager.fetch(dep, 0, workers[0])
    assert manager.plans_built == 1
    for reduce_id in (0, 1, 0):
        manager.fetch(dep, reduce_id, workers[1])
    assert manager.plans_built == 1  # same epoch: every later fetch hits
    assert manager.plan_hits == 3
    assert manager.fetch(dep, 0, workers[0]) == first


def test_planned_fetch_matches_locality_accounting():
    manager, dep, workers = make_setup()
    _register_all(manager, dep, workers)
    buckets, local, remote = manager.fetch(dep, 1, workers[1])
    assert buckets == [[(2, 2), (3, 3)], [], [(5, 5)]]
    # Map 0 (200 bytes of reduce 1) lives on w-0; maps 1-2 on the fetcher.
    assert local == 100
    assert remote == 200
    # The same fetch from the other side flips the split exactly.
    _, local0, remote0 = manager.fetch(dep, 1, workers[0])
    assert (local0, remote0) == (200, 100)


def test_reregistration_invalidates_plan():
    manager, dep, workers = make_setup()
    _register_all(manager, dep, workers)
    manager.fetch(dep, 0, workers[0])
    epoch = manager.output_epoch(dep.shuffle_id)
    # Speculative re-run lands map 1's output on the other worker: the
    # cached plan's byte split is stale and must be rebuilt.
    manager.register_map_output(dep, 1, workers[0], [[(4, 4)], []], 100)
    assert manager.output_epoch(dep.shuffle_id) > epoch
    _, local, remote = manager.fetch(dep, 0, workers[0])
    assert manager.plans_built == 2
    assert (local, remote) == (200, 0)


def test_worker_loss_invalidates_plan_and_counters():
    manager, dep, workers = make_setup()
    _register_all(manager, dep, workers)
    manager.fetch(dep, 0, workers[0])
    assert manager.output_bytes(dep) == 500
    lost = manager.remove_outputs_on("w-1")
    assert lost == 2
    assert manager.output_bytes(dep) == manager.output_bytes_by_scan(dep) == 300
    assert manager.missing_maps(dep) == [1, 2]
    # Re-register and fetch again: fresh plan, fresh accounting.
    manager.register_map_output(dep, 1, workers[0], [[(4, 4)], []], 100)
    manager.register_map_output(dep, 2, workers[0], [[], [(5, 5)]], 100)
    buckets, local, remote = manager.fetch(dep, 0, workers[0])
    assert buckets == [[(1, 1)], [(4, 4)], []]
    assert (local, remote) == (200, 0)


def test_output_bytes_counter_matches_scan_throughout():
    manager, dep, workers = make_setup()
    assert manager.output_bytes(dep) == manager.output_bytes_by_scan(dep) == 0
    _register_all(manager, dep, workers)
    assert manager.output_bytes(dep) == manager.output_bytes_by_scan(dep) == 500
    # Replacing an output swaps its contribution instead of double counting.
    manager.register_map_output(
        dep, 0, workers[0], [[(1, 1)], [(2, 2), (3, 3), (9, 9)]], 100
    )
    assert manager.output_bytes(dep) == manager.output_bytes_by_scan(dep) == 600
    manager.remove_outputs_on("w-1")
    assert manager.output_bytes(dep) == manager.output_bytes_by_scan(dep) == 400
