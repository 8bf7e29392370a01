"""Columnar plane: conversion bit-identity, refusals, and plane boundaries.

The contract under test (see :mod:`repro.engine.columnar`): everything the
conversion layer accepts must round-trip *exactly* (same values, same Python
types, same nesting); everything it cannot round-trip it must refuse —
refusal silently keeps the chain on the row plane.  Blocks, checkpoints,
and results always stay row-form, and sizing must be deterministic for
batch columns whether they are views or copies.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columnar import (
    ColumnarBatch,
    ColumnarUnsupported,
    columnar_enabled_by_env,
    from_records,
    sum_by_key,
)
from repro.engine.sizeof import deep_sizeof, estimate_record_size
from tests.conftest import build_on_demand_context


# ----------------------------------------------------------------------
# Round-trip identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "records",
    [
        [1, 2, 3],
        [1.5, -0.0, float("inf")],
        [(1, 2.0), (3, 4.0)],
        # Nested tuples (KMeans assignment output shape).
        [(0, ((1.0, 2.0), 1)), (3, ((4.0, 5.0), 1))],
        # Ragged lists, including empties.
        [(1, [10, 20]), (2, []), (3, [30])],
        # Doubly ragged (PageRank cogroup shape).
        [(1, ([[1, 2], []], [0.5])), (2, ([[3]], []))],
        # Vacuous level: every list empty, leaf dtype unobservable.
        [(1, []), (2, [])],
        [[[]], [[], []]],
    ],
)
def test_round_trip_is_exact(records):
    batch = from_records(records)
    assert batch is not None
    out = batch.to_records()
    assert out == records
    # == is too weak for the bit-identity rule (1 == 1.0, True == 1):
    # every leaf must come back with its exact Python type.
    def types(value):
        if isinstance(value, (tuple, list)):
            return (type(value), [types(v) for v in value])
        return type(value)

    assert [types(r) for r in out] == [types(r) for r in records]


def test_negative_zero_round_trips():
    [value] = from_records([-0.0]).to_records()
    assert np.signbit(value)


@pytest.mark.parametrize(
    "records",
    [
        [],  # empty partitions stay row-form
        [1, 2.0],  # mixed leaf types
        [(1,), (1, 2)],  # ragged tuple arity
        [True, False],  # bool is an int subclass but must stay bool
        [1, True],
        [2**63, 1],  # outside int64
        [-(2**63) - 1],
        ["a", "b"],  # non-numeric leaves
        [None],
        [{"k": 1}],
        [(1, "x")],
        [[1], [2.0]],  # mixed types across flattened list elements
        [(1, [1]), (2, (2,))],  # list vs tuple in one column
    ],
)
def test_refusals_return_none(records):
    assert from_records(records) is None


def test_from_records_accepts_any_iterable():
    batch = from_records(iter([1, 2, 3]))
    assert batch.to_records() == [1, 2, 3]


# ----------------------------------------------------------------------
# Batch surface: require / select
# ----------------------------------------------------------------------
def test_require_returns_columns_or_refuses():
    batch = from_records([(1, 2.0), (3, 4.0)])
    ints, floats = batch.require(("tuple", ("i8", "f8")))
    assert ints.dtype == np.int64 and floats.dtype == np.float64
    with pytest.raises(ColumnarUnsupported):
        batch.require(("tuple", ("f8", "f8")))
    with pytest.raises(ColumnarUnsupported):
        batch.require("i8")


def test_select_preserves_order_and_raggedness():
    records = [(1, [10, 20]), (2, []), (3, [30]), (4, [40, 50])]
    batch = from_records(records)
    kept = batch.select(np.array([True, False, True, True]))
    assert len(kept) == 3
    assert kept.to_records() == [records[0], records[2], records[3]]


def test_select_refuses_bad_masks():
    batch = from_records([1, 2, 3])
    with pytest.raises(ColumnarUnsupported):
        batch.select(np.array([1, 0, 1]))  # wrong dtype
    with pytest.raises(ColumnarUnsupported):
        batch.select(np.array([True, False]))  # wrong shape


def test_env_switch_parsing(monkeypatch):
    for raw, expect in (
        ("on", True), ("1", True), ("", True), ("anything", True),
        ("off", False), ("0", False), ("false", False), ("FALSE", False),
    ):
        monkeypatch.setenv("FLINT_COLUMNAR", raw)
        assert columnar_enabled_by_env() is expect
    monkeypatch.delenv("FLINT_COLUMNAR")
    assert columnar_enabled_by_env() is True


# ----------------------------------------------------------------------
# Sizing: columns must size deterministically, views included
# ----------------------------------------------------------------------
def test_deep_sizeof_charges_view_buffers():
    owner = np.arange(1000, dtype=np.int64)
    view = owner[10:990]
    # An owning array's buffer is inside getsizeof; a view's is not, so
    # deep_sizeof adds it — a sliced column must not look near-free.
    assert deep_sizeof(view) >= view.nbytes
    assert deep_sizeof(owner) >= owner.nbytes


def test_estimate_record_size_stable_for_batches():
    batch = from_records([(i, float(i)) for i in range(50)])
    sizes = {estimate_record_size([batch.data]) for _ in range(3)}
    assert len(sizes) == 1


# ----------------------------------------------------------------------
# Plane boundary: the cache refuses columnar payloads
# ----------------------------------------------------------------------
def test_block_manager_rejects_columnar_batches():
    ctx = build_on_demand_context(1)
    manager = ctx.cluster.live_workers()[0].block_manager
    batch = from_records([1, 2, 3])
    with pytest.raises(TypeError, match="to_records"):
        manager.put("rdd_0_0", batch, 24)
    assert manager.get("rdd_0_0") is None


# ----------------------------------------------------------------------
# sum_by_key: the exact batch twin of the additive map-side combine
# ----------------------------------------------------------------------
def _row_combine(keys, floats, ints):
    """The map-side combine loop for ``(a + b, c + d)`` over the rows."""
    combined = {}
    for key, value in zip(keys, zip(floats, ints)):
        prev = combined.get(key)
        combined[key] = value if prev is None else (prev[0] + value[0], prev[1] + value[1])
    return list(combined.items())


_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), 1e300, -1e300, 1e-300]),
    st.floats(allow_nan=False, min_value=-1e300, max_value=1e300),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)


@st.composite
def _keyed_values(draw):
    # A few heavy keys (up to ~300 values each) beside single-element
    # keys, interleaved in a drawn order.
    heavy = draw(st.lists(st.integers(1, 300), min_size=0, max_size=3))
    singles = draw(st.integers(0, 20))
    keys = [i for i, count in enumerate(heavy) for _ in range(count)]
    keys += [100 + j for j in range(singles)]
    keys = draw(st.permutations(keys)) if keys else [0]
    floats = draw(st.lists(_FLOATS, min_size=len(keys), max_size=len(keys)))
    ints = draw(st.lists(
        st.integers(-(2**40), 2**40), min_size=len(keys), max_size=len(keys)
    ))
    return keys, floats, ints


@settings(max_examples=150, deadline=None)
@given(_keyed_values())
def test_sum_by_key_is_the_row_combine(case):
    keys, floats, ints = case
    uniq, (fsum, isum) = sum_by_key(
        np.array(keys, dtype=np.int64),
        (np.array(floats, dtype=np.float64), np.array(ints, dtype=np.int64)),
    )
    got = list(zip(uniq.tolist(), zip(fsum.tolist(), isum.tolist())))
    # repr, not ==: -0.0 == 0.0, and the sign bit must survive.
    assert repr(got) == repr(_row_combine(keys, floats, ints))


def test_sum_by_key_keeps_negative_zero_and_first_occurrence_order():
    keys = np.array([5, 3, 5, 3, 9], dtype=np.int64)
    vals = np.array([-0.0, -0.0, -0.0, 0.0, -0.0])
    uniq, (sums,) = sum_by_key(keys, (vals,))
    assert uniq.tolist() == [5, 3, 9]
    assert [repr(v) for v in sums.tolist()] == ["-0.0", "0.0", "-0.0"]


def test_sum_by_key_refuses_int64_overflow():
    keys = np.array([1, 1, 2], dtype=np.int64)
    big = np.array([2**62, 2**62, 1], dtype=np.int64)
    with pytest.raises(ColumnarUnsupported, match="overflow"):
        sum_by_key(keys, (big,))
    low = np.array([-(2**63), 0, 0], dtype=np.int64)
    with pytest.raises(ColumnarUnsupported, match="overflow"):
        sum_by_key(keys, (low,))
    # Within range it sums exactly.
    _, (ok,) = sum_by_key(keys, (np.array([2**61, 2**61, 7], dtype=np.int64),))
    assert ok.tolist() == [2**62, 7]


def test_sum_by_key_refuses_bad_inputs():
    with pytest.raises(ColumnarUnsupported):
        sum_by_key(np.array([1.0, 2.0]), (np.array([1.0, 2.0]),))
    with pytest.raises(ColumnarUnsupported):
        sum_by_key(np.array([1, 2], dtype=np.int64), (np.array([1.0]),))
    with pytest.raises(ColumnarUnsupported):
        sum_by_key(np.array([1, 2], dtype=np.int64), (np.array([1, 2], dtype=np.int32),))
    # One key with 2000 values beside 1000 single keys: the padded block
    # would be ~2M cells for 3000 values, so it refuses before allocating.
    skewed = np.concatenate([np.zeros(2000, dtype=np.int64), np.arange(1, 1001)])
    with pytest.raises(ColumnarUnsupported, match="skewed"):
        sum_by_key(skewed, (np.ones(len(skewed)),))


# ----------------------------------------------------------------------
# Cached views: lazily built per memory-tier block, read-only, and gone
# with the block
# ----------------------------------------------------------------------
def _view_manager(capacity=None):
    ctx = build_on_demand_context(1)
    worker = ctx.cluster.live_workers()[0]
    manager = worker.block_manager
    if capacity is not None:
        manager.capacity_bytes = capacity
    return ctx, worker, manager


def test_cached_view_is_built_once_and_read_only():
    _, _, manager = _view_manager()
    rows = [(1, 2.0), (3, 4.0)]
    manager.put("rdd_0_0", rows, 100)
    view = manager.columnar_view("rdd_0_0", rows)
    assert view.to_records() == rows
    assert manager.columnar_view("rdd_0_0", rows) is view
    keys, vals = view.data
    with pytest.raises(ValueError):
        vals += 1.0  # an in-place kernel must not corrupt the cache
    with pytest.raises(ValueError):
        keys[0] = 7
    assert view.to_records() == rows
    # Only the very list the block holds is served from it.
    assert manager.columnar_view("rdd_0_0", list(rows)) is None


def test_cached_view_refusal_is_remembered_as_none():
    _, _, manager = _view_manager()
    rows = ["a", "b"]
    manager.put("rdd_0_0", rows, 100)
    assert manager.columnar_view("rdd_0_0", rows) is None


def test_cached_view_dies_with_its_block():
    _, worker, manager = _view_manager(capacity=250)
    old = [1, 2, 3]
    manager.put("rdd_0_0", old, 100)
    assert manager.columnar_view("rdd_0_0", old) is not None
    # Replaced: the old rows' view is gone, the new rows get their own.
    new = [4, 5, 6]
    manager.put("rdd_0_0", new, 100)
    assert manager.columnar_view("rdd_0_0", old) is None
    assert manager.columnar_view("rdd_0_0", new).to_records() == new
    # Evicted (LRU, MEMORY_ONLY): no view of the dropped block.
    manager.put("rdd_0_1", [7], 100)
    manager.put("rdd_0_2", [8], 100)
    assert not manager.has("rdd_0_0")
    assert manager.columnar_view("rdd_0_0", new) is None
    # Spilled blocks stay on rows.
    spilled = [9, 10]
    manager.put("rdd_1_0", spilled, 100, spill=True)
    manager.put("rdd_1_1", [11], 100)
    manager.put("rdd_1_2", [12], 100)
    assert manager.get("rdd_1_0")[2] == "disk"
    assert manager.columnar_view("rdd_1_0", spilled) is None
    # Removed.
    kept = manager.get("rdd_1_2")[0]
    assert manager.columnar_view("rdd_1_2", kept) is not None
    manager.remove("rdd_1_2")
    assert manager.columnar_view("rdd_1_2", kept) is None
    # Cleared by a worker kill.
    last = manager.get("rdd_1_1")[0]
    assert manager.columnar_view("rdd_1_1", last) is not None
    worker.kill()
    assert manager.columnar_view("rdd_1_1", last) is None


def test_cached_view_dies_on_unpersist(monkeypatch):
    monkeypatch.setenv("FLINT_COLUMNAR", "on")
    ctx = build_on_demand_context(2)
    base = ctx.parallelize(list(range(40)), 2, record_size=100).persist()
    base.count()
    cached = [ctx.find_block(base, p)[0] for p in range(2)]
    base.map(lambda x: x + 1, batch_fn=_inc_batch).collect()
    assert all(ctx.columnar_view(base, p, cached[p]) is not None for p in range(2))
    base.unpersist()
    assert all(ctx.columnar_view(base, p, cached[p]) is None for p in range(2))


# ----------------------------------------------------------------------
# Engine integration: lowering, inertness, and fallback accounting
# ----------------------------------------------------------------------
def _inc_batch(batch):
    return ColumnarBatch("i8", batch.require("i8") + 1, len(batch))


def _even_mask(batch):
    return batch.require("i8") % 2 == 0


def _key_batch(batch):
    col = batch.require("i8")
    return ColumnarBatch(("tuple", ("i8", "i8")), (col % 7, col), len(batch))


def _build_planes(monkeypatch, columnar):
    monkeypatch.setenv("FLINT_COLUMNAR", columnar)
    return build_on_demand_context(4)


def _chain(ctx):
    base = ctx.parallelize(list(range(200)), 4, record_size=100)
    return (
        base.map(lambda x: x + 1, batch_fn=_inc_batch)
        .filter(lambda x: x % 2 == 0, batch_fn=_even_mask)
        .map(lambda x: (x % 7, x), batch_fn=_key_batch)
    )


def test_columnar_chain_matches_row_plane(monkeypatch):
    outcomes = {}
    for knob in ("on", "off"):
        ctx = _build_planes(monkeypatch, knob)
        t0 = ctx.now
        outcomes[knob] = (_chain(ctx).collect(), ctx.now - t0, ctx)
    on_result, on_time, on_ctx = outcomes["on"]
    off_result, off_time, off_ctx = outcomes["off"]
    assert on_result == off_result
    assert on_time == off_time
    stats = on_ctx.scheduler.stats
    assert stats.columnar_chains == 4
    assert stats.columnar_stages == 12
    assert stats.columnar_fallbacks == 0
    # Fusion books stay backend- and plane-invariant.
    assert stats.fused_chains == off_ctx.scheduler.stats.fused_chains == 4
    assert stats.fused_stages == off_ctx.scheduler.stats.fused_stages == 12
    assert off_ctx.scheduler.stats.columnar_chains == 0


def test_columnar_off_never_lowers(monkeypatch):
    ctx = _build_planes(monkeypatch, "off")
    assert ctx.columnar_enabled is False
    _chain(ctx).collect()
    assert ctx.scheduler.stats.columnar_chains == 0
    assert ctx.scheduler.stats.columnar_stages == 0


def test_columnar_requires_fusion(monkeypatch, unfused):
    monkeypatch.setenv("FLINT_COLUMNAR", "on")
    ctx = build_on_demand_context(4)
    with unfused():
        result = _chain(ctx).collect()
    assert result == [((x + 1) % 7, x + 1) for x in range(200) if (x + 1) % 2 == 0]
    assert ctx.scheduler.stats.columnar_chains == 0


def test_kernel_refusal_falls_back_with_identical_results(monkeypatch):
    def picky(batch):
        raise ColumnarUnsupported("wrong shape for this kernel")

    results = {}
    for knob in ("on", "off"):
        ctx = _build_planes(monkeypatch, knob)
        base = ctx.parallelize(list(range(100)), 4, record_size=100)
        rdd = base.map(lambda x: x * 3, batch_fn=picky).map(
            lambda x: x - 1, batch_fn=_inc_batch
        )
        results[knob] = (rdd.collect(), ctx.now, ctx.scheduler.stats)
    assert results["on"][0] == results["off"][0]
    assert results["on"][1] == results["off"][1]
    stats = results["on"][2]
    assert stats.columnar_fallbacks == 4  # one refusal per partition
    assert stats.columnar_chains == 0


def test_conversion_refusal_falls_back(monkeypatch):
    ctx = _build_planes(monkeypatch, "on")
    base = ctx.parallelize([str(i) for i in range(40)], 4, record_size=100)
    out = base.map(lambda s: s + "!", batch_fn=_inc_batch).collect()
    assert out == [str(i) + "!" for i in range(40)]
    stats = ctx.scheduler.stats
    assert stats.columnar_fallbacks == 4
    assert stats.columnar_chains == 0


def test_partial_chain_stays_on_row_plane(monkeypatch):
    """A chain with any kernel-less stage never converts (no fallback)."""
    ctx = _build_planes(monkeypatch, "on")
    base = ctx.parallelize(list(range(80)), 4, record_size=100)
    out = base.map(lambda x: x + 1, batch_fn=_inc_batch).map(lambda x: x * 2).collect()
    assert out == [(x + 1) * 2 for x in range(80)]
    stats = ctx.scheduler.stats
    assert stats.columnar_chains == 0
    assert stats.columnar_fallbacks == 0


def test_builtin_kernels_match_row_plane(monkeypatch):
    """zip_with_index / sample / union lower via their built-in kernels."""
    outcomes = {}
    for knob in ("on", "off"):
        ctx = _build_planes(monkeypatch, knob)
        base = ctx.parallelize(list(range(120)), 4, record_size=100)
        mapped = base.map(lambda x: x + 1, batch_fn=_inc_batch)
        sampled = mapped.sample(0.5, seed=3).collect()
        indexed = mapped.zip_with_index().collect()
        both = mapped.union(mapped.map(lambda x: -x, batch_fn=lambda b: ColumnarBatch(
            "i8", -b.require("i8"), len(b)))).collect()
        outcomes[knob] = (sampled, indexed, both, ctx.now, ctx)
    assert outcomes["on"][:4] == outcomes["off"][:4]
    assert outcomes["on"][4].scheduler.stats.columnar_chains > 0
