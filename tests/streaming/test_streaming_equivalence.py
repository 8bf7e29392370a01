"""Golden equivalence: streaming across data planes.

DStream batches lower to ordinary RDDs, so the engine's bit-identical
contracts must extend to streams: at identical seeds, ``FLINT_COLUMNAR``
off and on, and the per-RDD reference plane (the ``unfused`` fixture),
must reproduce the same per-batch results, simulated time, task books,
and billing.  The identity workload must also actually lower to columnar
chains under ``FLINT_COLUMNAR=on`` (the equivalence would be vacuous
otherwise); wordcount's strings keep it on the row plane, which makes it
the fallback-equivalence probe.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import build_engine_context
from repro.streaming import (
    StreamingIdentityWorkload,
    StreamingWindowWorkload,
    StreamingWordCountWorkload,
)

WORKLOADS = {
    "identity": lambda ctx: StreamingIdentityWorkload(
        ctx, records_per_batch=1_600, partitions=8, num_batches=4,
    ),
    "wordcount": lambda ctx: StreamingWordCountWorkload(
        ctx, lines_per_batch=800, partitions=8, num_batches=4, seed=23,
        checkpointing=True, initial_delta=20.0, max_tau=60.0,
    ),
    "window": lambda ctx: StreamingWindowWorkload(
        ctx, records_per_batch=800, partitions=8, num_batches=5,
        window=3, slide=2, num_keys=20, seed=31,
    ),
}


def _run(monkeypatch, factory, columnar):
    monkeypatch.setenv("FLINT_COLUMNAR", columnar)
    ctx = build_engine_context(num_workers=6, seed=0)
    workload = factory(ctx)
    workload.load()
    result = workload.run()
    fingerprint = {
        "result": result,
        "now": ctx.now,
        "tasks": ctx.scheduler.stats.task_counts(),
        "billing": ctx.env.provider.total_cost(ctx.now),
    }
    return fingerprint, ctx.scheduler.stats


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_streaming_bit_identical_across_planes(monkeypatch, unfused, name):
    factory = WORKLOADS[name]
    baseline, _ = _run(monkeypatch, factory, "off")
    columnar, _ = _run(monkeypatch, factory, "on")
    assert columnar == baseline
    # The per-RDD recursion plane agrees too.
    with unfused():
        reference, _ = _run(monkeypatch, factory, "off")
    assert reference == baseline


def test_identity_lowers_to_columnar_chains(monkeypatch):
    _, stats = _run(monkeypatch, WORKLOADS["identity"], "on")
    assert stats.columnar_chains > 0
    assert stats.columnar_fallbacks == 0


def test_wordcount_stays_on_the_row_plane(monkeypatch):
    # Strings refuse columnarisation; the chain must fall back, not fail.
    _, stats = _run(monkeypatch, WORKLOADS["wordcount"], "on")
    assert stats.columnar_chains == 0
