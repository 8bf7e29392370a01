"""The ``streaming`` chaos family: faults on the micro-batch plane.

Every plan lands at least one revocation mid-window or mid-state-checkpoint
(plus optional extra revocations, checkpoint-write failures, and cached
state-block loss) on the combined wordcount+window streaming workload.  The
harness holds the run to its failure-free reference and to every engine
invariant.
"""

from __future__ import annotations

import pytest

from repro.faults.chaos import (
    EXTRA_WORKLOADS,
    NUM_WORKERS,
    _StreamingChaosWorkload,
    generate_spec,
    run_chaos,
)
from repro.faults.harness import run_with_plan


def test_streaming_family_specs_always_hit_the_stream():
    # Every seed's plan opens with a revocation aimed mid-window
    # (time-triggered) or mid-state-checkpoint (ckpt-triggered).
    for seed in range(12):
        spec = generate_spec(seed, "streaming")
        first = spec.split(";")[0]
        assert first.startswith("revoke")
        assert "at=ckpt:" in first or "at=time:" in first


def test_streaming_workload_is_registered():
    assert EXTRA_WORKLOADS["Streaming"] is _StreamingChaosWorkload


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_streaming_plans_uphold_invariants(seed):
    spec = generate_spec(seed, "streaming")
    report = run_with_plan(
        _StreamingChaosWorkload,
        spec,
        num_workers=NUM_WORKERS,
        checkpointing=True,
        mttf=1800.0,
    )
    assert report.results_match
    assert not report.violations


def test_streaming_family_sweep():
    report = run_chaos(
        seeds=range(2),
        workloads=["Streaming"],
        families=["streaming"],
    )
    assert report.plans_run == 2
    assert report.faults_fired >= 2
    assert not report.failures
