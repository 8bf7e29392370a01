"""Seeded chaos under the reference readiness check.

A slice of every fault family runs with the ``readiness_oracle`` fixture
on: each plan must pass the harness (results equal the failure-free run,
every invariant holds) and every scheduling round of every run must hand
out exactly the seed resolver's frontier.
"""

from __future__ import annotations

import pytest

from repro.faults.chaos import CHAOS_WORKLOADS, run_chaos

_SLICES = [
    (family, workload)
    for family in ("revocation", "io")
    for workload in sorted(CHAOS_WORKLOADS)
] + [("multijob", "MultiJob"), ("streaming", "Streaming"), ("tenancy", "Tenancy")]


@pytest.mark.parametrize("family, workload", _SLICES)
def test_chaos_frontiers_match_reference(readiness_oracle, family, workload):
    report = run_chaos(range(3), workloads=[workload], families=[family])
    assert report.plans_run == 3
    assert report.passed, [f.violations for f in report.failures]
