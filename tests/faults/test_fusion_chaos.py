"""Fault injection under the fused data plane.

Runs seeded chaos plans from each fault family on the fused plane and on
the per-RDD reference plane (the ``unfused`` fixture).  Both planes must
uphold every engine invariant (the harness raises on any violation) and
produce byte-identical fault reports: same fired faults, same results,
same simulated runtimes.  Fusion changes how a task computes its records —
never what the scheduler, shuffle tracker, or recovery machinery observe.
"""

from __future__ import annotations

import re

import pytest

from repro.faults.chaos import _MultiJobWorkload, _pagerank, generate_spec
from repro.faults.harness import run_with_plan

_FAMILIES = {
    "revocation": _pagerank,
    "io": _pagerank,
    "multijob": _MultiJobWorkload,
}


def _normalize(fault_repr: str) -> str:
    """Mask raw shuffle ids: they come from a process-global counter, so
    the second plane's runs see higher ids for the same logical shuffles."""
    return re.sub(r"shuffle \d+", "shuffle <id>", fault_repr)


def _report_fingerprint(report):
    """Everything observable about a run, minus the (empty) event log."""
    return {
        "spec": report.spec,
        "results_match": report.results_match,
        "faults_fired": [_normalize(repr(f)) for f in report.faults_fired],
        "violations": report.violations,
        "checks_run": report.checks_run,
        "runtime": report.runtime,
        "reference_runtime": report.reference_runtime,
        "results": report.results,
        "reference_results": report.reference_results,
    }


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("seed", [0, 1])
def test_fused_plane_is_invariant_clean_and_report_identical(
    unfused, family, seed
):
    factory = _FAMILIES[family]
    spec = generate_spec(seed, family)
    # raise_on_violation: any invariant 1-8 failure aborts the test with
    # the violation list attached.
    with unfused():
        reference = run_with_plan(factory, spec, seed=seed)
    fused = run_with_plan(factory, spec, seed=seed)
    assert reference.passed and fused.passed
    assert _report_fingerprint(fused) == _report_fingerprint(reference)


def test_traced_fused_run_reconciles_spans():
    """Invariant 8 (trace books) under fusion: spans match scheduler books."""
    report = run_with_plan(_pagerank, generate_spec(0, "revocation"), trace=True)
    assert report.passed
    assert report.event_log  # the traced run actually recorded its timeline
