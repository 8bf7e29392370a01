"""run_with_plan orchestration and the seeded chaos driver."""

import pytest

from repro.faults import InvariantViolation, run_with_plan
from repro.faults.chaos import (
    CHAOS_WORKLOADS,
    FAMILIES,
    generate_spec,
    run_chaos,
)
from repro.faults.plan import FaultPlan


def test_faulted_run_matches_reference():
    report = run_with_plan(
        CHAOS_WORKLOADS["PageRank"], "revoke at=task:20 count=2 replace=120"
    )
    assert report.passed
    assert report.results_match
    assert report.violations == []
    assert any("revoked" in f.description for f in report.faults_fired)
    # Recovery costs time: the faulted run is never faster than reference.
    assert report.runtime >= report.reference_runtime


def test_report_counts_invariant_checks():
    report = run_with_plan(CHAOS_WORKLOADS["KMeans"], "revoke at=task:10")
    # One deferred check after the fault plus the job-end check.
    assert report.checks_run >= 2


def test_shared_reference_short_circuits_rerun():
    from repro.faults.harness import run_reference

    reference = run_reference(CHAOS_WORKLOADS["PageRank"])
    report = run_with_plan(
        CHAOS_WORKLOADS["PageRank"], "warn at=task:5", reference=reference
    )
    assert report.reference_results is reference[0]
    assert report.passed


def test_violation_raises_with_plan_in_message():
    # An unsatisfiable run: kill every worker with no replacements.  The
    # scheduler deadlocks, which the harness reports as the
    # "task permanently unschedulable" invariant.
    with pytest.raises(InvariantViolation) as excinfo:
        run_with_plan(
            CHAOS_WORKLOADS["PageRank"],
            "revoke at=task:1 count=6",
            checkpointing=False,
        )
    message = str(excinfo.value)
    assert "revoke at=task:1 count=6" in message
    assert "unschedulable" in message


def test_raise_on_violation_false_reports_instead():
    report = run_with_plan(
        CHAOS_WORKLOADS["PageRank"],
        "revoke at=task:1 count=6",
        checkpointing=False,
        raise_on_violation=False,
    )
    assert not report.passed
    assert report.violations


# ----------------------------------------------------------------------
# Chaos driver
# ----------------------------------------------------------------------
def test_generate_spec_is_deterministic_and_parseable():
    for family in FAMILIES:
        for seed in range(20):
            spec = generate_spec(seed, family)
            assert spec == generate_spec(seed, family)
            plan = FaultPlan.parse(spec)
            assert len(plan) >= 1
    # Different master seeds explore different plans.
    specs_a = {generate_spec(s, "revocation", master_seed=0) for s in range(10)}
    specs_b = {generate_spec(s, "revocation", master_seed=1) for s in range(10)}
    assert specs_a != specs_b


def test_generate_spec_rejects_unknown_family():
    with pytest.raises(ValueError):
        generate_spec(0, "cosmic-rays")


def test_chaos_smoke_sweep_passes():
    report = run_chaos([0, 1], workloads=["PageRank"])
    assert report.plans_run == 4  # 2 seeds x 2 families
    assert report.passed, [f.violations for f in report.failures]
    assert report.checks_run > 0


def test_chaos_trace_failure_writes_timeline(tmp_path):
    """A failure's traced rerun lands a Chrome trace + JSONL next to it."""
    import json

    from repro.faults.chaos import CHAOS_WORKLOADS, ChaosFailure, _trace_failure
    from repro.faults.harness import run_reference

    factory = CHAOS_WORKLOADS["KMeans"]
    reference = run_reference(factory, num_workers=6, seed=0)
    failure = ChaosFailure(
        seed=0, master_seed=0, workload="KMeans",
        family="revocation", spec="revoke at=task:10", violations=["boom"],
    )
    _trace_failure(factory, failure, reference, str(tmp_path))
    assert len(failure.trace_paths) == 2
    trace_path, events_path = failure.trace_paths
    trace = json.loads(open(trace_path).read())
    assert trace["traceEvents"], "trace must not be empty"
    rows = [json.loads(line) for line in open(events_path)]
    assert any(row["kind"] == "task" for row in rows)


def test_chaos_failure_replay_command_round_trips():
    from repro.faults.chaos import ChaosFailure

    failure = ChaosFailure(
        seed=57, master_seed=3, workload="ALS",
        family="io", spec="revoke at=task:2", violations=["boom"],
    )
    cmd = failure.replay_command()
    assert "--replay-seed 57" in cmd
    assert "--master-seed 3" in cmd
    assert "--workload ALS" in cmd
    assert "--family io" in cmd
