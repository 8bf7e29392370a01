"""SectionTimers: a disabled timer costs no allocation; an enabled one counts."""

from __future__ import annotations

from repro.engine.profiling import SectionTimers


def test_disabled_section_is_one_shared_no_op():
    timers = SectionTimers(enabled=False)
    first = timers.section("schedule_round")
    assert timers.section("other") is first
    with timers.section("schedule_round"):
        pass
    timers.add("schedule_round", 1.0)
    assert timers.report() == {}


def test_enabled_section_counts_calls_and_time():
    timers = SectionTimers(enabled=True)
    for _ in range(3):
        with timers.section("schedule_round"):
            pass
    report = timers.report()
    assert report["schedule_round"]["calls"] == 3
    assert report["schedule_round"]["seconds"] >= 0.0
    # A section that raises is still timed once.
    try:
        with timers.section("fetch"):
            raise KeyError("boom")
    except KeyError:
        pass
    assert timers.report()["fetch"]["calls"] == 1
