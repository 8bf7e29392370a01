"""Lightweight wall-clock timers for engine hot paths.

The scheduler (and any future subsystem) brackets its hot sections with
``SectionTimers`` so perf work can see where driver-side wall-clock goes
without attaching a profiler.  Timing is off by default — a disabled timer
is a single attribute check on the hot path — and is enabled either
programmatically or via the ``FLINT_PROFILE=1`` environment variable.

Usage::

    timers = SectionTimers(enabled=True)
    with timers.section("schedule_round"):
        ...
    timers.report()  # {"schedule_round": {"calls": 1100, "seconds": 0.41}}
"""

from __future__ import annotations

import os
import time
from contextlib import AbstractContextManager, contextmanager, nullcontext
from typing import Dict, Iterator

#: What a disabled :meth:`SectionTimers.section` returns: one shared no-op
#: context, so the disabled path allocates nothing.
_DISABLED_SECTION = nullcontext()


def profiling_enabled_by_env() -> bool:
    """True when ``FLINT_PROFILE`` requests engine section timing."""
    return os.environ.get("FLINT_PROFILE", "") not in ("", "0", "false")


class SectionTimers:
    """Named wall-clock accumulators with near-zero disabled overhead."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._seconds: Dict[str, float] = {}
        self._calls: Dict[str, int] = {}

    def section(self, name: str) -> AbstractContextManager:
        """Time one entry of a named section (no-op when disabled)."""
        if not self.enabled:
            return _DISABLED_SECTION
        return self._timed(name)

    @contextmanager
    def _timed(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._seconds[name] = self._seconds.get(name, 0.0) + dt
            self._calls[name] = self._calls.get(name, 0) + 1

    def add(self, name: str, seconds: float) -> None:
        """Accumulate an externally measured duration."""
        if not self.enabled:
            return
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds
        self._calls[name] = self._calls.get(name, 0) + 1

    def report(self) -> Dict[str, Dict[str, float]]:
        """Accumulated ``{section: {calls, seconds}}`` (empty when disabled)."""
        return {
            name: {"calls": self._calls.get(name, 0), "seconds": secs}
            for name, secs in sorted(self._seconds.items())
        }

    def reset(self) -> None:
        self._seconds.clear()
        self._calls.clear()
