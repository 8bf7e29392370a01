"""Arithmetic the benchmark reports with: percentiles, medians, ratios,
the open-loop capacity rule, generic counter aggregation and self time.

Everything here is plain functions over plain numbers so that the tests in
``test_perfbench.py`` can pin the rules down independently of the engine.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


def nearest_rank(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile: the ``ceil(q * n)``-th smallest value.

    ``q`` is snapped to the nearest rational with denominator <= 1000 before
    the ceiling is taken, so ``q=0.99`` over 100 values is rank 99 exactly
    rather than whatever ``0.99 * 100`` rounds to in binary.  Returns None
    for an empty sample.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    if not values:
        return None
    ordered = sorted(values)
    rank = math.ceil(Fraction(q).limit_denominator(1000) * len(ordered))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q``."""
    if n == 0:
        return 0
    rank = math.ceil(Fraction(q).limit_denominator(1000) * n)
    return n - min(max(rank, 1), n)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def backlog_at(intervals: Iterable[Tuple[float, float]], t: float) -> int:
    """Requests in the system at ``t``: arrived at or before ``t`` and not
    finished by it.  ``intervals`` are ``(arrived, finished)`` pairs."""
    return sum(1 for arrived, finished in intervals if arrived <= t < finished)


def backlog_grows(mid: int, end: int, slack: int) -> bool:
    """A backlog grows when it ends the window more than ``slack`` requests
    above where it stood at mid-window.  ``slack`` is the pool's concurrency
    cap: up to that many requests in flight is service, not queueing."""
    return end - mid > slack


def max_sustained_rate(
    points: Sequence[Mapping[str, float]], p99_limit: float
) -> float:
    """Highest offered rate that meets the latency limit with no rejections
    and no growing backlog; 0.0 when no rate qualifies.

    Each point carries ``rate``, ``p99`` (None when nothing completed),
    ``rejected`` and ``growing``.  A rate qualifies on its own merits: a
    failing lower rate does not disqualify a passing higher one.
    """
    ok = [
        p["rate"]
        for p in points
        if p["p99"] is not None
        and p["p99"] <= p99_limit
        and p["rejected"] == 0
        and not p["growing"]
    ]
    return max(ok) if ok else 0.0


def aggregate_counters(snapshots: Iterable[Mapping[str, object]]) -> Dict[str, float]:
    """Combine counter snapshots field by field, with no field list.

    Numeric fields are summed, except fields named ``*_peak``, which are
    high-water marks and take the maximum.  Non-numeric fields (and bools)
    are skipped.  A field missing from one snapshot counts as absent there.
    """
    total: Dict[str, float] = {}
    for snap in snapshots:
        for name, value in snap.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if name.endswith("_peak"):
                total[name] = max(total.get(name, value), value)
            else:
                total[name] = total.get(name, 0) + value
    return total


def counter_delta(
    after: Mapping[str, object], before: Mapping[str, object]
) -> Dict[str, float]:
    """What a snapshot counted since an earlier one, field by field.

    Numeric fields are ``after - before`` (a field absent before counts
    from 0); ``*_peak`` fields are high-water marks and keep ``after``.
    Non-numeric fields (and bools) are skipped, as in
    :func:`aggregate_counters`.
    """
    out: Dict[str, float] = {}
    for name, value in after.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        out[name] = value if name.endswith("_peak") else value - before.get(name, 0)
    return out


def span_self_times(
    spans: Sequence[Tuple[float, float, int]]
) -> List[float]:
    """Self time of every span: its duration minus the part of its interval
    covered by the union of its children's intervals.

    ``spans[i]`` is ``(start, end, parent)`` with ``parent`` the index of
    the enclosing span or -1.  Children may overlap each other and may
    stick out of the parent; only the covered part inside the parent is
    subtracted, so no second is attributed twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo = max(c_start, cursor)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out
