"""Perf regression gate: fresh ``perf_smoke`` run vs the committed baseline.

Runs the engine perf smoke and compares it against the checked-in
``BENCH_engine.json``:

- **Wall-clock gate** — any workload more than ``--threshold`` (default
  30%) slower than the committed baseline fails the gate.  Workloads whose
  baseline wall time is under ``--min-wall`` seconds are reported but not
  gated (sub-second timings are noise-dominated on shared CI runners).
- **Throughput gate** — the same threshold applied to ``tasks_per_second``
  (reciprocally: higher is better), with the same ``--min-wall`` noise
  exemption.  Catches data-plane slowdowns that wall time alone can hide
  behind a faster host.
- **Determinism gate** — the *simulated* runtimes must match the baseline
  exactly: they are pure outputs of the discrete-event engine and may not
  drift with the host.  Any mismatch means an unintended behaviour change.
- **Streaming gate** — the micro-batch plane's wall-based ingest
  ``records_per_second`` must stay above an absolute floor
  (``--min-stream-rps``) and within the regression threshold of the
  committed baseline; its simulated batch latencies and recovery metrics
  ride the determinism gate like every other simulated time.
- **Long-horizon gate** — the analytic market plane's
  ``simulated_seconds_per_wall_second`` (a 1000-node two-week portfolio
  sweep) must stay above an absolute floor (``--min-sims-per-wall``) and
  within the regression threshold of the baseline: the O(breakpoints)
  billing/market machinery is what keeps month-long 10k-node what-ifs
  interactive.
- **Columnar gate** — the data-plane microbench (row closures vs columnar
  batch kernels) must keep each workload's speedup above an absolute floor
  (``--min-columnar-speedup``) and its columnar tasks/second within the
  regression threshold of the baseline.  Gated counters missing from a
  stale baseline are failures with the re-baseline command in the message,
  never silent skips.

The fresh run replays the committed baseline's columnar plane, so the gate
always compares like-with-like.

Usage:
    PYTHONPATH=src python benchmarks/perf_gate.py \
        [--baseline BENCH_engine.json] [--threshold 0.30] [--out path.json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for path in (_ROOT, os.path.join(_ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.perf_smoke import columnar_comparison, run_smoke  # noqa: E402

#: Relative tolerance for "exact" simulated-time comparison: simulated
#: runtimes are deterministic floats, but give repr/round-tripping through
#: JSON a hair of slack.
_SIM_RTOL = 1e-9


#: The command that rebuilds the committed baseline from scratch.
_REBASELINE = (
    "PYTHONPATH=src python benchmarks/perf_smoke.py --out BENCH_engine.json "
    "--compare-columnar"
)


def _sim_runtimes(entry: dict) -> dict:
    """Every deterministic simulated-seconds metric an entry carries.

    Tolerant of schema drift: a metric absent from one side is simply not
    emitted here — ``compare`` reports the asymmetry instead of crashing.
    """
    out = {}
    fig7 = entry.get("fig7", {})
    if "baseline_runtime" in fig7:
        out["fig7_baseline"] = fig7["baseline_runtime"]
    if "revoked_runtime" in fig7:
        out["fig7_revoked"] = fig7["revoked_runtime"]
    for k, v in entry.get("fig8", {}).get("simulated_runtime_seconds", {}).items():
        out[f"fig8_{k}"] = v
    for k, v in entry.get("multitenant", {}).get("simulated_seconds", {}).items():
        out[f"multitenant_{k}"] = v
    for k, v in entry.get("streaming", {}).get("simulated_seconds", {}).items():
        out[f"streaming_{k}"] = v
    for k, v in entry.get("saturation", {}).get("simulated_seconds", {}).items():
        out[f"saturation_{k}"] = v
    for k, v in entry.get("longhorizon", {}).get("simulated_seconds", {}).items():
        out[f"longhorizon_{k}"] = v
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _SIM_RTOL * max(abs(a), abs(b), 1.0)


def compare(baseline: dict, fresh: dict, threshold: float, min_wall: float,
            min_stream_rps: float = 0.0, min_sims_per_wall: float = 0.0):
    """Returns (failures, notes): gate violations and informational lines."""
    failures = []
    notes = []
    base_workloads = baseline.get("workloads", {})
    for name, fresh_entry in fresh["workloads"].items():
        base_entry = base_workloads.get(name)
        if base_entry is None:
            notes.append(
                f"{name}: no committed baseline entry; not gated "
                f"(re-baseline with: {_REBASELINE})"
            )
            continue
        base_wall = base_entry.get("wall_seconds")
        fresh_wall = fresh_entry["wall_seconds"]
        if base_wall is None:
            failures.append(
                f"{name}: baseline entry has no wall_seconds — the committed "
                f"BENCH_engine.json is stale; re-baseline with: {_REBASELINE}"
            )
            continue
        ratio = fresh_wall / base_wall if base_wall else float("inf")
        line = (
            f"{name}: wall {fresh_wall:.3f}s vs baseline {base_wall:.3f}s "
            f"({(ratio - 1.0) * 100.0:+.1f}%)"
        )
        if base_wall < min_wall:
            notes.append(line + f" [not gated: baseline < {min_wall}s]")
        elif ratio > 1.0 + threshold:
            failures.append(
                line + f" exceeds the {threshold * 100.0:.0f}% regression gate"
            )
        else:
            notes.append(line)
        # Throughput gate: tasks/second may not fall more than the same
        # threshold below the committed baseline (higher is better, so the
        # gate is the wall gate's reciprocal).  Sub-min-wall workloads are
        # exempt for the same noise reason.
        base_tps = base_entry.get("tasks_per_second")
        fresh_tps = fresh_entry.get("tasks_per_second")
        if base_tps is None:
            # A gated counter missing from the committed baseline is a
            # failure, not a shrug: silently skipping it would let a
            # regression in that counter ride in on the stale file.
            failures.append(
                f"{name}: gated counter tasks_per_second is missing from the "
                f"committed baseline (observed fresh value: {fresh_tps}) — "
                f"the baseline predates this gate; re-baseline with: "
                f"{_REBASELINE}"
            )
        elif fresh_tps:
            tps_ratio = fresh_tps / base_tps
            line = (
                f"{name}: throughput {fresh_tps}/s vs baseline {base_tps}/s "
                f"({(tps_ratio - 1.0) * 100.0:+.1f}%)"
            )
            if base_wall < min_wall:
                notes.append(line + f" [not gated: baseline < {min_wall}s]")
            elif tps_ratio < 1.0 / (1.0 + threshold):
                failures.append(
                    line
                    + f" falls below the {threshold * 100.0:.0f}% throughput "
                    f"gate (if intentional, re-baseline with: {_REBASELINE})"
                )
            else:
                notes.append(line)
        # Streaming floor: wall-based ingest records/second may neither fall
        # below the absolute floor nor regress more than the threshold
        # against the committed baseline.
        fresh_rps = fresh_entry.get("records_per_second")
        if fresh_rps is not None:
            base_rps = base_entry.get("records_per_second")
            if base_rps is None:
                failures.append(
                    f"{name}: gated counter records_per_second is missing "
                    f"from the committed baseline (observed fresh value: "
                    f"{fresh_rps}) — the baseline predates the streaming "
                    f"gate; re-baseline with: {_REBASELINE}"
                )
            else:
                rps_ratio = fresh_rps / base_rps
                line = (
                    f"{name}: streaming ingest {fresh_rps} records/s vs "
                    f"baseline {base_rps} records/s "
                    f"({(rps_ratio - 1.0) * 100.0:+.1f}%, "
                    f"floor {min_stream_rps})"
                )
                if fresh_rps < min_stream_rps:
                    failures.append(
                        line + " falls below the streaming records/s floor "
                        f"(if intentional, re-baseline with: {_REBASELINE})"
                    )
                elif rps_ratio < 1.0 / (1.0 + threshold):
                    failures.append(
                        line + f" falls below the {threshold * 100.0:.0f}% "
                        f"throughput gate (if intentional, re-baseline "
                        f"with: {_REBASELINE})"
                    )
                else:
                    notes.append(line)
        # Long-horizon floor: the analytic market plane must keep a wall
        # second worth at least ``min_sims_per_wall`` simulated seconds, and
        # may not regress more than the threshold against the baseline —
        # this is the "10k-node month at interactive speed" guarantee.
        fresh_spw = fresh_entry.get("simulated_seconds_per_wall_second")
        if fresh_spw is not None:
            base_spw = base_entry.get("simulated_seconds_per_wall_second")
            if base_spw is None:
                failures.append(
                    f"{name}: gated counter simulated_seconds_per_wall_second "
                    f"is missing from the committed baseline (observed fresh "
                    f"value: {fresh_spw}) — the baseline predates the "
                    f"long-horizon gate; re-baseline with: {_REBASELINE}"
                )
            else:
                spw_ratio = fresh_spw / base_spw
                line = (
                    f"{name}: long-horizon throughput {fresh_spw:.3g} "
                    f"simulated s per wall s vs baseline {base_spw:.3g} "
                    f"({(spw_ratio - 1.0) * 100.0:+.1f}%, "
                    f"floor {min_sims_per_wall:.3g})"
                )
                if fresh_spw < min_sims_per_wall:
                    failures.append(
                        line + " falls below the simulated-seconds-per-wall-"
                        f"second floor (if intentional, re-baseline with: "
                        f"{_REBASELINE})"
                    )
                elif spw_ratio < 1.0 / (1.0 + threshold):
                    failures.append(
                        line + f" falls below the {threshold * 100.0:.0f}% "
                        f"throughput gate (if intentional, re-baseline "
                        f"with: {_REBASELINE})"
                    )
                else:
                    notes.append(line)
        base_sim = _sim_runtimes(base_entry)
        fresh_sim = _sim_runtimes(fresh_entry)
        for key in sorted(base_sim.keys() & fresh_sim.keys()):
            if not _close(base_sim[key], fresh_sim[key]):
                failures.append(
                    f"{name}: simulated runtime {key} changed "
                    f"{base_sim[key]!r} -> {fresh_sim[key]!r} "
                    "(the engine is no longer behaviour-identical)"
                )
        for key in sorted(base_sim.keys() - fresh_sim.keys()):
            failures.append(
                f"{name}: baseline metric {key} is no longer reported by "
                f"perf_smoke — intentional schema changes need a fresh "
                f"baseline ({_REBASELINE})"
            )
    for name in base_workloads.keys() - fresh["workloads"].keys():
        failures.append(
            f"{name}: present in baseline but missing from fresh run — if the "
            f"workload was removed on purpose, re-baseline with: {_REBASELINE}"
        )
    return failures, notes


def compare_columnar(baseline: dict, fresh: dict, threshold: float,
                     min_speedup: float):
    """Gate the columnar data-plane microbench (``--compare-columnar``).

    Two checks per workload: the columnar-vs-row speedup may not fall below
    the absolute ``min_speedup`` floor, and columnar tasks/second may not
    regress more than ``threshold`` below the committed baseline.  A
    baseline without the ``columnar_comparison`` section fails — it
    predates this gate and must be regenerated.
    """
    failures = []
    notes = []
    base_cmp = baseline.get("columnar_comparison")
    fresh_cmp = fresh.get("columnar_comparison", {})
    if base_cmp is None:
        observed = {
            name: entry.get("speedup") for name, entry in fresh_cmp.items()
        }
        failures.append(
            "columnar_comparison: gated section is missing from the "
            f"committed baseline (observed fresh speedups: {observed}) — "
            f"the baseline predates the columnar gate; re-baseline with: "
            f"{_REBASELINE}"
        )
        return failures, notes
    for name, base_entry in base_cmp.items():
        fresh_entry = fresh_cmp.get(name)
        if fresh_entry is None:
            failures.append(
                f"columnar {name}: present in baseline but missing from the "
                f"fresh run — if the microbench workload was removed on "
                f"purpose, re-baseline with: {_REBASELINE}"
            )
            continue
        speedup = fresh_entry.get("speedup")
        base_speedup = base_entry.get("speedup")
        line = (
            f"columnar {name}: speedup {speedup}x vs baseline "
            f"{base_speedup}x (floor {min_speedup}x)"
        )
        if speedup is None or speedup < min_speedup:
            failures.append(
                line + " — the columnar plane no longer pays for itself on "
                "this workload"
            )
        else:
            notes.append(line)
        base_tps = base_entry.get("columnar_tasks_per_second")
        fresh_tps = fresh_entry.get("columnar_tasks_per_second")
        if base_tps is None:
            failures.append(
                f"columnar {name}: gated counter columnar_tasks_per_second "
                f"is missing from the committed baseline (observed fresh "
                f"value: {fresh_tps}) — re-baseline with: {_REBASELINE}"
            )
        elif fresh_tps:
            tps_ratio = fresh_tps / base_tps
            line = (
                f"columnar {name}: throughput {fresh_tps}/s vs baseline "
                f"{base_tps}/s ({(tps_ratio - 1.0) * 100.0:+.1f}%)"
            )
            if tps_ratio < 1.0 / (1.0 + threshold):
                failures.append(
                    line + f" falls below the {threshold * 100.0:.0f}% "
                    f"throughput gate (if intentional, re-baseline with: "
                    f"{_REBASELINE})"
                )
            else:
                notes.append(line)
    return failures, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline", default=os.path.join(_ROOT, "BENCH_engine.json")
    )
    parser.add_argument(
        "--out", default=os.path.join(_ROOT, "BENCH_engine.fresh.json"),
        help="where to write the fresh perf_smoke report",
    )
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="relative wall-clock regression allowed per workload")
    parser.add_argument("--min-wall", type=float, default=0.2,
                        help="baseline walls below this are reported, not gated")
    parser.add_argument(
        "--min-stream-rps", type=float, default=50_000.0,
        help="absolute floor for streaming ingest records/second (the "
        "committed baseline sits far above it; the floor catches gross "
        "micro-batch-plane regressions even on slow shared runners)",
    )
    parser.add_argument(
        "--min-sims-per-wall", type=float, default=1_000_000.0,
        help="absolute floor for the long-horizon sweep's simulated seconds "
        "per wall second (the committed baseline sits in the tens of "
        "millions; the floor catches an accidental return to per-event "
        "billing even on slow shared runners)",
    )
    parser.add_argument(
        "--min-columnar-speedup", type=float, default=2.5,
        help="absolute floor for the columnar microbench speedup per "
        "workload (the committed baseline sits above 3x; the floor leaves "
        "slack for noisy shared runners)",
    )
    args = parser.parse_args()

    if not os.path.exists(args.baseline):
        print(f"perf gate: no baseline at {args.baseline}")
        print("Nothing to gate against. Generate and commit one with:")
        print(f"    {_REBASELINE}")
        return 2
    try:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
    except json.JSONDecodeError as exc:
        print(f"perf gate: baseline {args.baseline} is not valid JSON ({exc})")
        print(f"Regenerate it with:\n    {_REBASELINE}")
        return 2
    columnar = baseline.get("columnar", "on")
    print(f"perf gate: baseline config columnar={columnar}")
    fresh = run_smoke(args.out, columnar=columnar)
    # The columnar microbench rides along on every gate run: it is cheap
    # (a few seconds) and it is the only evidence that the batch kernels
    # still pay for themselves.
    fresh["columnar_comparison"] = columnar_comparison()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(fresh, fh, indent=2)
        fh.write("\n")
    failures, notes = compare(
        baseline, fresh, args.threshold, args.min_wall,
        min_stream_rps=args.min_stream_rps,
        min_sims_per_wall=args.min_sims_per_wall,
    )
    col_failures, col_notes = compare_columnar(
        baseline, fresh, args.threshold, args.min_columnar_speedup
    )
    failures.extend(col_failures)
    notes.extend(col_notes)
    for note in notes:
        print(f"ok: {note}")
    for failure in failures:
        print(f"FAIL: {failure}")
    total = fresh["totals"]["wall_seconds"]
    print(f"perf gate: {len(failures)} failure(s), fresh total wall {total}s")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
