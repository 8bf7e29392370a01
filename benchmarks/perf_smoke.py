"""Engine performance smoke: wall-clock timings + scheduler counters.

Times lightweight versions of the Figure 7 (single revocation, no
checkpointing) and Figure 8 (checkpointed failure sweep) engine runs for
each batch workload under the incremental scheduler, plus a scaled-down
multi-tenant serving scenario (job server, fifo vs fair), and emits
``BENCH_engine.json`` with wall-clock per workload, task throughput, and
the ``SchedulerStats`` counters that evidence the O(1)/O(Δ) readiness
machinery (resolve-cache hit rate, rebuild fraction, invalidation counts).

Usage:
    PYTHONPATH=src python benchmarks/perf_smoke.py [--out BENCH_engine.json]
        [--columnar on|off] [--compare-columnar]
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for path in (_ROOT, os.path.join(_ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.conftest import BATCH_WORKLOADS, CLUSTER_SIZE  # noqa: E402
from repro.analysis.experiments import build_engine_context  # noqa: E402
from repro.core.ftmanager import FaultToleranceManager  # noqa: E402
from repro.simulation.clock import HOUR  # noqa: E402

MARKET = "od/r3.large"
FIG8_FAILURES = [0, 1, 5]
CLUSTER_MTTF = 1 * HOUR


def _run_scenario(factory, checkpointing, failures, failure_at):
    """One measured run; returns (simulated_runtime, FlintContext)."""
    ctx = build_engine_context(num_workers=CLUSTER_SIZE)
    manager = None
    if checkpointing:
        manager = FaultToleranceManager(ctx, lambda: CLUSTER_MTTF, min_tau=30.0)
        manager.start()
    workload = factory(ctx)
    workload.load()
    if failures:

        def inject(event):
            victims = ctx.cluster.live_workers()[:failures]
            ctx.cluster.force_revoke(victims)
            ctx.cluster.launch(MARKET, 0.175, count=len(victims), delay=120.0)

        ctx.env.schedule_in(failure_at, "inject-failures", callback=inject)
    t0 = ctx.now
    workload.run()
    runtime = ctx.now - t0
    if manager is not None:
        manager.stop()
    return runtime, ctx


def _add_counters(agg, counters):
    """Fold one counter snapshot into ``agg``, with no field list.

    Numeric fields are summed, except ``*_peak`` high-water marks, which
    take the maximum; non-numeric fields (and bools) are skipped.
    """
    for field, value in counters.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if field.endswith("_peak"):
            agg[field] = max(agg.get(field, value), value)
        else:
            agg[field] = agg.get(field, 0) + value


def _accumulate(agg, ctx):
    """Add one context's ``SchedulerStats`` and its sizing-memo counters."""
    _add_counters(agg, dataclasses.asdict(ctx.scheduler.stats))
    _add_counters(agg, {
        "record_size_memo_hits": ctx.record_size_memo_hits,
        "record_size_memo_misses": ctx.record_size_memo_misses,
    })


def _rate(part, rest):
    total = part + rest
    return round(part / total, 4) if total else None


def _counters_payload(agg):
    """Every aggregated counter, plus the derived rates that evidence the
    readiness and sizing machinery."""
    payload = dict(agg)
    # O(1) evidence: nearly every readiness consult is served from the
    # cache instead of a fresh lineage walk + worker probes.
    payload["resolve_cache_hit_rate"] = _rate(
        agg.get("resolve_cache_hits", 0), agg.get("resolve_cache_misses", 0)
    )
    # O(Δ) evidence: the ready list is rebuilt on a small fraction of
    # rounds; the seed scheduler rebuilt it on every round.
    rounds = agg.get("scheduling_rounds", 0)
    payload["rebuild_fraction"] = (
        round(agg.get("readiness_rebuilds", 0) / rounds, 4) if rounds else None
    )
    # Memoised per-RDD sizing: repeat record-size consults are dict reads,
    # not lineage walks.
    payload["record_size_memo_hit_rate"] = _rate(
        agg.get("record_size_memo_hits", 0), agg.get("record_size_memo_misses", 0)
    )
    return payload


def _smoke_one_workload(factory):
    entry = {}
    agg: dict = {}

    # Figure 7 shape: baseline and one revocation, no checkpointing.
    wall_start = time.perf_counter()
    baseline, ctx = _run_scenario(factory, False, 0, None)
    _accumulate(agg, ctx)
    revoked, ctx = _run_scenario(factory, False, 1, baseline * 0.5)
    _accumulate(agg, ctx)
    entry["fig7"] = {
        "wall_seconds": round(time.perf_counter() - wall_start, 3),
        "baseline_runtime": baseline,
        "revoked_runtime": revoked,
        "increase": round(revoked / baseline - 1.0, 4),
    }

    # Figure 8 shape: checkpointed sweep over concurrent revocation counts.
    wall_start = time.perf_counter()
    runtimes = {}
    base_runtime, ctx = _run_scenario(factory, True, 0, None)
    runtimes["0"] = base_runtime
    _accumulate(agg, ctx)
    for k in FIG8_FAILURES[1:]:
        runtime, ctx = _run_scenario(factory, True, k, base_runtime * 0.5)
        runtimes[str(k)] = runtime
        _accumulate(agg, ctx)
    entry["fig8"] = {
        "wall_seconds": round(time.perf_counter() - wall_start, 3),
        "simulated_runtime_seconds": runtimes,
    }

    wall = entry["fig7"]["wall_seconds"] + entry["fig8"]["wall_seconds"]
    entry["wall_seconds"] = round(wall, 3)
    entry["tasks_completed"] = agg["tasks_completed"]
    entry["tasks_per_second"] = round(agg["tasks_completed"] / wall, 1) if wall else None
    entry["scheduler_counters"] = _counters_payload(agg)
    return entry, agg


def _smoke_multitenant():
    """Scaled-down multi-tenant serving scenario under both policies.

    Wall time and simulated interactive/batch latencies go through the same
    gates as the batch workloads, so server-layer regressions (or behaviour
    drift in the multiplexing scheduler) fail CI like engine ones do.
    """
    from repro.server.scenario import run_multitenant

    entry = {}
    agg: dict = {}
    sims = {}
    wall_start = time.perf_counter()
    for policy in ("fifo", "fair"):
        report = run_multitenant(
            policy=policy, num_workers=4, seed=1234, queries=4,
        )
        pool = report["pools"]["interactive"]
        sims[f"{policy}_interactive_p50"] = pool["p50_response"]
        sims[f"{policy}_interactive_p95"] = pool["p95_response"]
        sims[f"{policy}_batch_response"] = report["pools"]["batch"]["p50_response"]
        _add_counters(agg, report["scheduler_stats"])
        _add_counters(agg, report["sizing"])
    wall = round(time.perf_counter() - wall_start, 3)
    entry["wall_seconds"] = wall
    entry["multitenant"] = {"simulated_seconds": sims}
    entry["tasks_completed"] = agg["tasks_completed"]
    entry["tasks_per_second"] = round(agg["tasks_completed"] / wall, 1) if wall else None
    entry["scheduler_counters"] = _counters_payload(agg)
    return entry, agg


def _smoke_saturation():
    """Open-loop saturation sweep: 1000 seeded clients vs a capped pool.

    Drives the job server's front door at four offered rates spanning the
    knee (capacity is ~11 q/s at 4 workers / pool cap 8): well under, near,
    2x over, and 4x over.  The throughput-vs-p95 curve is the published
    artifact; per-rate p95 and goodput are deterministic simulated outputs
    and ride the determinism gate, so an admission-path or drain-loop
    regression that shifts the knee fails CI.
    """
    from repro.server.loadgen import saturation_curve

    OFFERED = (6.0, 12.0, 24.0, 48.0)
    entry = {}
    agg: dict = {}
    sims = {}
    wall_start = time.perf_counter()
    points = saturation_curve(
        OFFERED, num_clients=1000, queries_per_client=2,
        num_workers=4, seed=7, pool_cap=8, max_queue=512,
    )
    for point in points:
        tag = f"rate{point.offered_rps:g}"
        sims[f"{tag}_p95"] = point.p95_response
        sims[f"{tag}_throughput"] = point.throughput_rps
        _add_counters(agg, point.scheduler_stats)
        _add_counters(agg, point.sizing)
    wall = round(time.perf_counter() - wall_start, 3)
    entry["wall_seconds"] = wall
    entry["saturation"] = {
        "simulated_seconds": sims,
        "clients": points[0].clients,
        "curve": [point.as_dict() for point in points],
    }
    entry["tasks_completed"] = agg["tasks_completed"]
    entry["tasks_per_second"] = round(agg["tasks_completed"] / wall, 1) if wall else None
    entry["scheduler_counters"] = _counters_payload(agg)
    return entry, agg


def _smoke_streaming():
    """The micro-batch plane: throughput, state, windows, and recovery.

    Runs the streaming workload trio (identity pass-through, τ-checkpointed
    stateful wordcount, sliding-window aggregation) plus the revocation
    recovery benchmark.  Wall-based ``records_per_second`` is the streaming
    throughput floor the perf gate holds; the simulated per-batch latencies,
    sustained ingest rates, and recovery metrics are deterministic outputs
    of the engine and go through the determinism gate like fig7/fig8 times.
    """
    import statistics

    from repro.streaming import (
        StreamingIdentityWorkload,
        StreamingWindowWorkload,
        StreamingWordCountWorkload,
        run_recovery_benchmark,
    )

    entry = {}
    agg: dict = {}
    sims = {}
    total_records = 0
    wall_start = time.perf_counter()

    workload_factories = {
        "identity": lambda ctx: StreamingIdentityWorkload(
            ctx, records_per_batch=4_000, partitions=8, num_batches=8,
        ),
        "wordcount": lambda ctx: StreamingWordCountWorkload(
            ctx, lines_per_batch=1_600, partitions=8, num_batches=8, seed=23,
            checkpointing=True, initial_delta=20.0, max_tau=60.0,
        ),
        "window": lambda ctx: StreamingWindowWorkload(
            ctx, records_per_batch=2_000, partitions=8, num_batches=9,
            window=3, slide=2, num_keys=40, seed=31,
        ),
    }
    for name, factory in workload_factories.items():
        ctx = build_engine_context(num_workers=CLUSTER_SIZE)
        workload = factory(ctx)
        workload.load()
        workload.run()
        ssc = workload.ssc
        sims[f"{name}_median_batch_latency"] = statistics.median(ssc.latencies())
        sims[f"{name}_records_per_second"] = ssc.sustained_records_per_second()
        total_records += ssc.total_records()
        _accumulate(agg, ctx)
    trio_wall = time.perf_counter() - wall_start

    # Revoke the whole pool late in the stream; τ-periodic state
    # checkpointing must keep the recovery batch bounded.
    recovery = run_recovery_benchmark(checkpointing=True)
    for key, value in recovery.items():
        sims[f"recovery_{key}"] = value

    wall = round(time.perf_counter() - wall_start, 3)
    entry["wall_seconds"] = wall
    entry["streaming"] = {"simulated_seconds": sims}
    entry["tasks_completed"] = agg["tasks_completed"]
    entry["tasks_per_second"] = round(agg["tasks_completed"] / wall, 1) if wall else None
    entry["records_processed"] = total_records
    # The gate's streaming floor: ingest records pushed through the engine
    # per wall-clock second across the trio (the recovery run's wall is
    # excluded — it deliberately pays a revocation recomputation).
    entry["records_per_second"] = (
        round(total_records / trio_wall, 1) if trio_wall else None
    )
    entry["scheduler_counters"] = _counters_payload(agg)
    return entry, agg


def _smoke_longhorizon():
    """The analytic market plane at scale: a 1000-node, two-week portfolio
    sweep through the canonical-job simulator.

    The sweep exercises the O(breakpoints) machinery end to end — portfolio
    ranking over MTTF estimates (vectorised exceedance queries), per-segment
    billing via closed-form ``mean_price``, and revocation stamping — and
    reports ``simulated_seconds_per_wall_second``, the interactivity metric
    the perf gate floors: month-long 10k-node what-ifs only stay interactive
    while a wall second buys tens of millions of simulated seconds.  Job
    outcomes (cost, revocations) are deterministic simulated outputs and
    ride the determinism gate.
    """
    from repro.analysis.longrun import LongHorizonConfig, run_long_horizon
    from repro.factory import standard_provider

    config = LongHorizonConfig(num_nodes=1000, weeks=2.0, portfolio_size=4)
    wall_start = time.perf_counter()
    report = run_long_horizon(standard_provider(seed=5), config)
    wall = round(time.perf_counter() - wall_start, 3)

    entry = {}
    # One simulated canonical job is this entry's unit of work.  The plane
    # never builds a task graph, so it has no engine counters: the empty
    # ``agg`` keeps its jobs out of the engine totals.
    agg: dict = {}
    entry["wall_seconds"] = wall
    entry["longhorizon"] = {
        "num_nodes": config.num_nodes,
        "weeks": config.weeks,
        "portfolio_size": config.portfolio_size,
        "portfolio": report.portfolio,
        "jobs": report.jobs,
        "simulated_seconds": {
            "total_cost": report.total_cost,
            "total_revocations": report.total_revocations,
            "total_checkpoints": report.total_checkpoints,
            "span": report.simulated_seconds,
        },
        "sweep_wall_seconds": round(report.wall_seconds, 3),
    }
    entry["simulated_seconds_per_wall_second"] = (
        round(report.simulated_seconds_per_wall_second, 1)
    )
    entry["tasks_completed"] = report.jobs
    entry["tasks_per_second"] = round(report.jobs / wall, 1) if wall else None
    entry["scheduler_counters"] = _counters_payload(agg)
    return entry, agg


def run_smoke(out_path: str, columnar: str = "on") -> dict:
    os.environ["FLINT_COLUMNAR"] = columnar
    # Measured runs must never pay (or hide behind) tracing overhead: pin the
    # observability layer off and fail loudly if the env says otherwise, so
    # the committed gate always compares untraced engines.
    os.environ["FLINT_TRACE"] = "0"
    from repro.obs import tracing_enabled_by_env

    assert not tracing_enabled_by_env(), "perf smoke must run with tracing disabled"
    report = {
        "benchmark": "engine_perf_smoke",
        "columnar": columnar,
        "host_cpus": os.cpu_count(),
        "tracing": "disabled",
        "cluster_size": CLUSTER_SIZE,
        "cluster_mttf_seconds": CLUSTER_MTTF,
        "fig8_failure_counts": FIG8_FAILURES,
        "workloads": {},
    }
    total_wall = 0.0
    engine_wall = 0.0
    totals: dict = {}
    smokes = [(name, lambda f=factory: _smoke_one_workload(f))
              for name, factory in BATCH_WORKLOADS.items()]
    smokes.append(("MultiTenant", _smoke_multitenant))
    smokes.append(("MultiTenantSaturation", _smoke_saturation))
    smokes.append(("Streaming", _smoke_streaming))
    smokes.append(("LongHorizon", _smoke_longhorizon))
    for name, smoke in smokes:
        entry, agg = smoke()
        report["workloads"][name] = entry
        total_wall += entry["wall_seconds"]
        if agg:  # workloads that ran the engine (not LongHorizon)
            engine_wall += entry["wall_seconds"]
            _add_counters(totals, agg)
    total_tasks = totals.get("tasks_completed", 0)
    report["totals"] = {
        "wall_seconds": round(total_wall, 3),
        "tasks_completed": total_tasks,
        "tasks_per_second": round(total_tasks / engine_wall, 1) if engine_wall else None,
        "scheduler_counters": _counters_payload(totals),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return report


def columnar_comparison(passes: int = 6) -> dict:
    """Data-plane microbench: row closures vs columnar batch kernels.

    The full smoke's wall clock is scheduler-dominated, so it understates
    what the columnar plane does to the *data plane*.  This bench isolates
    it: the same partitions are pushed through the row-plane closures and
    through ``from_records -> batch kernel -> to_records`` (conversion cost
    included — that is what a fused chain actually pays), asserting the
    outputs are identical.  One task = one partition-pass, mirroring how the
    engine charges fused chains.
    """
    from repro.engine.columnar import from_records
    from repro.engine.scheduler import _combine_sort_key
    from repro.engine.transformations import _ABSENT, _record_hash_key
    from repro.workloads.datagen import generate_clustered_points, initial_centroids
    from repro.workloads.kmeans import _assign_batch, _closest
    from repro.workloads.pagerank import (
        _accumulate_batch,
        _contributions_batch,
        _rank_update_batch,
    )

    comparison = {}

    def bench(name, partitions, row_fn, col_fn):
        row_fn(partitions[0])  # warm both paths outside the timed region
        col_fn(partitions[0])

        def best_pass(fn):
            # Best-of-N passes, one full sweep over the partitions per
            # pass: the minimum excludes GC pauses and allocator noise
            # (the same convention pyperf uses), which would otherwise
            # swamp a millisecond-scale per-task comparison.
            best = None
            out = None
            for _ in range(passes):
                gc.collect()
                t0 = time.perf_counter()
                out = [fn(part) for part in partitions]
                wall = time.perf_counter() - t0
                if best is None or wall < best:
                    best = wall
            return best, out

        row_wall, row_out = best_pass(row_fn)
        col_wall, col_out = best_pass(col_fn)
        assert row_out == col_out, f"{name}: columnar output diverged from row plane"
        tasks = len(partitions)
        comparison[name] = {
            "tasks_per_pass": tasks,
            "passes": passes,
            "records_per_task": len(partitions[0]),
            "row_wall_seconds": round(row_wall, 4),
            "columnar_wall_seconds": round(col_wall, 4),
            "row_tasks_per_second": round(tasks / row_wall, 1) if row_wall else None,
            "columnar_tasks_per_second": (
                round(tasks / col_wall, 1) if col_wall else None
            ),
            "speedup": round(row_wall / col_wall, 2) if col_wall else None,
        }

    # KMeans assignment: the per-record _closest map vs its batch twin.
    k, dim = 12, 8
    centroids = initial_centroids(23, k, dim)
    km_parts = [
        generate_clustered_points(23, p, 2_500, k, dim) for p in range(8)
    ]
    km_assign = lambda p, cs=centroids: (_closest(p, cs), (p, 1))  # noqa: E731
    bench(
        "KMeans",
        km_parts,
        # MappedRDD.compute_fused's literal loop: one closure call per record.
        lambda part: [km_assign(pt) for pt in part],
        lambda part, cs=centroids: _assign_batch(from_records(part), cs).to_records(),
    )

    # PageRank iteration data plane: contribution fan-out, per-destination
    # rank accumulation, and the damping update, over cogroup-shaped
    # records (src, ([dsts-list], [rank])).  The row side is the closure /
    # combiner work the engine streams per record; the columnar side runs
    # the three batch kernels with one conversion in and one out.
    def pr_partition(p, vertices=2_500, fanout=32, universe=5_000):
        return [
            (
                p * vertices + v,
                (
                    [[(v * 31 + j * 7 + p) % universe for j in range(fanout)]],
                    [1.0 + (v % 17) / 16.0],
                ),
            )
            for v in range(vertices)
        ]

    def pr_contributions(kv):
        # Same body as PageRankWorkload.run's per-record closure.
        _src, (link_groups, rank_values) = kv
        if not link_groups or not rank_values:
            return []
        dsts = link_groups[0]
        rank = rank_values[0]
        share = rank / len(dsts)
        return [(d, share) for d in dsts]

    pr_create = lambda v: v  # noqa: E731 - reduce_by_key's create_combiner
    pr_combine = lambda a, b: a + b  # noqa: E731 - the reduce_by_key lambda
    pr_damp = lambda total: 0.15 + 0.85 * total  # noqa: E731
    # map_values wraps the value fn in a per-record pair lambda; the row
    # plane pays both calls per record, so the bench must too.
    pr_damp_record = lambda kv: (kv[0], pr_damp(kv[1]))  # noqa: E731
    pr_buckets = 8  # the workload's reduce partition count

    def pr_row(part):
        # The row plane's per-iteration sequence, verbatim from the engine:
        # flat_map (FlatMappedRDD.compute_fused's extend loop), map-side
        # combine (_execute_map's sentinel-get + create/merge per record),
        # bucket distribution + per-bucket hash sort (the shuffle write),
        # the reduce-side combiner merge, hash-ordered output, and the
        # damping map.  The columnar side produces the identical output
        # with batch kernels, so the aggregate machinery collapses into
        # two bincounts.
        contribs = []
        extend = contribs.extend
        for kv in part:
            extend(pr_contributions(kv))
        combined = {}
        get = combined.get
        for key, value in contribs:
            prev = get(key, _ABSENT)
            combined[key] = (
                pr_create(value) if prev is _ABSENT else pr_combine(prev, value)
            )
        tables = [[] for _ in range(pr_buckets)]
        for item in combined.items():
            tables[(item[0] & 0x7FFFFFFF) % pr_buckets].append(item)
        buckets = [
            sorted(t, key=_combine_sort_key) if len(t) > 1 else t for t in tables
        ]
        merged = {}
        get = merged.get
        for bucket in buckets:
            for key, value in bucket:
                prev = get(key, _ABSENT)
                merged[key] = (
                    value if prev is _ABSENT else pr_combine(prev, value)
                )
        reduced = sorted(merged.items(), key=_record_hash_key)
        return [pr_damp_record(kv) for kv in reduced]

    def pr_col(part):
        batch = _contributions_batch(from_records(part))
        return _rank_update_batch(_accumulate_batch(batch)).to_records()

    pr_parts = [pr_partition(p) for p in range(8)]
    bench("PageRank", pr_parts, pr_row, pr_col)
    return comparison


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=os.path.join(_ROOT, "BENCH_engine.json"))
    parser.add_argument(
        "--columnar", default="on", choices=["on", "off"],
        help="columnar batch-kernel plane for fused chains (FLINT_COLUMNAR)",
    )
    parser.add_argument(
        "--compare-columnar", action="store_true",
        help="also run the data-plane microbench (row closures vs columnar "
        "batch kernels) and record per-workload speedups in the report",
    )
    args = parser.parse_args()
    report = run_smoke(args.out, columnar=args.columnar)
    if args.compare_columnar:
        report["columnar_comparison"] = columnar_comparison()
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    for name, entry in report["workloads"].items():
        counters = entry["scheduler_counters"]
        if "fig7" in entry:
            breakdown = (
                f"(fig7 {entry['fig7']['wall_seconds']}s, "
                f"fig8 {entry['fig8']['wall_seconds']}s), "
            )
        elif "multitenant" in entry:
            sims = entry["multitenant"]["simulated_seconds"]
            breakdown = (
                f"(interactive p95 fifo {sims['fifo_interactive_p95']:.2f}s "
                f"vs fair {sims['fair_interactive_p95']:.2f}s), "
            )
        elif "saturation" in entry:
            curve = entry["saturation"]["curve"]
            knee = " ".join(
                f"{p['offered_rps']:g}->{p['throughput_rps']:.1f}q/s"
                f"@p95={p['p95_response']:.2f}s"
                for p in curve
            )
            breakdown = (
                f"({entry['saturation']['clients']} clients, {knee}), "
            )
        elif "longhorizon" in entry:
            horizon = entry["longhorizon"]
            sims = horizon["simulated_seconds"]
            breakdown = (
                f"({horizon['num_nodes']} nodes x {horizon['weeks']:g} weeks, "
                f"{horizon['jobs']} jobs, "
                f"{entry['simulated_seconds_per_wall_second']:.3g} sim s/wall s, "
                f"cost {sims['total_cost']:.2f}), "
            )
        else:
            sims = entry["streaming"]["simulated_seconds"]
            breakdown = (
                f"(ingest {entry['records_per_second']} records/s wall, "
                f"recovery batch {sims['recovery_recovery_batch_latency']:.2f}s "
                f"sim), "
            )
        print(
            f"{name}: {entry['wall_seconds']}s wall "
            + breakdown
            + f"{entry['tasks_completed']} tasks ({entry['tasks_per_second']}/s), "
            f"resolve hit rate {counters['resolve_cache_hit_rate']}, "
            f"rebuild fraction {counters['rebuild_fraction']}, "
            f"fused chains {counters.get('fused_chains', 0)}, "
            f"sizing memo hit rate {counters['record_size_memo_hit_rate']}"
        )
    totals = report["totals"]
    print(
        f"total: {totals['wall_seconds']}s wall, "
        f"{totals['tasks_completed']} tasks ({totals['tasks_per_second']}/s)"
    )
    for name, cmp in report.get("columnar_comparison", {}).items():
        print(
            f"columnar {name}: {cmp['row_tasks_per_second']} tasks/s row vs "
            f"{cmp['columnar_tasks_per_second']} tasks/s columnar "
            f"({cmp['speedup']}x, {cmp['records_per_task']} records/task)"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
