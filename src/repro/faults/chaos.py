"""Randomized-but-seeded chaos driver over the fault-plan space.

Generates hundreds of seeded :class:`FaultPlan` specs across two families —
``revocation`` (single kills, correlated bursts, delayed/lost warnings,
false alarms) and ``io`` (checkpoint write failures, mid-fetch map-output
loss, stragglers) — and runs each against PageRank/ALS/KMeans via
:func:`repro.faults.harness.run_with_plan`.  An opt-in
``multijob`` family (paired with the ``MultiJob`` workload) repeats the
revocation/fetch-kill mix while at least two jobs are multiplexed, checking
the per-job and per-pool scheduler books on every fault.

Every plan derives deterministically from ``(master_seed, seed)``, so any
failure replays from one line::

    python -m repro.faults.chaos --replay-seed 57 --workload PageRank --family io

Usage::

    python -m repro.faults.chaos --seeds 10 --workload PageRank
    python -m repro.faults.chaos --seeds 5            # full matrix, 5 seeds/cell
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.engine.context import FlintContext
from repro.faults.harness import run_reference, run_with_plan
from repro.obs.export import write_chrome_trace, write_jsonl
from repro.workloads import ALSWorkload, KMeansWorkload, PageRankWorkload

NUM_WORKERS = 6
PARTITIONS = 8
WORKLOAD_SEED = 7
#: Fixed MTTF fed to the checkpointing policy so τ lands inside these jobs.
MTTF = 1800.0

FAMILIES = ("revocation", "io")
#: Opt-in families outside the default matrix (kept stable at 120 plans);
#: ``multijob`` stresses the scheduler with >=2 jobs in flight per fault,
#: ``streaming`` lands revocations mid-window and mid-state-checkpoint on
#: the micro-batch plane (paired with the ``Streaming`` workload), and
#: ``tenancy`` drops revocations and fetch-kills on the hardened job server
#: while the journal and the invariant-checked result cache are live
#: (paired with the ``Tenancy`` workload).
EXTRA_FAMILIES = ("multijob", "streaming", "tenancy")


def _pagerank(ctx: FlintContext):
    return PageRankWorkload(
        ctx, data_gb=0.5, num_edges=1600, num_vertices=400,
        partitions=PARTITIONS, iterations=4, seed=WORKLOAD_SEED,
    )


def _kmeans(ctx: FlintContext):
    return KMeansWorkload(
        ctx, data_gb=1.0, num_points=800, k=4, dim=4,
        partitions=PARTITIONS, iterations=4, distance_cost=6.0, seed=WORKLOAD_SEED,
    )


def _als(ctx: FlintContext):
    return ALSWorkload(
        ctx, data_gb=1.0, num_ratings=900, num_users=120, num_items=60,
        partitions=PARTITIONS, iterations=3, solve_cost=4.0, seed=WORKLOAD_SEED,
    )


class _MultiJobWorkload:
    """PageRank in the foreground with a shuffled aggregation job in flight.

    ``run()`` submits the background action through the non-blocking
    ``submit_job`` surface before starting PageRank's blocking iterations,
    so every injected fault lands while at least two jobs are multiplexed.
    The reference run takes the identical path, keeping results comparable.
    """

    def __init__(self, ctx: FlintContext):
        self.ctx = ctx
        self.pagerank = _pagerank(ctx)
        source = ctx.generate(
            lambda p: [(p * 37 + i) % 211 for i in range(60)],
            num_partitions=PARTITIONS,
            record_size=64_000,
            name="mj-source",
        )
        self.background = (
            source.key_by(lambda v: v % 13).reduce_by_key(lambda a, b: a + b)
        )

    def load(self) -> None:
        self.pagerank.load()

    def run(self):
        handle = self.ctx.submit_job(self.background, len, name="mj-background")
        ranks = self.pagerank.run()
        background = handle.wait()
        return ranks, background


class _StreamingChaosWorkload:
    """Stateful wordcount + a sliding window on one micro-batch driver.

    Faults land while operator state is live: a ``ckpt:N`` revocation hits
    mid-state-checkpoint (the policy's write tasks are in flight), a
    ``time:T`` one lands mid-window (the unioned parent batches are cached
    and unreplicated, so killing their holder is last-replica state-block
    loss), and the stream must still converge to the failure-free result.
    """

    BATCHES = 8

    def __init__(self, ctx: FlintContext):
        from repro.streaming import StreamingContext
        from repro.streaming.workloads import (
            VOCABULARY,
            _add,
            _sorted_collect,
            _split_words,
            _sum_update,
            _word_one,
        )

        self.ctx = ctx
        self.ssc = StreamingContext(ctx, batch_interval=30.0)
        text = self.ssc.text_stream(
            800, PARTITIONS, VOCABULARY, seed=WORKLOAD_SEED, record_size=100_000
        )
        counts = (
            text.flat_map(_split_words)
            .map(_word_one)
            .reduce_by_key(_add, PARTITIONS)
        )
        self.state = counts.update_state_by_key(
            _sum_update, PARTITIONS, record_size=25_000
        )
        self.state.count_per_batch("keys")
        events = self.ssc.event_stream(
            600, PARTITIONS, 30, seed=WORKLOAD_SEED,
            record_size=100_000, value_range=(1, 5), label="ev", name="ev",
        )
        events.persist()
        windowed = events.reduce_by_key_and_window(
            _add, window=3, slide=2, num_partitions=PARTITIONS
        )
        windowed.foreach_rdd(_sorted_collect, "window")
        self.ssc.enable_state_checkpointing(MTTF, initial_delta=10.0, max_tau=60.0)

    def load(self) -> None:
        pass

    def run(self):
        self.ssc.run(self.BATCHES)
        final = tuple(sorted(self.state.latest_rdd.collect()))
        return (
            tuple(self.ssc.results("keys")),
            tuple(self.ssc.results("window")),
            final,
        )


class _TenancyChaosWorkload:
    """The hardened multi-tenant job server under engine faults.

    Three retry-enabled analyst tenants issue TPC-H Q3 through the result
    cache (``validate=True``: every hit recomputes and asserts equality)
    while a batch tenant runs PageRank, all journalled to a scratch JSONL
    file.  Tenancy limits are generous on purpose — admission decisions must
    not depend on fault-perturbed timing, so the faulted run and the
    failure-free reference shed nothing and their results stay bit-identical.
    ``run()`` returns only timing-independent values: each query's result
    digest and the final admission counts (which are exact because nothing
    is shed).
    """

    QUERIES_PER_ANALYST = 2
    ANALYSTS = 3

    def __init__(self, ctx: FlintContext):
        import tempfile

        from repro.server.clients import ClosedLoopClient
        from repro.server.jobserver import JobServer, PoolConfig, ServerConfig
        from repro.server.result_cache import ResultCache, lineage_fingerprint
        from repro.server.tenancy import RetryPolicy, TenancyConfig, TenantPolicy
        from repro.workloads import TPCHSession

        self.ctx = ctx
        fd, self.journal_path = tempfile.mkstemp(
            prefix="chaos-tenancy-", suffix=".jsonl"
        )
        os.close(fd)
        self.server = JobServer(ctx, ServerConfig(
            scheduling_policy="fair",
            max_queue=64,
            pools=(
                PoolConfig("interactive", policy="fifo", weight=4.0,
                           priority="interactive"),
                PoolConfig("batch", policy="fifo", weight=1.0,
                           priority="batch"),
            ),
            tenancy=TenancyConfig(default=TenantPolicy(
                max_in_flight=64, breaker_threshold=50,
            )),
            journal_path=self.journal_path,
            result_cache=ResultCache(validate=True),
        ))
        self.session = TPCHSession(
            ctx, data_gb=1.0, lineitem_rows=2_000, orders_rows=500,
            customer_rows=200, partitions=PARTITIONS, seed=WORKLOAD_SEED,
        )
        self.pagerank = _pagerank(ctx)
        self._q3_key: Optional[str] = None
        self._retry = RetryPolicy(max_attempts=3)
        self._make_client = ClosedLoopClient
        self._fingerprint = lineage_fingerprint

    def load(self) -> None:
        self.session.load()
        self.pagerank.load()
        self._q3_key = self._fingerprint(
            self.session.q3_plan(), action="collect", params=("q3-top10",)
        )

    def run(self):
        analysts = [
            self._make_client(
                self.server, self.session.q3, pool="interactive",
                name=f"analyst-{i}", think_time=20.0,
                max_queries=self.QUERIES_PER_ANALYST, master_seed=WORKLOAD_SEED,
                tenant=f"analyst-{i}", cache_key=self._q3_key,
                retry_policy=self._retry,
            )
            for i in range(self.ANALYSTS)
        ]
        for i, analyst in enumerate(analysts):
            analyst.start(delay=5.0 + i)
        ranks = self.server.run_query(
            self.pagerank.run, pool="batch", name="pagerank", tenant="batch"
        )
        env = self.ctx.env
        while not all(a.finished for a in analysts):
            if not env.events:
                raise RuntimeError("tenancy chaos workload stalled")
            env.step()
            self.ctx.scheduler.pump()
        queries = tuple(
            (r.name, repr(r.result))
            for r in sorted(self.server.records, key=lambda r: r.name)
            if r.pool == "interactive"
        )
        stats = self.server.stats
        counts = (stats.submitted, stats.completed, stats.failed,
                  stats.rejected, sum(a.retries for a in analysts))
        self.server.close()
        try:
            os.unlink(self.journal_path)
        except OSError:
            pass
        return tuple(sorted(ranks)), queries, counts


CHAOS_WORKLOADS: Dict[str, Callable[[FlintContext], object]] = {
    "PageRank": _pagerank,
    "KMeans": _kmeans,
    "ALS": _als,
}

#: Workloads outside the default matrix, runnable via ``--workload``.
EXTRA_WORKLOADS: Dict[str, Callable[[FlintContext], object]] = {
    "MultiJob": _MultiJobWorkload,
    "Streaming": _StreamingChaosWorkload,
    "Tenancy": _TenancyChaosWorkload,
}


# ----------------------------------------------------------------------
# Seeded plan generation
# ----------------------------------------------------------------------
def generate_spec(seed: int, family: str, master_seed: int = 0) -> str:
    """One deterministic plan spec for ``(master_seed, seed, family)``."""
    if family not in FAMILIES + EXTRA_FAMILIES:
        raise ValueError(
            f"unknown fault family {family!r} (expected {FAMILIES + EXTRA_FAMILIES})"
        )
    rng = random.Random(f"{master_seed}/{seed}/{family}")
    if family == "revocation":
        return _revocation_spec(rng)
    if family == "multijob":
        return _multijob_spec(rng)
    if family == "streaming":
        return _streaming_spec(rng)
    if family == "tenancy":
        return _tenancy_spec(rng)
    return _io_spec(rng)


def _revocation_spec(rng: random.Random) -> str:
    """Kills: task-boundary, mid-stage, bursts, warning variants."""
    clauses: List[str] = []
    # Never kill below a 2-worker floor so the job can always finish.
    budget = NUM_WORKERS - 2
    for _ in range(rng.randint(1, 3)):
        if budget <= 0:
            break
        trigger = rng.choice(
            [
                f"task:{rng.randint(2, 120)}",
                f"dispatch:{rng.randint(2, 120)}",
                f"time:{rng.randint(10, 600)}",
                f"ckpt:{rng.randint(1, 3)}",
            ]
        )
        count = rng.randint(1, min(2, budget))
        budget -= count
        parts = [f"revoke at={trigger}"]
        if count > 1:
            parts.append(f"count={count}")
        warn = rng.choice([None, None, 15, 60, 120])
        if warn is not None:
            parts.append(f"warn={warn}")
        replace = rng.choice([None, 60, 120])
        if replace is not None:
            parts.append(f"replace={replace}")
        clauses.append(" ".join(parts))
    if rng.random() < 0.3:
        clauses.append(f"warn at=task:{rng.randint(2, 60)}")
    return "; ".join(clauses)


def _io_spec(rng: random.Random) -> str:
    """I/O faults: checkpoint write failures, fetch-time loss, stragglers."""
    clauses: List[str] = []
    picks = rng.sample(["ckpt-fail", "fetch-kill", "slow"], k=rng.randint(1, 3))
    for kind in picks:
        if kind == "ckpt-fail":
            clauses.append(
                f"ckpt-fail at=ckpt:{rng.randint(1, 4)} count={rng.randint(1, 2)}"
            )
        elif kind == "fetch-kill":
            clauses.append(f"fetch-kill at=fetch:{rng.randint(1, 30)}")
        else:
            clauses.append(
                f"slow at=dispatch:{rng.randint(1, 80)} "
                f"factor={round(rng.uniform(2.0, 6.0), 1)} "
                f"worker={rng.randint(0, NUM_WORKERS - 1)}"
            )
    if rng.random() < 0.4:
        clauses.append(f"revoke at=task:{rng.randint(5, 100)} replace=120")
    return "; ".join(clauses)


def _multijob_spec(rng: random.Random) -> str:
    """Concurrent-job stress: revocations and fetch-kills while >=2 jobs run.

    Both fault kinds always appear — a revocation tears cross-job state
    (both jobs lose cached blocks and running tasks at once) and a
    fetch-kill lands mid-shuffle on whichever job fetches next.
    """
    clauses: List[str] = [
        f"revoke at={rng.choice(['task', 'dispatch'])}:{rng.randint(2, 60)} replace=120",
        f"fetch-kill at=fetch:{rng.randint(1, 20)}",
    ]
    if rng.random() < 0.5:
        clauses.append(f"revoke at=time:{rng.randint(20, 300)} replace=120")
    if rng.random() < 0.3:
        clauses.append(f"fetch-kill at=fetch:{rng.randint(21, 40)}")
    return "; ".join(clauses)


def _streaming_spec(rng: random.Random) -> str:
    """Streaming faults: revocations mid-window, mid-state-checkpoint, and
    last-replica cached-state loss (streaming caches are unreplicated, so
    revoking a state partition's holder always kills the last copy).

    Every revocation carries ``replace=`` — the stream is long-lived and
    must keep meeting batch deadlines on a replenished pool.
    """
    clauses: List[str] = [
        rng.choice(
            [
                # Mid-state-checkpoint: the Nth checkpoint write dispatch
                # has the policy's state write tasks in flight.
                f"revoke at=ckpt:{rng.randint(1, 4)} replace={rng.choice([60, 90])}",
                # Mid-window / mid-state: time-triggered kill while window
                # parents and the state generation sit in cache.
                f"revoke at=time:{rng.randint(40, 220)} replace={rng.choice([60, 120])}",
            ]
        )
    ]
    if rng.random() < 0.6:
        count = rng.randint(1, 2)
        parts = [f"revoke at=task:{rng.randint(10, 90)}", f"replace={rng.choice([90, 120])}"]
        if count > 1:
            parts.insert(1, f"count={count}")
        clauses.append(" ".join(parts))
    if rng.random() < 0.4:
        clauses.append(
            f"ckpt-fail at=ckpt:{rng.randint(1, 3)} count={rng.randint(1, 2)}"
        )
    if rng.random() < 0.4:
        clauses.append(f"fetch-kill at=fetch:{rng.randint(1, 25)}")
    return "; ".join(clauses)


def _tenancy_spec(rng: random.Random) -> str:
    """Serving-plane faults: revocations and fetch-kills while the hardened
    job server multiplexes analyst queries, cache validations, and a batch
    job.  Every revocation carries ``replace=`` — the server is long-lived
    and admitted queries must eventually finish on a replenished pool.
    """
    clauses: List[str] = [
        rng.choice(
            [
                f"revoke at=task:{rng.randint(2, 80)} replace={rng.choice([60, 120])}",
                f"revoke at=time:{rng.randint(20, 400)} replace={rng.choice([60, 120])}",
                f"revoke at=dispatch:{rng.randint(2, 80)} replace=120",
            ]
        )
    ]
    if rng.random() < 0.5:
        clauses.append(f"fetch-kill at=fetch:{rng.randint(1, 25)}")
    if rng.random() < 0.4:
        clauses.append(
            f"revoke at=time:{rng.randint(400, 900)} replace={rng.choice([60, 120])}"
        )
    if rng.random() < 0.3:
        clauses.append(
            f"slow at=dispatch:{rng.randint(1, 60)} "
            f"factor={round(rng.uniform(2.0, 5.0), 1)} "
            f"worker={rng.randint(0, NUM_WORKERS - 1)}"
        )
    return "; ".join(clauses)


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
@dataclass
class ChaosFailure:
    """One plan that broke an invariant, with its full replay recipe."""

    seed: int
    master_seed: int
    workload: str
    family: str
    spec: str
    violations: List[str]
    #: Trace files written for this failure (``--trace-failures DIR``).
    trace_paths: List[str] = field(default_factory=list)

    def replay_command(self) -> str:
        return (
            "python -m repro.faults.chaos"
            f" --replay-seed {self.seed} --master-seed {self.master_seed}"
            f" --workload {self.workload} --family {self.family}"
        )


@dataclass
class ChaosReport:
    """Outcome of one chaos sweep."""

    plans_run: int = 0
    faults_fired: int = 0
    checks_run: int = 0
    failures: List[ChaosFailure] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures


def run_chaos(
    seeds: Sequence[int],
    workloads: Optional[Sequence[str]] = None,
    families: Optional[Sequence[str]] = None,
    master_seed: int = 0,
    verbose: bool = False,
    trace_dir: Optional[str] = None,
) -> ChaosReport:
    """Sweep ``seeds`` x workloads x families; never raises.

    The failure-free reference run is computed once per workload and
    shared across every plan for it.  With ``trace_dir``
    set, every failing plan is deterministically rerun with tracing
    enabled and its Chrome trace + JSONL event log land in that directory.
    """
    workloads = list(workloads or CHAOS_WORKLOADS)
    families = list(families or FAMILIES)
    report = ChaosReport()
    started = time.perf_counter()
    for workload_name in workloads:
        factory = {**CHAOS_WORKLOADS, **EXTRA_WORKLOADS}[workload_name]
        reference = run_reference(
            factory, NUM_WORKERS, checkpointing=True, mttf=MTTF
        )
        for family in families:
            for seed in seeds:
                spec = generate_spec(seed, family, master_seed)
                try:
                    run = run_with_plan(
                        factory,
                        spec,
                        num_workers=NUM_WORKERS,
                        checkpointing=True,
                        mttf=MTTF,
                        reference=reference,
                        raise_on_violation=False,
                    )
                    violations = run.violations
                    report.faults_fired += len(run.faults_fired)
                    report.checks_run += run.checks_run
                except Exception as exc:  # engine crash = chaos failure
                    violations = [f"unhandled {type(exc).__name__}: {exc}"]
                report.plans_run += 1
                if violations:
                    failure = ChaosFailure(
                        seed, master_seed, workload_name, family, spec, violations,
                    )
                    if trace_dir is not None:
                        _trace_failure(factory, failure, reference, trace_dir)
                    report.failures.append(failure)
                    _print_failure(failure)
                elif verbose:
                    print(f"ok seed={seed} {workload_name}/{family}: {spec!r}")
    report.wall_seconds = round(time.perf_counter() - started, 2)
    return report


def _trace_failure(
    factory: Callable[[FlintContext], object],
    failure: ChaosFailure,
    reference: tuple,
    trace_dir: str,
) -> None:
    """Rerun one failing plan with tracing on; write its timeline to disk.

    The rerun is deterministic (same spec, same seed substrate), so the
    trace shows the same fault sequence that produced the violations.
    """
    os.makedirs(trace_dir, exist_ok=True)
    stem = f"{failure.workload}-{failure.family}-seed{failure.seed}"
    try:
        run = run_with_plan(
            factory,
            failure.spec,
            num_workers=NUM_WORKERS,
            checkpointing=True,
            mttf=MTTF,
            reference=reference,
            raise_on_violation=False,
            trace=True,
        )
    except Exception as exc:
        print(f"  trace rerun failed: {type(exc).__name__}: {exc}")
        return
    trace_path = os.path.join(trace_dir, f"{stem}.trace.json")
    events_path = os.path.join(trace_dir, f"{stem}.events.jsonl")
    write_chrome_trace(run.event_log, trace_path)
    write_jsonl(run.event_log, events_path)
    failure.trace_paths = [trace_path, events_path]


def _print_failure(failure: ChaosFailure) -> None:
    print(
        f"CHAOS FAILURE seed={failure.seed} master_seed={failure.master_seed} "
        f"workload={failure.workload} family={failure.family}"
    )
    print(f"  plan: {failure.spec}")
    for violation in failure.violations:
        print(f"  violation: {violation}")
    for path in failure.trace_paths:
        print(f"  trace: {path}")
    print(f"  replay: {failure.replay_command()}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Seeded chaos sweep over the fault-plan space."
    )
    parser.add_argument("--seeds", type=int, default=10, help="seeds per matrix cell")
    parser.add_argument("--seed-base", type=int, default=0, help="first seed value")
    parser.add_argument("--master-seed", type=int, default=0)
    parser.add_argument(
        "--workload",
        choices=sorted(CHAOS_WORKLOADS) + sorted(EXTRA_WORKLOADS),
        default=None,
    )
    parser.add_argument("--family", choices=FAMILIES + EXTRA_FAMILIES, default=None)
    parser.add_argument(
        "--replay-seed", type=int, default=None,
        help="re-run exactly one seed (use with --workload/--family)",
    )
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument(
        "--trace-failures", metavar="DIR", default=None,
        help="rerun each failing plan with tracing and write Chrome trace "
        "+ JSONL event log into DIR",
    )
    args = parser.parse_args(argv)

    if args.replay_seed is not None:
        seeds: Sequence[int] = [args.replay_seed]
    else:
        seeds = range(args.seed_base, args.seed_base + args.seeds)
    report = run_chaos(
        seeds,
        workloads=[args.workload] if args.workload else None,
        families=[args.family] if args.family else None,
        master_seed=args.master_seed,
        verbose=args.verbose or args.replay_seed is not None,
        trace_dir=args.trace_failures,
    )
    print(
        f"chaos: {report.plans_run} plans, {report.faults_fired} faults fired, "
        f"{report.checks_run} invariant checks, {len(report.failures)} failures "
        f"({report.wall_seconds}s)"
    )
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
