"""Wall-clock layer spans installed from outside the program.

A traced repetition patches span wrappers around each layer's public entry
points (the table in :func:`entry_points`), runs the workload, and restores
the originals; nothing under ``src/`` changes.  Every span records its
layer, the function it timed, start and end on ``time.perf_counter``, the
index of its parent span and the request or job it served.  A layer's self
time is its spans' durations minus what their child spans cover, so the
self times of all layers, plus the ``root`` span's own residual, add up
to the root span.
"""

from __future__ import annotations

import inspect
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench_stats import ratio, span_self_times

#: Layer names, in report order.  ``root`` is the span around the whole
#: timed part: what the workload's own code does outside every entry point.
LAYERS = (
    "simulation",
    "engine.scheduler",
    "engine.task",
    "workloads",
    "engine.shuffle",
    "engine.block_manager",
    "engine.checkpoint",
    "server",
    "traces",
    "analysis.longrun",
    "market",
    "root",
)


def _public_functions(owner) -> List[str]:
    """Names of the plain functions ``owner`` itself defines (no dunders,
    no private helpers, no properties or static methods)."""
    return [
        name
        for name, value in vars(owner).items()
        if inspect.isfunction(value) and not name.startswith("_")
    ]


def entry_points() -> List[Tuple[str, Any, str]]:
    """``(layer, owner, attribute)`` for every wrapped entry point."""
    from repro.analysis import longrun
    from repro.cluster.environment import Environment
    from repro.engine.block_manager import BlockManager
    from repro.engine.checkpoint import CheckpointRegistry
    from repro.engine.scheduler import JobHandle, TaskRuntime, TaskScheduler
    from repro.engine.shuffle import ShuffleManager
    from repro.market import market as market_mod
    from repro.market.provider import CloudProvider
    from repro.server.jobserver import JobServer
    from repro.simulation.events import EventQueue
    from repro.traces.price_trace import PriceTrace
    from repro.workloads import als, kmeans

    points = [
        ("simulation", Environment, "step"),
        ("simulation", EventQueue, "schedule"),
        ("simulation", EventQueue, "pop"),
        ("engine.scheduler", TaskScheduler, "submit_job"),
        ("engine.scheduler", TaskScheduler, "pump"),
        ("engine.scheduler", JobHandle, "wait"),
        ("engine.task", TaskRuntime, "iterator"),
        # Per-partition kernels only: a span around a per-record combiner
        # such as kmeans._add_vectors would double its cost, so its time
        # stays with the map-side combine in engine.scheduler.
        ("workloads", als, "_solve_factor"),
        ("workloads", kmeans, "_closest"),
        ("workloads", kmeans, "_assign_batch"),
        ("engine.shuffle", ShuffleManager, "register_map_output"),
        ("engine.shuffle", ShuffleManager, "fetch"),
        ("engine.block_manager", BlockManager, "get"),
        ("engine.block_manager", BlockManager, "put"),
        ("engine.block_manager", BlockManager, "remove"),
        ("engine.checkpoint", CheckpointRegistry, "record_write"),
        ("engine.checkpoint", CheckpointRegistry, "read_partition"),
        ("server", JobServer, "submit_query"),
    ]
    points += [("traces", PriceTrace, n) for n in _public_functions(PriceTrace)]
    points += [
        ("analysis.longrun", longrun, n)
        for n in ("run_long_horizon", "select_portfolio")
    ]
    points += [
        ("analysis.longrun", longrun.CanonicalSimulator, n)
        for n in _public_functions(longrun.CanonicalSimulator)
    ]
    points += [("market", CloudProvider, n) for n in _public_functions(CloudProvider)]
    for cls in (market_mod.Market, market_mod.SpotMarket,
                market_mod.OnDemandMarket, market_mod.PreemptibleMarket):
        points += [("market", cls, n) for n in _public_functions(cls)]
    return points


SPAN_FIELDS = ("layer", "name", "start", "end", "parent", "request", "tally")


class Tracer:
    """In-memory span log plus the open-span stack.

    Spans are lists laid out as :data:`SPAN_FIELDS`; ``tally`` is the bytes
    or hit an entry point's counter hook extracted.
    """

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.request: Optional[str] = None
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def _wrap(self, layer: str, name: str, fn: Callable,
              request_of: Optional[Callable] = None,
              tally_of: Optional[Callable] = None) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            outer = tracer.request
            if request_of is not None:
                tracer.request = request_of(args, kwargs) or outer
            span = [layer, name, clock(), 0.0, stack[-1] if stack else -1,
                    tracer.request, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if tally_of is not None:
                    span[6] = tally_of(args, kwargs, result)
                return result
            finally:
                stack.pop()
                tracer.request = outer
                span[3] = clock()

        traced.__wrapped__ = fn
        return traced

    def _wrap_pop(self, fn: Callable) -> Callable:
        """``EventQueue.pop`` hands back its event with the callback wrapped
        in an ``engine.scheduler`` span: what an event callback does outside
        every other entry point is scheduler work (task completions,
        revocations, checkpoint timers, arrivals)."""
        traced_pop = self._wrap("simulation", "EventQueue.pop", fn)
        wrap = self._wrap

        def pop(queue):
            event = traced_pop(queue)
            if event.callback is not None:
                event.callback = wrap("engine.scheduler", f"callback:{event.kind}",
                                      event.callback)
            return event

        return pop

    def root(self, request: str):
        """Open the ``root`` span; returns a closer."""
        assert not self._stack, "root span must be outermost"
        self.request = request
        span = ["root", "repetition", time.perf_counter(), 0.0, -1, request, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)

        def close():
            self._stack.pop()
            span[3] = time.perf_counter()

        return close

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        hooks = _HOOKS
        for layer, owner, attr in entry_points():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            label = f"{getattr(owner, '__name__', owner)}.{attr}"
            if label == "EventQueue.pop":
                wrapped = self._wrap_pop(original)
            else:
                request_of, tally_of = hooks.get(label, (None, None))
                wrapped = self._wrap(layer, label, original, request_of, tally_of)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summaries ----------------------------------------------------------
    def layer_summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: self seconds, span count and the tally sum; plus the
        per-entry-point call and hit counts needed for the layer metrics."""
        selfs = span_self_times([(s[2], s[3], s[4]) for s in self.spans])
        out = {layer: {"self_s": 0.0, "spans": 0} for layer in LAYERS}
        by_name: Dict[str, List[float]] = {}
        for span, own in zip(self.spans, selfs):
            entry = out[span[0]]
            entry["self_s"] += own
            entry["spans"] += 1
            tally = by_name.setdefault(span[1], [0, 0])
            tally[0] += 1
            tally[1] += span[6]
        out["_by_name"] = by_name
        out["_root_s"] = sum(s[3] - s[2] for s in self.spans if s[4] == -1)
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: a header naming the fields, then
        one array per span; a span's id is its line number after the
        header."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


#: Entry points whose spans carry a request id or a tally:
#: ``label -> (request_of(args, kwargs), tally_of(args, kwargs, result))``.
_HOOKS: Dict[str, Tuple[Optional[Callable], Optional[Callable]]] = {
    "JobHandle.wait": (lambda a, k: f"job-{a[0].job_id}", None),
    "JobServer.submit_query": (lambda a, k: k.get("name"), None),
    "ShuffleManager.register_map_output": (None, lambda a, k, r: r.total_bytes),
    "CheckpointRegistry.record_write": (
        None, lambda a, k, r: k["nbytes"] if "nbytes" in k else a[4]),
    "BlockManager.get": (None, lambda a, k, r: 0 if r is None else 1),
}


def layer_metrics(summary: Dict[str, Any], counters: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of one traced repetition, ``name -> (value,
    unit)``.  Call counts and tallies come from the spans (measured at the
    boundary); scheduler, block and server counters from the program's own
    stats, aggregated by :func:`bench_stats.aggregate_counters`."""
    by_name = summary["_by_name"]
    root = summary["_root_s"]

    def calls(*names: str) -> int:
        return sum(by_name.get(n, (0, 0))[0] for n in names)

    def tally(name: str) -> float:
        return by_name.get(name, (0, 0))[1]

    def c(name: str) -> float:
        return counters.get(name, 0)

    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = (ratio(summary[layer]["self_s"], root), "frac")
    gets = calls("BlockManager.get")
    hits, misses = c("resolve_cache_hits"), c("resolve_cache_misses")
    columnar = c("columnar_chains")
    register = "ShuffleManager.register_map_output"
    out.update({
        "simulation.events": (calls("Environment.step"), "count"),
        "engine.scheduler.rounds": (c("scheduling_rounds"), "count"),
        "engine.scheduler.tasks": (c("tasks_completed"), "count"),
        "engine.scheduler.resolve_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "engine.scheduler.rebuild_ratio": (
            ratio(c("readiness_rebuilds"), c("scheduling_rounds")), "ratio"),
        "engine.scheduler.ready_peak": (c("ready_queue_peak"), "count"),
        "engine.scheduler.fetch_failures": (c("fetch_failures"), "count"),
        "engine.task.calls": (summary["engine.task"]["spans"], "count"),
        "engine.task.fused_chains": (c("fused_chains"), "count"),
        "engine.task.columnar_chains": (columnar, "count"),
        "engine.task.columnar_ratio": (
            ratio(columnar, columnar + c("columnar_fallbacks")), "ratio"),
        "workloads.calls": (summary["workloads"]["spans"], "count"),
        "engine.shuffle.map_outputs": (calls(register), "count"),
        "engine.shuffle.bytes": (tally(register), "B"),
        "engine.shuffle.fetches": (calls("ShuffleManager.fetch"), "count"),
        "engine.block_manager.gets": (gets, "count"),
        "engine.block_manager.hit_ratio": (ratio(tally("BlockManager.get"), gets), "ratio"),
        "engine.block_manager.puts": (calls("BlockManager.put"), "count"),
        "engine.block_manager.evictions": (
            c("block_evictions_to_disk") + c("block_drops"), "count"),
        "engine.checkpoint.writes": (calls("CheckpointRegistry.record_write"), "count"),
        "engine.checkpoint.bytes": (tally("CheckpointRegistry.record_write"), "B"),
        "engine.checkpoint.reads": (calls("CheckpointRegistry.read_partition"), "count"),
        "server.submitted": (c("server_submitted"), "count"),
        "server.rejected": (c("server_rejected"), "count"),
        "server.queued_peak": (c("server_queued_peak"), "count"),
        "traces.calls": (summary["traces"]["spans"], "count"),
        "analysis.longrun.jobs": (
            calls("CanonicalSimulator.run_batch_job",
                  "CanonicalSimulator.run_interactive_job"), "count"),
        "market.calls": (summary["market"]["spans"], "count"),
    })
    return out
