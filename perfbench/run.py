"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see ``BENCHMARK.json`` for why each was chosen):
``als-revocation``, ``kmeans-checkpoint``, ``serve-open-loop``,
``market-longhorizon``.

A run first repeats the workload once at the reference seed and compares
its simulated outputs with the values recorded in ``golden.json``; then it
repeats the workload at ``--seed`` until ``--seconds`` have passed (at
least three times).  Every repetition sets up afresh (generate inputs,
build contexts, load), several times over so that set-up is measured on
enough samples, and is checked: revoked runs must return their
failure-free result, KMeans must match a NumPy Lloyd's, every query must
be accounted for and return 64, and the simulated outputs of all
repetitions of one seed must be identical.

With ``--trace 0`` the end-to-end metrics come from untraced repetitions:
the medians of the timed part (``wall_ref_s``) and of every set-up
(``setup_s``), plus the process's ``peak_rss_mb``.  The times are host
seconds rescaled to a reference host speed by calibration samples taken
just before them (:class:`Calibration`); the raw host seconds are
printed beside them as ``wall_host_s`` and ``setup_host_s``, and the
simulated seconds swept per second as ``sim_s_per_ref_s`` and
``sim_s_per_wall_s``.  With ``--trace 1`` traced and untraced repetitions
alternate; the traced ones wrap every layer's entry points in spans
(``bench_trace.py``) and give the per-layer metrics, and the spans of the
last one are written to ``.bench_out/spans-<workload>.jsonl``.

Every metric is printed as ``metric <name> <value> <unit>``; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any correctness check failed and 2
when the plane switches do not resolve to their defaults.

``golden.json`` holds the simulated outputs at the reference seed.  After
an intended change of those outputs, update it by hand from the ``sim:``
line of a run at ``--seed 0``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

import bench_trace  # noqa: E402
from bench_stats import median, ratio  # noqa: E402
from bench_workloads import WORKLOADS, Evaluation  # noqa: E402

GOLDEN_PATH = os.path.join(HERE, "golden.json")
REFERENCE_SEED = 0
MIN_REPS = 3

#: What a context must resolve the plane switches (``FLINT_SCHEDULER``,
#: ``FLINT_FUSION``, ``FLINT_COLUMNAR``, ``FLINT_EXECUTOR``, ``FLINT_TRACE``,
#: ``FLINT_PROFILE``, ``FLINT_FAULT_PLAN``) to: the benchmark measures the
#: default program only, untraced, unprofiled and without injected faults.
DEFAULT_PLANES = {
    "scheduler": "incremental",
    "fusion": True,
    "columnar": True,
    "executor": "inline",
    "trace": False,
    "profile": False,
    "fault_plan": False,
}

#: The end-to-end metrics of an untraced run and their units.  The times
#: are at the reference host speed (see :class:`Calibration`).
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Host seconds a repetition spends setting up: it takes a calibration
#: sample and sets up again (after a full garbage collection of the state
#: before) until this much time has passed, and runs the last state.  One
#: set-up takes 3 to 150 ms and single samples spread 15-35% IQR/median on
#: a shared host, so ``setup_s`` is the median over many, each rescaled by
#: the calibration sample taken just before it.
SETUP_WORK_S = 0.25

#: One calibration sample's duration on the reference host.
REFERENCE_CAL_S = 0.05

#: Units of the headline simulated outputs a workload may report.
SIM_UNITS = {
    "sim_makespan_s": "s",
    "sim_recompute_overhead": "frac",
    "sim_p50_s": "s",
    "sim_p99_s": "s",
    "sim_max_rate_qps": "q/s",
    "sim_goodput_qps": "q/s",
    "sim_cost_usd": "USD",
}


def effective_planes() -> dict:
    """The plane settings a context actually resolves to."""
    from repro.analysis.experiments import build_engine_context
    from repro.engine.profiling import profiling_enabled_by_env
    from repro.obs import tracing_enabled_by_env

    ctx = build_engine_context(num_workers=1)
    return {
        "scheduler": ctx.scheduler.mode,
        "fusion": ctx.fusion_enabled,
        "columnar": ctx.columnar_enabled,
        "executor": ctx.executor.name,
        "trace": tracing_enabled_by_env(),
        "profile": profiling_enabled_by_env(),
        "fault_plan": ctx.fault_injector is not None,
    }


class Calibration:
    """Three fixed kernels: a pure-Python loop, a NumPy search-and-sum and
    an allocation of small Python objects (what set-up mostly does).

    On a shared 2-CPU virtual machine the Python kernel alone was measured
    between 0.008 and 0.014 s within ten minutes, and the workloads slow
    down with it; the speed changes from one second to the next, and
    allocation-heavy code slows more than a tight loop.  A sample (one pass
    of each kernel) is taken before every set-up, so the gated times are
    expressed at a reference speed: a host where one sample takes
    :data:`REFERENCE_CAL_S`.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._sorted = np.sort(rng.random(200_000))
        self._queries = rng.random(20_000)

    @staticmethod
    def _python_kernel():
        acc = 0
        for i in range(100_000):
            acc = (acc + i * i) % 1_000_003
        return acc

    def _numpy_kernel(self):
        total = 0.0
        for _ in range(4):
            picked = self._sorted[np.searchsorted(self._sorted, self._queries)]
            total += float(np.cumsum(picked)[-1])
        return total

    @staticmethod
    def _alloc_kernel():
        rows = [{"key": i, "value": (i, float(i))} for i in range(20_000)]
        cells = [[i] for i in range(20_000)]
        return len(rows) + len(cells)

    def parts(self, repeats: int = 1) -> dict:
        """Each kernel's time, best of ``repeats``."""
        out = {}
        for name, kernel in (("calib_python_s", self._python_kernel),
                             ("calib_numpy_s", self._numpy_kernel),
                             ("calib_alloc_s", self._alloc_kernel)):
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - t0)
            out[name] = best
        return out

    def sample(self) -> float:
        return sum(self.parts().values())


def host_block(calibration: Calibration) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **calibration.parts(repeats=5),
    }


@dataclass
class Repetition:
    #: Host seconds of each set-up of this repetition.
    setups: List[float]
    #: The calibration sample taken just before each set-up.
    calibs: List[float]
    wall_s: float
    evaluation: Evaluation
    #: ``Tracer.layer_summary()`` of a traced repetition.
    layers: Optional[dict] = None

    @property
    def setups_ref(self) -> List[float]:
        """Each set-up at the reference speed, by its own sample."""
        return [s * REFERENCE_CAL_S / c for s, c in zip(self.setups, self.calibs)]

    @property
    def wall_ref_s(self) -> float:
        """The timed part at the reference speed, by the samples taken in
        the set-up just before it."""
        return self.wall_s * REFERENCE_CAL_S / median(self.calibs)


def repeat(workload, seed: int, calibration: Calibration, tracer=None) -> Repetition:
    """Set up (repeatedly, see :data:`SETUP_WORK_S`), run the last state
    (timed) and evaluate the workload once."""
    gc.collect()
    setups, calibs = [], []
    deadline = time.perf_counter() + SETUP_WORK_S
    while True:
        calibs.append(calibration.sample())
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - t0)
        if time.perf_counter() >= deadline:
            break
        # Free this state before the next set-up, so that only one is alive.
        state = None
        gc.collect()
    before = workload.snapshots(state)
    close = None
    if tracer is not None:
        tracer.install()
        close = tracer.root(f"{workload.name}/seed{seed}")
    t1 = time.perf_counter()
    try:
        out = workload.run(state)
    finally:
        t2 = time.perf_counter()
        if tracer is not None:
            close()
            tracer.uninstall()
    evaluation = workload.evaluate(state, out, before)
    layers = tracer.layer_summary() if tracer is not None else None
    return Repetition(setups, calibs, t2 - t1, evaluation, layers)


def normalised(sim):
    """The simulated outputs as they read back from JSON."""
    return json.loads(json.dumps(sim))


def golden_check(name: str, sim) -> list:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    if name not in golden:
        return [f"no recorded simulated outputs for {name} in golden.json"]
    if normalised(sim) != golden[name]:
        return [f"simulated outputs at reference seed {REFERENCE_SEED} differ from "
                f"golden.json: {json.dumps(normalised(sim), sort_keys=True)}"]
    return []


def emit(name: str, value, unit: str) -> None:
    print(f"metric {name} {value!r} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    planes = effective_planes()
    if planes != DEFAULT_PLANES:
        print(f"plane switches resolve to {planes}, not the defaults {DEFAULT_PLANES}",
              file=sys.stderr)
        return 2
    calibration = Calibration()
    print("host: " + " ".join(f"{k}={v}" for k, v in host_block(calibration).items()))
    print("config: " + " ".join(f"{k}={v}" for k, v in planes.items()))

    workload = WORKLOADS[args.workload]()
    problems = []

    # Reference-seed repetition: warms the process and pins the simulated
    # outputs to the recorded ones.  Not measured.
    reference = repeat(workload, REFERENCE_SEED, calibration)
    problems += [f"reference seed: {p}" for p in reference.evaluation.problems]
    problems += golden_check(workload.name, reference.evaluation.sim)

    reps = []
    traced = []
    tracer = None
    deadline = time.perf_counter() + args.seconds
    while (len(reps) < MIN_REPS or (args.trace and len(traced) < MIN_REPS)
           or time.perf_counter() < deadline):
        if args.trace and len(reps) > len(traced):
            tracer = bench_trace.Tracer()
            traced.append(repeat(workload, args.seed, calibration, tracer))
        else:
            reps.append(repeat(workload, args.seed, calibration))

    everything = reps + traced
    first = everything[0].evaluation
    for rep in everything:
        problems += rep.evaluation.problems
        if normalised(rep.evaluation.sim) != normalised(first.sim):
            problems.append("simulated outputs differ between repetitions of one seed")
    for rep in traced:
        covered = ratio(sum(rep.layers[layer]["self_s"] for layer in bench_trace.LAYERS),
                        rep.layers["_root_s"])
        if abs(covered - 1.0) > 1e-9:
            problems.append(f"layer self times cover {covered!r} of the root span")
    problems = list(dict.fromkeys(problems))

    attempted = sum(r.evaluation.attempted for r in everything)
    failed = sum(r.evaluation.failed for r in everything) + len(problems)
    rejected = sum(r.evaluation.rejected for r in everything)
    wall_s = median(r.wall_s for r in reps)
    wall_ref_s = median(r.wall_ref_s for r in reps)

    print(f"workload: {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"untraced_reps={len(reps)} traced_reps={len(traced)}")
    print("sim: " + json.dumps(first.sim, sort_keys=True))
    for key, unit in SIM_UNITS.items():
        if key in first.sim:
            emit(key, first.sim[key], unit)
    if "rates" in first.sim:
        lowest = next(iter(first.sim["rates"].values()))
        emit("sim_p99_samples", lowest["samples"], "count")
        emit("serve.generator_lag_s", first.counters["generator_lag_s"], "s")
    if first.tasks:
        emit("tasks_per_s", median(r.evaluation.tasks / r.wall_s for r in reps), "1/s")
    emit("failed_frac", ratio(failed + rejected, attempted), "frac")

    if args.trace:
        layer_reps = [r.layers for r in traced]
        for layer in bench_trace.LAYERS:
            emit(f"{layer}.self_s", median(lr[layer]["self_s"] for lr in layer_reps), "s")
        # Counts repeat exactly for one seed, so the last traced repetition
        # gives them; self-time shares are medians over all traced ones.
        last = layer_reps[-1]
        reported = bench_trace.layer_metrics(last, traced[-1].evaluation.counters)
        for layer in bench_trace.LAYERS:
            reported[f"{layer}.self_frac"] = (
                median(lr[layer]["self_s"] / lr["_root_s"] for lr in layer_reps), "frac")
        reported["trace.attributed_frac"] = (
            ratio(sum(last[layer]["self_s"] for layer in bench_trace.LAYERS),
                  last["_root_s"]), "frac")
        reported["trace.overhead_frac"] = (
            median(r.wall_ref_s for r in traced) / wall_ref_s - 1.0, "frac")
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        tracer.write(os.path.join(ROOT, ".bench_out", f"spans-{workload.name}.jsonl"))
    else:
        setups = [s for r in everything for s in r.setups]
        emit("calib_s", median(c for r in everything for c in r.calibs), "s")
        emit("wall_host_s", wall_s, "s")
        emit("setup_host_s", median(setups), "s")
        emit("setup_samples", len(setups), "count")
        emit("sim_s_per_wall_s",
             median(r.evaluation.sim_seconds / r.wall_s for r in reps), "s/s")
        emit("sim_s_per_ref_s", median(
            r.evaluation.sim_seconds / r.wall_ref_s for r in reps), "s/s")
        values = {
            "wall_ref_s": wall_ref_s,
            "setup_s": median(s for r in everything for s in r.setups_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        reported = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    metrics = {}
    for name, (value, unit) in reported.items():
        emit(name, value, unit)
        metrics[name] = {"value": value, "unit": unit}

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
