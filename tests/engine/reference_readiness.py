"""Reference readiness: the seed scheduler's recompute-everything frontier.

The engine decides readiness incrementally: resolves are cached across
rounds and invalidated by block, shuffle and checkpoint change events.
This module keeps the seed resolver as a read-only oracle.  Each call
re-walks the lineage from scratch, answers every leaf with a worker scan
(``block_exists_scan``), the checkpoint registry and per-map
``has_map_output`` probes, and bumps no counter.  The ``readiness_oracle``
fixture in ``tests/conftest.py`` holds every round's frontier to it, task
key by task key and in order.
"""

from __future__ import annotations

from repro.engine.dependencies import ShuffleDependency
from repro.engine.scheduler import TaskScheduler
from repro.engine.task import TaskKind, TaskSpec


def reference_frontier(scheduler, job) -> list:
    """Task keys of ``job``'s ready frontier, in the seed's walk order."""
    ctx = scheduler.context
    shuffles = ctx.shuffle_manager
    answers: dict = {}

    def resolve(rdd, partition):
        key = (rdd.rdd_id, partition)
        if key in answers:
            return answers[key]
        ready, needed = True, []
        if not (ctx.block_exists_scan(rdd, partition)
                or ctx.checkpoints.has_partition(rdd, partition)):
            for dep in rdd.dependencies:
                if isinstance(dep, ShuffleDependency):
                    missing = [m for m in range(dep.num_map_partitions)
                               if not shuffles.has_map_output(dep.shuffle_id, m)]
                    ready = ready and not missing
                    needed += [TaskSpec(TaskKind.SHUFFLE_MAP, dep.rdd, m, dep=dep)
                               for m in missing]
                else:
                    for parent in dep.parents_of(partition):
                        parent_ready, parent_needed = resolve(dep.rdd, parent)
                        ready = ready and parent_ready
                        needed += parent_needed
        answers[key] = (ready, needed)
        return answers[key]

    frontier, visited = [], set()
    stack = [s for s in job.root_specs if not job.has_result(s.partition)]
    while stack:
        spec = stack.pop()
        if spec.key in visited or spec.key in scheduler.running:
            continue
        visited.add(spec.key)
        target = spec.dep.rdd if spec.kind == TaskKind.SHUFFLE_MAP else spec.rdd
        ready, needed = resolve(target, spec.partition)
        if ready:
            frontier.append(spec.key)
        else:
            stack.extend(needed)
    return frontier


class FrontierCheck:
    """Patches ``TaskScheduler._specs_for_job`` to compare every round.

    Mismatches are recorded, not raised: an assertion inside a scheduling
    round would unwind through the engine's own error handling.
    """

    def __init__(self, monkeypatch):
        self.rounds = 0
        self.mismatches: list = []
        incremental = TaskScheduler._specs_for_job

        def checked(scheduler, job):
            specs = incremental(scheduler, job)
            got = [s.key for s in specs]
            expected = reference_frontier(scheduler, job)
            self.rounds += 1
            if got != expected:
                self.mismatches.append((job.name, got, expected))
            return specs

        monkeypatch.setattr(TaskScheduler, "_specs_for_job", checked)
