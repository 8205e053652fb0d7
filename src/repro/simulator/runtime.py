"""The discrete-event DAG runtime.

The simulator advances time over task-completion events.  At each event
it (1) retires finished executions, (2) releases successors whose last
dependency just resolved, announcing them to the policy in priority
order, and (3) repeatedly polls idle workers (GPUs first, then CPUs,
each by index) until no policy action is possible.  Spoliation aborts
the victim's in-flight execution (recorded as an aborted placement) and
restarts its task from scratch, or, when the ``Spoliate`` keeps the
victim's progress (idealised preemption), runs only its unfinished
share in a non-strict schedule.  This is the one scalar event loop:
:func:`repro.core.heteroprio.heteroprio_schedule` runs here too.

The loop is written for incremental, allocation-free stepping (see the
"Simulator internals" section of ``docs/architecture.md``):

* the mapping of in-flight executions handed to ``policy.pick()`` is
  *one live dict*, updated as executions start and finish, and exposed
  read-only through a :class:`types.MappingProxyType` — it is never
  rebuilt per pick;
* workers are addressed by dense integer *slots*; the idle set is a
  flag array walked in a precomputed service order (GPUs first, by
  index), so no ``settle()`` round ever sorts;
* per-task CPU/GPU times and successor tuples are flattened into plain
  dicts at :meth:`RuntimeSimulator.run` entry, bypassing
  :meth:`Task.time_on` and the per-call list copies of
  :meth:`TaskGraph.successors`;
* completion events carry a per-slot *generation* stamp; events whose
  stamp is stale (the execution was spoliated) are skipped without
  touching any other state.

An optional *data-movement hook* (the ``movement`` keyword, a
:class:`DataMovement`) adds data locality without a second loop: at
dispatch ``movement.fetch`` brings the kernel's missing inputs to the
worker and returns the time the kernel itself starts, and at completion
``movement.complete`` records the kernel's writes.  Policies still see
the dispatch time as :attr:`RunningView.start`; a completed placement
starts at the kernel's start, an aborted one at dispatch, and the
schedule is non-strict.  :func:`repro.comm.runtime.simulate_with_comm`
is that hook plus one run.

Every run also fills :attr:`RuntimeSimulator.last_stats` with
:class:`SimStats` hot-loop counters (events, picks, tasks, aborts,
wall time) — the raw material of ``repro bench``.

A differential test (``tests/test_differential_simcore.py``) pins this
implementation event-for-event to the pre-optimization loop on every
figure workload.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from dataclasses import asdict, dataclass
from types import MappingProxyType
from typing import Protocol

from repro.core.platform import Platform, ResourceKind, Worker
from repro.core.schedule import Schedule, TIME_EPS
from repro.core.task import Task
from repro.dag.graph import TaskGraph
from repro.schedulers.online.base import OnlinePolicy, RunningView, Spoliate, StartTask

__all__ = ["DataMovement", "RuntimeSimulator", "SimStats", "simulate"]


@dataclass
class SimStats:
    """Hot-loop counters of one simulator run.

    ``events`` counts completion events popped from the heap (including
    stale ones); ``stale_events`` the subset skipped via generation
    stamps; ``picks`` the ``policy.pick()`` calls; ``tasks`` completed
    tasks; ``aborts`` spoliated executions.  ``wall_s`` is the wall
    clock of the whole :meth:`RuntimeSimulator.run` call.

    The lockstep batch engine (:mod:`repro.simulator.batch`) emits one
    aggregate ``SimStats`` per batch with the same counting conventions,
    so scalar and batch runs are directly comparable.
    """

    events: int = 0
    stale_events: int = 0
    picks: int = 0
    tasks: int = 0
    aborts: int = 0
    wall_s: float = 0.0

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else float("inf")

    @property
    def picks_per_sec(self) -> float:
        return self.picks / self.wall_s if self.wall_s > 0 else float("inf")

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["events_per_sec"] = self.events_per_sec
        payload["picks_per_sec"] = self.picks_per_sec
        return payload


class DataMovement(Protocol):
    """The data-movement hook of :class:`RuntimeSimulator`."""

    def fetch(self, task: Task, worker: Worker, now: float) -> float:
        """Bring *task*'s missing inputs to *worker* from *now*; return its start."""

    def complete(self, task: Task, worker: Worker) -> None:
        """Record the writes of *task*, just completed on *worker*."""


class RuntimeSimulator:
    """Execute a task graph under an online scheduling policy."""

    def __init__(
        self,
        graph: TaskGraph,
        platform: Platform,
        policy: OnlinePolicy,
        *,
        movement: DataMovement | None = None,
    ):
        self.graph = graph
        self.platform = platform
        self.policy = policy
        self.movement = movement
        #: Counters of the most recent :meth:`run` (``None`` before).
        self.last_stats: SimStats | None = None

    def run(self) -> Schedule:
        """Simulate to completion and return the full schedule.

        Raises ``RuntimeError`` if the policy stalls (leaves workers idle
        forever while tasks remain), which would indicate a policy bug.
        """
        graph, platform, policy = self.graph, self.platform, self.policy
        movement = self.movement
        # repro-lint: disable=wall-clock,flow-nondeterminism -- SimStats.wall_s is bench instrumentation only
        # It never feeds the schedule, the event order, or any
        # ResultCache-keyed metric; the flow analyzer sees it because
        # the taint pass is flow-insensitive over `self`.
        started = _time.perf_counter()
        stats = SimStats()
        self.last_stats = stats
        schedule = Schedule(platform, strict=movement is None)
        if len(graph) == 0:
            stats.wall_s = _time.perf_counter() - started
            return schedule

        policy.prepare(platform)

        # -- flat per-run precomputation ---------------------------------
        workers: tuple[Worker, ...] = tuple(platform.workers())
        n_workers = len(workers)
        slot_of = {w: i for i, w in enumerate(workers)}
        kind_of = tuple(w.kind for w in workers)
        # Idle polling order: GPUs first, then CPUs, each by index.
        service_slots = tuple(sorted(
            range(n_workers),
            key=lambda i: (0 if kind_of[i] is ResourceKind.GPU else 1, workers[i].index),
        ))
        # 1 = GPU time, 0 = CPU time: index into the per-task time pair.
        time_index = tuple(1 if k is ResourceKind.GPU else 0 for k in kind_of)
        # Per-task (cpu_time, gpu_time) still to run; a preempted task
        # keeps only its unfinished share.
        task_times = {t: (t.cpu_time, t.gpu_time) for t in graph}
        succ_of = graph.successor_map()
        indegree = {task: graph.in_degree(task) for task in graph}
        remaining = len(graph)

        # -- live state ---------------------------------------------------
        # The one running-view mapping: updated incrementally, exposed
        # read-only to the policy, never rebuilt.
        running: dict[Worker, RunningView] = {}
        running_ro = MappingProxyType(running)
        idle = [True] * n_workers
        generations = [0] * n_workers
        begins = [0.0] * n_workers  # kernel start of each slot's execution
        events: list[tuple[float, int, int, int]] = []  # (end, seq, slot, gen)
        seq = itertools.count()
        heappush, heappop = heapq.heappush, heapq.heappop
        pick = policy.pick
        notify_started = policy.task_started
        notify_finished = policy.task_finished
        fetch = movement.fetch if movement is not None else None
        complete = movement.complete if movement is not None else None

        def announce(tasks: list[Task], now: float) -> None:
            tasks.sort(key=lambda t: (-t.priority, t.uid))
            policy.tasks_ready(tasks, now)

        def start(task: Task, slot: int, now: float) -> None:
            worker = workers[slot]
            begin = now if fetch is None else fetch(task, worker, now)
            end = begin + task_times[task][time_index[slot]]
            begins[slot] = begin
            gen = generations[slot] + 1
            generations[slot] = gen
            running[worker] = RunningView(task=task, worker=worker, start=now, end=end)
            idle[slot] = False
            heappush(events, (end, next(seq), slot, gen))
            notify_started(task, worker, now)

        def settle(now: float) -> None:
            progress = True
            while progress:
                progress = False
                # Snapshot the idle set in service order: a worker freed
                # by a spoliation during this pass is only served on the
                # next pass, like the sorted(idle) snapshot it replaces.
                pass_slots = [i for i in service_slots if idle[i]]
                for slot in pass_slots:
                    if not idle[slot]:
                        continue
                    stats.picks += 1
                    action = pick(workers[slot], now, running_ro)
                    if action is None:
                        continue
                    if isinstance(action, StartTask):
                        start(action.task, slot, now)
                        progress = True
                    elif isinstance(action, Spoliate):
                        victim = running.get(action.victim)
                        if victim is None or victim.worker.kind is kind_of[slot]:
                            raise RuntimeError(
                                f"policy {policy.name} issued an invalid spoliation"
                            )
                        vslot = slot_of[victim.worker]
                        schedule.add(
                            victim.task, victim.worker, victim.start, end=now, aborted=True
                        )
                        del running[victim.worker]
                        generations[vslot] += 1
                        idle[vslot] = True
                        stats.aborts += 1
                        policy.task_aborted(victim.task, victim.worker, now)
                        if action.keep_progress:
                            share = 1.0 - (now - victim.start) / (victim.end - victim.start)
                            cpu_time, gpu_time = task_times[victim.task]
                            task_times[victim.task] = (share * cpu_time, share * gpu_time)
                            schedule.strict = False
                        start(victim.task, slot, now)
                        progress = True
                    else:  # pragma: no cover - exhaustive Action union
                        raise TypeError(f"unknown action {action!r}")

        def stall_error() -> RuntimeError:
            finished_tasks = {p.task for p in schedule.completed_placements()}
            pending = [t for t in graph if t not in finished_tasks]
            sample = ", ".join(f"{t.name}#{t.uid}" for t in pending[:5])
            if len(pending) > 5:
                sample += ", ..."
            idle_names = ", ".join(
                str(workers[i]) for i in service_slots if idle[i]
            ) or "none"
            return RuntimeError(
                f"policy {policy.name} stalled with {remaining} tasks unfinished "
                f"({sample}); idle workers: {idle_names}; "
                f"{len(running)} executions still in flight"
            )

        announce(graph.sources(), 0.0)
        settle(0.0)
        while remaining > 0:
            if not events:
                raise stall_error()
            time, _, slot, gen = heappop(events)
            stats.events += 1
            finished: list[int] = []
            if generations[slot] == gen:
                finished.append(slot)
                idle[slot] = True
            else:
                stats.stale_events += 1
            # Batch all completions within TIME_EPS of this event so
            # simultaneous finishers observe a consistent queue state.
            limit = time + TIME_EPS
            while events and events[0][0] <= limit:
                _, _, slot2, gen2 = heappop(events)
                stats.events += 1
                if generations[slot2] == gen2:
                    finished.append(slot2)
                    idle[slot2] = True
                else:
                    stats.stale_events += 1
            if not finished:
                continue
            newly_ready: list[Task] = []
            for slot in finished:
                view = running.pop(workers[slot])
                schedule.add(view.task, view.worker, begins[slot], end=view.end)
                if complete is not None:
                    complete(view.task, view.worker)
                remaining -= 1
                stats.tasks += 1
                notify_finished(view.task, view.worker, view.end)
                for succ in succ_of[view.task]:
                    left = indegree[succ] - 1
                    indegree[succ] = left
                    if left == 0:
                        newly_ready.append(succ)
            if newly_ready:
                announce(newly_ready, time)
            if remaining > 0:
                settle(time)
        stats.wall_s = _time.perf_counter() - started
        return schedule


def simulate(graph: TaskGraph, platform: Platform, policy: OnlinePolicy) -> Schedule:
    """Convenience wrapper: build a :class:`RuntimeSimulator` and run it."""
    return RuntimeSimulator(graph, platform, policy).run()
