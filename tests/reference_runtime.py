"""Frozen pre-optimization simulator and policies (differential oracle).

Verbatim snapshots of ``repro.simulator.runtime``,
``repro.schedulers.online.heteroprio``,
``repro.schedulers.online.heteroprio_buckets`` and the event loop of
``repro.core.heteroprio`` as they stood *before* the hot-path overhaul
(PR 2).  ``tests/test_differential_simcore.py`` replays every figure
workload through both implementations and requires event-for-event
identical schedules — same starts, ends, placements and aborts — which
is what keeps campaign cache entries valid without a ``CODE_VERSION``
bump.

Do not "fix" or optimise this module: its only job is to stay identical
to the pre-PR behaviour.

The DualHP section keeps the offline and online DualHP searches as
they stood before they became feasibility-only;
``tests/test_dualhp_oracle.py`` compares the live searches against it.

The random-graph section keeps the scalar ``layered`` and ``chains``
generators as they stood before they emitted compiled graphs;
``tests/test_random_graphs_compiled.py`` compares the block-drawn
generators against them.

The last three sections keep ``CommAwareSimulator`` (the communication-
aware runtime's own copy of the DAG event loop), the dict-graph
factorization generators and the independent HeteroPrio core's own
event loop as they stood before each was merged into the one
implementation; ``tests/test_comm_differential.py``,
``tests/test_factorization_differential.py`` and
``tests/test_heteroprio_differential.py`` compare the merged code
against them.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from repro.bounds.simple import makespan_lower_bound
from repro.comm.memory import DataDirectory
from repro.comm.model import CommunicationModel, location_of
from repro.comm.runtime import CommRunResult, TransferEvent
from repro.core.heteroprio import (
    HeteroPrioResult,
    MigrationMode,
    SpoliationEvent,
    _queue_key,
    sorted_queue,
)
from repro.core.platform import Platform, ResourceKind, Worker
from repro.core.schedule import Schedule, TIME_EPS
from repro.core.task import Instance, Task
from repro.dag.cholesky import TILE_BYTES, cholesky_task_count
from repro.dag.dataflow import AccessMode, DataflowTracker
from repro.dag.graph import TaskGraph
from repro.dag.lu import lu_task_count
from repro.dag.qr import T_TILE_BYTES, qr_task_count
from repro.timing.model import TimingModel
from repro.schedulers.online.base import (
    Action,
    OnlinePolicy,
    RunningView,
    Spoliate,
    StartTask,
)

__all__ = [
    "ReferenceSimulator",
    "ReferenceHeteroPrioPolicy",
    "ReferenceBucketHeteroPrioPolicy",
    "reference_simulate",
    "reference_independent_heteroprio",
    "ReferenceDualHPPolicy",
    "reference_dualhp_try",
    "reference_dualhp_schedule",
    "reference_layered_random_graph",
    "reference_random_chain_graph",
    "ReferenceCommAwareSimulator",
    "reference_simulate_with_comm",
    "reference_cholesky_graph",
    "reference_qr_graph",
    "reference_lu_graph",
    "reference_heteroprio_schedule",
]


@dataclass
class _Execution:
    task: Task
    worker: Worker
    start: float
    end: float
    generation: int


class ReferenceSimulator:
    """Pre-PR ``RuntimeSimulator``: rebuilds the running view per pick."""

    def __init__(self, graph: TaskGraph, platform: Platform, policy: OnlinePolicy):
        self.graph = graph
        self.platform = platform
        self.policy = policy

    def run(self) -> Schedule:
        graph, platform, policy = self.graph, self.platform, self.policy
        schedule = Schedule(platform)
        if len(graph) == 0:
            return schedule

        policy.prepare(platform)
        indegree = {task: graph.in_degree(task) for task in graph}
        remaining = len(graph)

        running: dict[Worker, _Execution] = {}
        idle: set[Worker] = set(platform.workers())
        generations: dict[Worker, int] = {w: 0 for w in platform.workers()}
        events: list[tuple[float, int, Worker, int]] = []
        seq = itertools.count()

        def service_key(worker: Worker) -> tuple[int, int]:
            return (0 if worker.kind is ResourceKind.GPU else 1, worker.index)

        def announce(tasks: list[Task], now: float) -> None:
            tasks.sort(key=lambda t: (-t.priority, t.uid))
            policy.tasks_ready(tasks, now)

        def running_view() -> dict[Worker, RunningView]:
            return {
                w: RunningView(task=e.task, worker=w, start=e.start, end=e.end)
                for w, e in running.items()
            }

        def start(task: Task, worker: Worker, now: float) -> None:
            end = now + task.time_on(worker.kind)
            generations[worker] += 1
            running[worker] = _Execution(task, worker, now, end, generations[worker])
            idle.discard(worker)
            heapq.heappush(events, (end, next(seq), worker, generations[worker]))
            policy.task_started(task, worker, now)

        def settle(now: float) -> None:
            progress = True
            while progress:
                progress = False
                for worker in sorted(idle, key=service_key):
                    if worker not in idle:
                        continue
                    action = policy.pick(worker, now, running_view())
                    if action is None:
                        continue
                    if isinstance(action, StartTask):
                        start(action.task, worker, now)
                        progress = True
                    elif isinstance(action, Spoliate):
                        victim = running.get(action.victim)
                        if victim is None or victim.worker.kind is worker.kind:
                            raise RuntimeError(
                                f"policy {policy.name} issued an invalid spoliation"
                            )
                        schedule.add(
                            victim.task, victim.worker, victim.start, end=now, aborted=True
                        )
                        del running[victim.worker]
                        generations[victim.worker] += 1
                        idle.add(victim.worker)
                        policy.task_aborted(victim.task, victim.worker, now)
                        start(victim.task, worker, now)
                        progress = True
                    else:  # pragma: no cover - exhaustive Action union
                        raise TypeError(f"unknown action {action!r}")

        announce(graph.sources(), 0.0)
        settle(0.0)
        while remaining > 0:
            if not events:
                raise RuntimeError(
                    f"policy {policy.name} stalled with {remaining} tasks unfinished"
                )
            time, _, worker, gen = heapq.heappop(events)
            finished: list[_Execution] = []
            if generations[worker] == gen:
                finished.append(running.pop(worker))
            while events and events[0][0] <= time + TIME_EPS:
                time2, _, worker2, gen2 = heapq.heappop(events)
                if generations[worker2] == gen2:
                    finished.append(running.pop(worker2))
            if not finished:
                continue
            newly_ready: list[Task] = []
            for execution in finished:
                schedule.add(execution.task, execution.worker, execution.start,
                             end=execution.end)
                remaining -= 1
                idle.add(execution.worker)
                policy.task_finished(execution.task, execution.worker, execution.end)
                for succ in self.graph.successors(execution.task):
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        newly_ready.append(succ)
            if newly_ready:
                announce(newly_ready, time)
            if remaining > 0:
                settle(time)
        return schedule


def reference_simulate(
    graph: TaskGraph, platform: Platform, policy: OnlinePolicy
) -> Schedule:
    return ReferenceSimulator(graph, platform, policy).run()


class ReferenceHeteroPrioPolicy(OnlinePolicy):
    """Pre-PR ``HeteroPrioPolicy``: O(n) bisect-insert affinity queue."""

    name = "heteroprio"

    def __init__(self, *, spoliation: bool = True, victim_rule: str = "priority"):
        if victim_rule not in ("priority", "completion"):
            raise ValueError(f"unknown victim_rule {victim_rule!r}")
        self.spoliation = spoliation
        self.victim_rule = victim_rule
        self._keys: list[tuple[float, float, int]] = []
        self._queue: list[Task] = []

    def prepare(self, platform: Platform) -> None:
        self._keys = []
        self._queue = []

    def tasks_ready(self, tasks: Sequence[Task], time: float) -> None:
        for task in tasks:
            key = _queue_key(task)
            pos = bisect.bisect(self._keys, key)
            self._keys.insert(pos, key)
            self._queue.insert(pos, task)

    def pick(
        self,
        worker: Worker,
        time: float,
        running: Mapping[Worker, RunningView],
    ) -> Action | None:
        if self._queue:
            if worker.kind is ResourceKind.GPU:
                self._keys.pop()
                return StartTask(self._queue.pop())
            self._keys.pop(0)
            return StartTask(self._queue.pop(0))
        if not self.spoliation:
            return None
        candidates = [
            view
            for view in running.values()
            if view.worker.kind is worker.kind.other
            and time + view.task.time_on(worker.kind) < view.end - TIME_EPS
        ]
        if not candidates:
            return None
        if self.victim_rule == "priority":
            key = lambda v: (-v.task.priority, -v.end, v.task.uid)  # noqa: E731
        else:
            key = lambda v: (-v.end, -v.task.priority, v.task.uid)  # noqa: E731
        best = min(candidates, key=key)
        return Spoliate(best.worker)


class _Bucket:
    __slots__ = ("key", "heap", "counter")

    def __init__(self, key: Hashable):
        self.key = key
        self.heap: list[tuple[float, int, Task]] = []
        self.counter = itertools.count()

    def push(self, task: Task) -> None:
        heapq.heappush(self.heap, (-task.priority, next(self.counter), task))

    def pop(self) -> Task:
        return heapq.heappop(self.heap)[2]

    def __len__(self) -> int:
        return len(self.heap)

    def acceleration(self) -> float:
        return self.heap[0][2].acceleration


class ReferenceBucketHeteroPrioPolicy(OnlinePolicy):
    """Pre-PR ``BucketHeteroPrioPolicy``: linear scan over all buckets."""

    name = "heteroprio-buckets"

    def __init__(self, *, spoliation: bool = True):
        self.spoliation = spoliation
        self._buckets: dict[Hashable, _Bucket] = {}

    def prepare(self, platform: Platform) -> None:
        self._buckets = {}

    def _bucket_key(self, task: Task) -> Hashable:
        return task.kind if task.kind else ("rho", task.acceleration)

    def tasks_ready(self, tasks: Sequence[Task], time: float) -> None:
        for task in tasks:
            key = self._bucket_key(task)
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = _Bucket(key)
            bucket.push(task)

    def pick(
        self,
        worker: Worker,
        time: float,
        running: Mapping[Worker, RunningView],
    ) -> Action | None:
        non_empty = [b for b in self._buckets.values() if len(b)]
        if non_empty:
            gpu = worker.kind is ResourceKind.GPU
            best = max(
                non_empty,
                key=lambda b: (b.acceleration() if gpu else -b.acceleration()),
            )
            return StartTask(best.pop())
        if not self.spoliation:
            return None
        candidates = [
            view
            for view in running.values()
            if view.worker.kind is worker.kind.other
            and time + view.task.time_on(worker.kind) < view.end - TIME_EPS
        ]
        if not candidates:
            return None
        best_victim = min(candidates, key=lambda v: (-v.task.priority, -v.end, v.task.uid))
        return Spoliate(best_victim.worker)


@dataclass
class _Running:
    task: Task
    worker: Worker
    start: float
    end: float
    generation: int
    fraction: float = 1.0


def reference_independent_heteroprio(
    instance: Instance,
    platform: Platform,
    *,
    spoliation: bool = True,
    service_order: str = "gpu_first",
) -> tuple[Schedule, int]:
    """Pre-PR event loop of ``repro.core.heteroprio._run`` (spoliation mode).

    Returns the schedule and the number of spoliation events; this is the
    Figure 6 (independent tasks) oracle.
    """
    queue = sorted_queue(instance)  # index 0 = CPU end, index -1 = GPU end
    schedule = Schedule(platform)
    n_spoliations = 0
    migration = "spoliation" if spoliation else "none"

    running: dict[Worker, _Running] = {}
    idle: set[Worker] = set(platform.workers())
    remaining = len(instance)

    events: list[tuple[float, int, Worker, int]] = []
    seq = itertools.count()
    generations: dict[Worker, int] = {w: 0 for w in platform.workers()}

    def service_key(worker: Worker) -> tuple[int, int]:
        gpu_rank = 0 if worker.kind is ResourceKind.GPU else 1
        if service_order == "cpu_first":
            gpu_rank = 1 - gpu_rank
        return (gpu_rank, worker.index)

    def start_task(task: Task, worker: Worker, now: float) -> None:
        end = now + task.time_on(worker.kind)
        generations[worker] += 1
        record = _Running(task=task, worker=worker, start=now, end=end,
                          generation=generations[worker])
        running[worker] = record
        idle.discard(worker)
        heapq.heappush(events, (end, next(seq), worker, record.generation))

    def try_assign(worker: Worker, now: float) -> bool:
        nonlocal n_spoliations
        if queue:
            task = queue.pop() if worker.kind is ResourceKind.GPU else queue.pop(0)
            start_task(task, worker, now)
            return True
        if migration == "none":
            return False
        victims = [r for r in running.values() if r.worker.kind is worker.kind.other]
        victims.sort(key=lambda r: (-r.end, -r.task.priority, r.task.uid))
        for victim in victims:
            new_end = now + victim.task.time_on(worker.kind)
            if new_end < victim.end - TIME_EPS:
                schedule.add(victim.task, victim.worker, victim.start, end=now,
                             aborted=True)
                del running[victim.worker]
                idle.add(victim.worker)
                generations[victim.worker] += 1
                n_spoliations += 1
                start_task(victim.task, worker, now)
                return True
        return False

    def settle(now: float) -> None:
        progress = True
        while progress:
            progress = False
            for worker in sorted(idle, key=service_key):
                if worker in idle and try_assign(worker, now):
                    progress = True

    settle(0.0)
    while remaining > 0:
        if not events:  # pragma: no cover - defensive
            raise RuntimeError("HeteroPrio stalled with unfinished tasks")
        time, _, worker, gen = heapq.heappop(events)
        if generations.get(worker) != gen:
            continue
        record = running.pop(worker)
        schedule.add(record.task, worker, record.start, end=record.end)
        remaining -= 1
        idle.add(worker)
        while events and events[0][0] <= time + TIME_EPS:
            time2, _, worker2, gen2 = heapq.heappop(events)
            if generations.get(worker2) != gen2:
                continue
            record2 = running.pop(worker2)
            schedule.add(record2.task, worker2, record2.start, end=record2.end)
            remaining -= 1
            idle.add(worker2)
        if remaining > 0:
            settle(time)

    return schedule, n_spoliations


# -- DualHP (pre feasibility-only search) --------------------------------------
#
# Verbatim snapshots of ``repro.schedulers.dualhp`` (``dualhp_try``,
# ``dualhp_schedule``) and ``repro.schedulers.online.dualhp``
# (``DualHPPolicy``) as they stood before the lambda searches became
# feasibility-only.  ``tests/test_dualhp_oracle.py`` compares the live
# offline, online and lockstep searches against them.

#: Relative precision of the offline binary search on ``lambda``.
REFERENCE_SEARCH_RTOL = 1e-9

#: Relative precision of the online binary search.
REFERENCE_ONLINE_RTOL = 1e-3


@dataclass
class ReferenceDualHPResult:
    """Outcome of DualHP: the schedule and the accepted guess."""

    schedule: Schedule
    lam: float

    @property
    def makespan(self) -> float:
        return self.schedule.makespan


def _reference_pack_class(
    tasks: list[Task],
    loads: dict[Worker, float],
    kind: ResourceKind,
    limit: float,
) -> list[Task]:
    """Greedy least-loaded packing; returns tasks that would exceed *limit*.

    Tasks are attempted in the given order; each either lands on the
    least-loaded worker of the class or is returned as an overflow.
    """
    overflow: list[Task] = []
    for task in tasks:
        worker = min(loads, key=lambda w: (loads[w], w.index))
        duration = task.time_on(kind)
        if loads[worker] + duration <= limit:
            loads[worker] += duration
        else:
            overflow.append(task)
    return overflow


def reference_dualhp_try(
    instance: Instance,
    platform: Platform,
    lam: float,
    *,
    initial_loads: dict[Worker, float] | None = None,
) -> Schedule | None:
    """One dual-approximation round: a ``<= 2*lam`` schedule, or ``None``.

    ``initial_loads`` lets the online DAG adaptation account for work
    already running on each worker (Section 6.2).
    """
    limit = 2.0 * lam
    cpu_loads = {w: 0.0 for w in platform.workers(ResourceKind.CPU)}
    gpu_loads = {w: 0.0 for w in platform.workers(ResourceKind.GPU)}
    if initial_loads:
        for worker, load in initial_loads.items():
            target = cpu_loads if worker.kind is ResourceKind.CPU else gpu_loads
            if worker in target:
                target[worker] = load

    forced_cpu: list[Task] = []
    forced_gpu: list[Task] = []
    optional: list[Task] = []
    for task in instance:
        too_long_cpu = task.cpu_time > lam
        too_long_gpu = task.gpu_time > lam
        if too_long_cpu and too_long_gpu:
            return None
        if too_long_cpu:
            forced_gpu.append(task)
        elif too_long_gpu:
            forced_cpu.append(task)
        else:
            optional.append(task)

    if forced_gpu and not gpu_loads:
        return None
    if forced_cpu and not cpu_loads:
        return None

    # Priority first inside each phase; acceleration governs the split.
    by_priority = lambda t: (-t.priority, t.uid)  # noqa: E731
    forced_gpu.sort(key=by_priority)
    forced_cpu.sort(key=by_priority)
    optional.sort(key=lambda t: (-t.acceleration, -t.priority, t.uid))

    assignment: dict[Task, ResourceKind] = {}
    if _reference_pack_class(forced_gpu, gpu_loads, ResourceKind.GPU, limit):
        return None
    if _reference_pack_class(forced_cpu, cpu_loads, ResourceKind.CPU, limit):
        return None
    for task in forced_gpu:
        assignment[task] = ResourceKind.GPU
    for task in forced_cpu:
        assignment[task] = ResourceKind.CPU

    if gpu_loads:
        leftover = _reference_pack_class(optional, gpu_loads, ResourceKind.GPU, limit)
    else:
        leftover = list(optional)
    leftover_set = set(leftover)
    placed_on_gpu = [t for t in optional if t not in leftover_set]
    for task in placed_on_gpu:
        assignment[task] = ResourceKind.GPU
    if not cpu_loads and leftover:
        return None
    leftover.sort(key=by_priority)
    if _reference_pack_class(leftover, cpu_loads, ResourceKind.CPU, limit):
        return None
    for task in leftover:
        assignment[task] = ResourceKind.CPU

    # Materialise the schedule by replaying the packing per class.
    schedule = Schedule(platform)
    replay_loads: dict[Worker, float] = {}
    for worker in platform.workers():
        replay_loads[worker] = (initial_loads or {}).get(worker, 0.0)
    ordered = (
        forced_gpu
        + forced_cpu
        + [t for t in optional if assignment[t] is ResourceKind.GPU]
        + leftover
    )
    for task in ordered:
        kind = assignment[task]
        candidates = {w: replay_loads[w] for w in platform.workers(kind)}
        worker = min(candidates, key=lambda w: (candidates[w], w.index))
        schedule.add(task, worker, replay_loads[worker])
        replay_loads[worker] += task.time_on(kind)
    return schedule


def reference_dualhp_schedule(
    instance: Instance,
    platform: Platform,
    *,
    rtol: float = REFERENCE_SEARCH_RTOL,
) -> ReferenceDualHPResult:
    """Binary search on ``lambda`` down to relative precision *rtol*."""
    if len(instance) == 0:
        return ReferenceDualHPResult(schedule=Schedule(platform), lam=0.0)
    lo = makespan_lower_bound(instance, platform) / 2.0
    hi = max(
        makespan_lower_bound(instance, platform),
        instance.total_cpu_work() / max(platform.num_cpus, 1)
        if platform.num_cpus
        else 0.0,
        instance.total_gpu_work() / max(platform.num_gpus, 1)
        if platform.num_gpus
        else 0.0,
        max(t.min_time() for t in instance),
    )
    best = reference_dualhp_try(instance, platform, hi)
    while best is None:  # enlarge until feasible (degenerate platforms)
        hi *= 2.0
        best = reference_dualhp_try(instance, platform, hi)
    best_lam = hi
    while hi - lo > rtol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        trial = reference_dualhp_try(instance, platform, mid)
        if trial is None:
            lo = mid
        else:
            hi = mid
            best, best_lam = trial, mid
    return ReferenceDualHPResult(schedule=best, lam=best_lam)


class ReferenceDualHPPolicy(OnlinePolicy):
    """Pre-optimisation ``DualHPPolicy``: per-guess assignment dicts and closures."""

    name = "dualhp"

    def __init__(self) -> None:
        self._platform: Platform | None = None
        self._pool: dict[Task, int] = {}  # task -> arrival index
        self._arrival = itertools.count()
        self._dirty = True
        self._class_queues: dict[ResourceKind, list[Task]] = {
            ResourceKind.CPU: [],
            ResourceKind.GPU: [],
        }

    def prepare(self, platform: Platform) -> None:
        self._platform = platform
        self._pool = {}
        self._arrival = itertools.count()
        self._dirty = True
        self._class_queues = {ResourceKind.CPU: [], ResourceKind.GPU: []}

    def tasks_ready(self, tasks: Sequence[Task], time: float) -> None:
        for task in tasks:
            self._pool[task] = next(self._arrival)
        if tasks:
            self._dirty = True

    def pick(
        self,
        worker: Worker,
        time: float,
        running: Mapping[Worker, RunningView],
    ) -> Action | None:
        if self._dirty:
            self._reassign(time, running)
        queue = self._class_queues[worker.kind]
        if queue:
            task = queue.pop()
            del self._pool[task]
            return StartTask(task)
        return None

    # -- assignment ------------------------------------------------------------

    def _reassign(self, time: float, running: Mapping[Worker, RunningView]) -> None:
        """Binary-search the smallest feasible guess and split the pool."""
        assert self._platform is not None
        platform = self._platform
        tasks = sorted(
            self._pool,
            key=lambda t: (-t.acceleration, -t.priority, self._pool[t]),
        )
        cpu_init = [0.0] * platform.num_cpus
        gpu_init = [0.0] * platform.num_gpus
        # repro-lint: disable=unordered-iteration -- each Worker key occurs
        # once, so every slot receives exactly one += and the per-queue
        # sorts below are independent; iteration order is immaterial.
        for view in running.values():
            remaining = max(view.end - time, 0.0)
            if view.worker.kind is ResourceKind.CPU:
                cpu_init[view.worker.index] += remaining
            else:
                gpu_init[view.worker.index] += remaining
        self._dirty = False
        if not tasks:
            self._class_queues = {ResourceKind.CPU: [], ResourceKind.GPU: []}
            return

        base = max(max(cpu_init, default=0.0), max(gpu_init, default=0.0))
        hi = base + max(
            sum(t.min_time() for t in tasks),
            max(t.min_time() for t in tasks),
        )
        assignment = self._try(tasks, hi, cpu_init, gpu_init)
        while assignment is None:  # pragma: no cover - hi is always feasible
            hi *= 2.0
            assignment = self._try(tasks, hi, cpu_init, gpu_init)
        lo = 0.0
        while hi - lo > REFERENCE_ONLINE_RTOL * hi:
            mid = 0.5 * (lo + hi)
            trial = self._try(tasks, mid, cpu_init, gpu_init)
            if trial is None:
                lo = mid
            else:
                hi = mid
                assignment = trial
        queues: dict[ResourceKind, list[Task]] = {
            ResourceKind.CPU: [],
            ResourceKind.GPU: [],
        }
        for task, kind in assignment.items():
            queues[kind].append(task)
        # Workers pop from the tail: lowest (priority, arrival) last.
        for queue in queues.values():
            queue.sort(key=lambda t: (t.priority, -self._pool[t]))
        self._class_queues = queues

    def _try(
        self,
        tasks_by_rho: list[Task],
        lam: float,
        cpu_init: list[float],
        gpu_init: list[float],
    ) -> dict[Task, ResourceKind] | None:
        """One dual round on the pool; ``None`` when *lam* is infeasible.

        Mirrors :func:`repro.schedulers.dualhp.dualhp_try` but only
        yields the class split (the runtime decides actual workers), and
        accounts for the initial class loads of running work.

        Class loads are kept in binary heaps of ``(load, slot)`` so each
        pack is O(log m) instead of a linear argmin over the class; the
        heap minimum is the exact element the old scan chose (smallest
        load, ties to the smallest slot index).
        """
        assert self._platform is not None
        limit = 2.0 * lam
        cpu_loads = [(load, slot) for slot, load in enumerate(cpu_init)]
        gpu_loads = [(load, slot) for slot, load in enumerate(gpu_init)]
        heapq.heapify(cpu_loads)
        heapq.heapify(gpu_loads)
        has_cpu = bool(cpu_loads)
        has_gpu = bool(gpu_loads)
        assignment: dict[Task, ResourceKind] = {}
        cpu_overflow: list[Task] = []

        def pack(loads: list[tuple[float, int]], duration: float) -> bool:
            load, slot = loads[0]
            if load + duration <= limit:
                heapq.heapreplace(loads, (load + duration, slot))
                return True
            return False

        for task in tasks_by_rho:
            forced_gpu = task.cpu_time > lam
            forced_cpu = task.gpu_time > lam
            if forced_gpu and forced_cpu:
                return None
            if forced_gpu:
                if not (has_gpu and pack(gpu_loads, task.gpu_time)):
                    return None
                assignment[task] = ResourceKind.GPU
            elif forced_cpu:
                if not (has_cpu and pack(cpu_loads, task.cpu_time)):
                    return None
                assignment[task] = ResourceKind.CPU
            else:
                if has_gpu and pack(gpu_loads, task.gpu_time):
                    assignment[task] = ResourceKind.GPU
                else:
                    cpu_overflow.append(task)
        for task in cpu_overflow:
            if not (has_cpu and pack(cpu_loads, task.cpu_time)):
                return None
            assignment[task] = ResourceKind.CPU
        return assignment


# -- Random graphs (pre compiled generators) -----------------------------------
#
# Verbatim snapshots of ``repro.dag.random_graphs`` (``_random_task``,
# ``layered_random_graph``, ``random_chain_graph``) as they stood before
# the generators drew their random streams in blocks and emitted
# ``CompiledGraph``s.


def _reference_random_task(
    rng: np.random.Generator,
    index: int,
    *,
    cpu_range: tuple[float, float],
    accel_range: tuple[float, float],
) -> Task:
    p = float(rng.uniform(*cpu_range))
    rho = float(np.exp(rng.uniform(np.log(accel_range[0]), np.log(accel_range[1]))))
    return Task(cpu_time=p, gpu_time=p / rho, name=f"rnd{index}", kind="RND")


def reference_layered_random_graph(
    n_layers: int,
    layer_width: int,
    rng: np.random.Generator,
    *,
    edge_probability: float = 0.3,
    cpu_range: tuple[float, float] = (0.5, 2.0),
    accel_range: tuple[float, float] = (0.2, 30.0),
) -> TaskGraph:
    """A DAG of ``n_layers`` layers of ``layer_width`` random tasks.

    Each task of layer ``l+1`` depends on every task of layer ``l``
    selected with probability *edge_probability* (at least one, to keep
    layers meaningful).  Acceleration factors are log-uniform over
    *accel_range*, mimicking the wide spread of Table 1.
    """
    if n_layers < 1 or layer_width < 1:
        raise ValueError("n_layers and layer_width must be >= 1")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must lie in [0, 1]")

    graph = TaskGraph(name=f"layered-{n_layers}x{layer_width}")
    index = 0
    previous: list[Task] = []
    for _ in range(n_layers):
        layer: list[Task] = []
        for _ in range(layer_width):
            task = _reference_random_task(
                rng, index, cpu_range=cpu_range, accel_range=accel_range
            )
            index += 1
            graph.add_task(task)
            layer.append(task)
            if previous:
                picks = [p for p in previous if rng.random() < edge_probability]
                if not picks:
                    picks = [previous[int(rng.integers(len(previous)))]]
                for pred in picks:
                    graph.add_edge(pred, task)
        previous = layer
    return graph


def reference_random_chain_graph(
    n_chains: int,
    chain_length: int,
    rng: np.random.Generator,
    *,
    cross_probability: float = 0.1,
    cpu_range: tuple[float, float] = (0.5, 2.0),
    accel_range: tuple[float, float] = (0.2, 30.0),
) -> TaskGraph:
    """Parallel chains with sparse cross-chain edges (critical-path heavy)."""
    if n_chains < 1 or chain_length < 1:
        raise ValueError("n_chains and chain_length must be >= 1")

    graph = TaskGraph(name=f"chains-{n_chains}x{chain_length}")
    chains: list[list[Task]] = []
    index = 0
    for _ in range(n_chains):
        chain: list[Task] = []
        for pos in range(chain_length):
            task = _reference_random_task(
                rng, index, cpu_range=cpu_range, accel_range=accel_range
            )
            index += 1
            graph.add_task(task)
            if pos > 0:
                graph.add_edge(chain[-1], task)
            chain.append(task)
        chains.append(chain)
    # Sparse forward cross links between chains (kept acyclic by indexing).
    for c, chain in enumerate(chains):
        for pos, task in enumerate(chain[:-1]):
            if rng.random() < cross_probability:
                other = int(rng.integers(n_chains))
                if other != c:
                    graph.add_edge(task, chains[other][pos + 1])
    return graph


# -- Communication-aware runtime (pre hook) -------------------------------------
#
# Verbatim snapshot of ``repro.comm.runtime``'s own DAG event loop
# (``CommAwareSimulator``, its ``_Execution`` record renamed
# ``_CommExecution``, and ``simulate_with_comm``) as it stood before
# communication-aware runs became a data-movement hook on the one
# ``RuntimeSimulator``.  ``tests/test_comm_differential.py`` compares
# placements, transfers and makespans against it.


@dataclass
class _CommExecution:
    task: Task
    worker: Worker
    dispatch: float       # when the worker was committed (transfers start)
    compute_start: float  # when the kernel itself starts
    end: float
    generation: int


class ReferenceCommAwareSimulator:
    """Execute a task graph with data-locality-induced transfer delays."""

    def __init__(
        self,
        graph: TaskGraph,
        platform: Platform,
        policy: OnlinePolicy,
        *,
        model: CommunicationModel | None = None,
    ):
        self.graph = graph
        self.platform = platform
        self.policy = policy
        self.model = model if model is not None else CommunicationModel()

    def run(self) -> CommRunResult:
        graph, platform, policy, model = self.graph, self.platform, self.policy, self.model
        schedule = Schedule(platform, strict=False)
        transfers: list[TransferEvent] = []
        directory = DataDirectory()
        if len(graph) == 0:
            return CommRunResult(schedule=schedule)

        policy.prepare(platform)
        attach = getattr(policy, "attach_comm", None)
        if attach is not None:
            attach(directory, model, graph)

        indegree = {task: graph.in_degree(task) for task in graph}
        remaining = len(graph)
        running: dict[Worker, _CommExecution] = {}
        idle: set[Worker] = set(platform.workers())
        generations: dict[Worker, int] = {w: 0 for w in platform.workers()}
        events: list[tuple[float, int, Worker, int]] = []
        seq = itertools.count()

        def service_key(worker: Worker) -> tuple[int, int]:
            return (0 if worker.kind is ResourceKind.GPU else 1, worker.index)

        def announce(tasks: list[Task], now: float) -> None:
            tasks.sort(key=lambda t: (-t.priority, t.uid))
            policy.tasks_ready(tasks, now)

        def running_view() -> dict[Worker, RunningView]:
            return {
                w: RunningView(task=e.task, worker=w, start=e.dispatch, end=e.end)
                for w, e in running.items()
            }

        def start(task: Task, worker: Worker, now: float) -> None:
            destination = location_of(worker)
            clock = now
            for access in graph.accesses.get(task, ()):
                if not access.mode.reads:
                    continue
                if directory.has_copy(access.handle, destination):
                    continue
                size = graph.handle_bytes.get(access.handle, 0)
                src, cost = directory.cheapest_source(
                    access.handle, destination, size, model
                )
                if cost > 0.0:
                    transfers.append(
                        TransferEvent(
                            handle=access.handle,
                            source=src,
                            destination=destination,
                            size_bytes=size,
                            start=clock,
                            end=clock + cost,
                            task=task,
                            worker=worker,
                        )
                    )
                    clock += cost
                directory.add_copy(access.handle, destination)
            compute_start = clock
            end = compute_start + task.time_on(worker.kind)
            generations[worker] += 1
            running[worker] = _CommExecution(
                task=task,
                worker=worker,
                dispatch=now,
                compute_start=compute_start,
                end=end,
                generation=generations[worker],
            )
            idle.discard(worker)
            heapq.heappush(events, (end, next(seq), worker, generations[worker]))
            policy.task_started(task, worker, now)

        def finish(execution: _CommExecution) -> list[Task]:
            schedule.add(
                execution.task,
                execution.worker,
                execution.compute_start,
                end=execution.end,
            )
            destination = location_of(execution.worker)
            for access in graph.accesses.get(execution.task, ()):
                if access.mode.writes:
                    directory.write(access.handle, destination)
            policy.task_finished(execution.task, execution.worker, execution.end)
            newly_ready = []
            for succ in graph.successors(execution.task):
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    newly_ready.append(succ)
            return newly_ready

        def settle(now: float) -> None:
            progress = True
            while progress:
                progress = False
                for worker in sorted(idle, key=service_key):
                    if worker not in idle:
                        continue
                    action = policy.pick(worker, now, running_view())
                    if action is None:
                        continue
                    if isinstance(action, StartTask):
                        start(action.task, worker, now)
                        progress = True
                    elif isinstance(action, Spoliate):
                        victim = running.get(action.victim)
                        if victim is None or victim.worker.kind is worker.kind:
                            raise RuntimeError(
                                f"policy {policy.name} issued an invalid spoliation"
                            )
                        schedule.add(
                            victim.task,
                            victim.worker,
                            victim.dispatch,
                            end=now,
                            aborted=True,
                        )
                        del running[victim.worker]
                        generations[victim.worker] += 1
                        idle.add(victim.worker)
                        policy.task_aborted(victim.task, victim.worker, now)
                        start(victim.task, worker, now)
                        progress = True
                    else:  # pragma: no cover - exhaustive Action union
                        raise TypeError(f"unknown action {action!r}")

        announce(graph.sources(), 0.0)
        settle(0.0)
        while remaining > 0:
            if not events:
                raise RuntimeError(
                    f"policy {policy.name} stalled with {remaining} tasks unfinished"
                )
            time, _, worker, gen = heapq.heappop(events)
            finished: list[_CommExecution] = []
            if generations[worker] == gen:
                finished.append(running.pop(worker))
            while events and events[0][0] <= time + TIME_EPS:
                _, _, worker2, gen2 = heapq.heappop(events)
                if generations[worker2] == gen2:
                    finished.append(running.pop(worker2))
            if not finished:
                continue
            newly_ready: list[Task] = []
            for execution in finished:
                remaining -= 1
                idle.add(execution.worker)
                newly_ready.extend(finish(execution))
            if newly_ready:
                announce(newly_ready, time)
            if remaining > 0:
                settle(time)
        return CommRunResult(schedule=schedule, transfers=transfers)


def reference_simulate_with_comm(
    graph: TaskGraph,
    platform: Platform,
    policy: OnlinePolicy,
    *,
    model: CommunicationModel | None = None,
) -> CommRunResult:
    """Convenience wrapper around :class:`ReferenceCommAwareSimulator`."""
    return ReferenceCommAwareSimulator(graph, platform, policy, model=model).run()


# -- Factorization graphs (pre shared submission loop) ---------------------------
#
# Verbatim snapshots of ``cholesky_graph``, ``qr_graph`` and ``lu_graph``
# as they stood before each family's submission loop was written once
# and shared with ``*_program``.
# ``tests/test_factorization_differential.py`` compares the dict graphs
# against them.


def reference_cholesky_graph(
    n_tiles: int,
    timing: TimingModel | None = None,
) -> TaskGraph:
    """Build the task graph of a tiled Cholesky factorization.

    Parameters
    ----------
    n_tiles:
        Number of tile rows/columns ``N`` (the paper sweeps 4..64).
    timing:
        Timing model supplying kernel durations; defaults to the
        calibrated deterministic Cholesky table.
    """
    if n_tiles < 1:
        raise ValueError("n_tiles must be >= 1")
    if timing is None:
        timing = TimingModel.for_factorization("cholesky")

    tracker = DataflowTracker(
        name=f"cholesky-{n_tiles}", default_handle_bytes=TILE_BYTES
    )
    read, write = AccessMode.READ, AccessMode.READ_WRITE

    def kernel(kind: str, label: str) -> Task:
        p, q = timing.sample(kind)
        return Task(cpu_time=p, gpu_time=q, name=label, kind=kind)

    for k in range(n_tiles):
        tracker.submit(kernel("POTRF", f"POTRF({k})"), [((k, k), write)])
        for i in range(k + 1, n_tiles):
            tracker.submit(
                kernel("TRSM", f"TRSM({i},{k})"),
                [((k, k), read), ((i, k), write)],
            )
        for i in range(k + 1, n_tiles):
            tracker.submit(
                kernel("SYRK", f"SYRK({i},{k})"),
                [((i, k), read), ((i, i), write)],
            )
            for j in range(k + 1, i):
                tracker.submit(
                    kernel("GEMM", f"GEMM({i},{j},{k})"),
                    [((i, k), read), ((j, k), read), ((i, j), write)],
                )
    graph = tracker.graph
    assert len(graph) == cholesky_task_count(n_tiles)
    return graph



def reference_qr_graph(
    n_tiles: int,
    timing: TimingModel | None = None,
) -> TaskGraph:
    """Build the task graph of a flat-tree tiled QR factorization."""
    if n_tiles < 1:
        raise ValueError("n_tiles must be >= 1")
    if timing is None:
        timing = TimingModel.for_factorization("qr")

    tracker = DataflowTracker(
        name=f"qr-{n_tiles}", default_handle_bytes=TILE_BYTES
    )
    read, rw, write = AccessMode.READ, AccessMode.READ_WRITE, AccessMode.WRITE

    def kernel(kind: str, label: str) -> Task:
        p, q = timing.sample(kind)
        return Task(cpu_time=p, gpu_time=q, name=label, kind=kind)

    for k in range(n_tiles):
        tracker.set_handle_bytes(("T", k, k), T_TILE_BYTES)
        for i in range(k + 1, n_tiles):
            tracker.set_handle_bytes(("T", i, k), T_TILE_BYTES)
        tracker.submit(
            kernel("GEQRT", f"GEQRT({k})"),
            [(("A", k, k), rw), (("T", k, k), write)],
        )
        for j in range(k + 1, n_tiles):
            tracker.submit(
                kernel("ORMQR", f"ORMQR({k},{j})"),
                [(("A", k, k), read), (("T", k, k), read), (("A", k, j), rw)],
            )
        for i in range(k + 1, n_tiles):
            tracker.submit(
                kernel("TSQRT", f"TSQRT({i},{k})"),
                [(("A", k, k), rw), (("A", i, k), rw), (("T", i, k), write)],
            )
            for j in range(k + 1, n_tiles):
                tracker.submit(
                    kernel("TSMQR", f"TSMQR({i},{j},{k})"),
                    [
                        (("A", k, j), rw),
                        (("A", i, j), rw),
                        (("A", i, k), read),
                        (("T", i, k), read),
                    ],
                )
    graph = tracker.graph
    assert len(graph) == qr_task_count(n_tiles)
    return graph



def reference_lu_graph(
    n_tiles: int,
    timing: TimingModel | None = None,
) -> TaskGraph:
    """Build the task graph of a tiled LU factorization without pivoting."""
    if n_tiles < 1:
        raise ValueError("n_tiles must be >= 1")
    if timing is None:
        timing = TimingModel.for_factorization("lu")

    tracker = DataflowTracker(
        name=f"lu-{n_tiles}", default_handle_bytes=TILE_BYTES
    )
    read, rw = AccessMode.READ, AccessMode.READ_WRITE

    def kernel(kind: str, label: str) -> Task:
        p, q = timing.sample(kind)
        return Task(cpu_time=p, gpu_time=q, name=label, kind=kind)

    for k in range(n_tiles):
        tracker.submit(kernel("GETRF", f"GETRF({k})"), [((k, k), rw)])
        for j in range(k + 1, n_tiles):
            tracker.submit(
                kernel("TRSM", f"TRSM_row({k},{j})"),
                [((k, k), read), ((k, j), rw)],
            )
        for i in range(k + 1, n_tiles):
            tracker.submit(
                kernel("TRSM", f"TRSM_col({i},{k})"),
                [((k, k), read), ((i, k), rw)],
            )
            for j in range(k + 1, n_tiles):
                tracker.submit(
                    kernel("GEMM", f"GEMM({i},{j},{k})"),
                    [((i, k), read), ((k, j), read), ((i, j), rw)],
                )
    graph = tracker.graph
    assert len(graph) == lu_task_count(n_tiles)
    return graph


# -- Independent HeteroPrio core (pre one event loop) ---------------------------
#
# Verbatim snapshot of ``repro.core.heteroprio``'s ``heteroprio_schedule``
# and its own event loop (``_run``, renamed ``_reference_heteroprio_run``,
# with ``_worker_service_key``; its ``_Running`` record is the one above)
# as they stood before Algorithm 1 ran on the one ``RuntimeSimulator``.
# ``tests/test_heteroprio_differential.py`` compares placements,
# ``ns_schedule``, ``t_first_idle``, spoliation events and ``strict``
# against it in every migration mode.


def reference_heteroprio_schedule(
    instance: Instance,
    platform: Platform,
    *,
    spoliation: bool = True,
    migration: MigrationMode = "spoliation",
    service_order: str = "gpu_first",
    compute_ns: bool = True,
) -> HeteroPrioResult:
    """Run HeteroPrio (Algorithm 1) on an independent-task instance.

    Parameters
    ----------
    instance:
        The independent tasks to schedule.
    platform:
        The target ``(m, n)`` node.  Must have at least one CPU and one
        GPU when *spoliation* is enabled (otherwise spoliation is moot).
    spoliation:
        When ``False``, produce the pure list schedule
        :math:`S_{HP}^{NS}` (used by the proofs and for analysis).
    migration:
        ``"spoliation"`` (the paper's restart-from-scratch mechanism,
        default), ``"preemption"`` (idealised progress-preserving
        migration — an upper bound on what any migration mechanism could
        achieve; the resulting schedule is marked non-strict), or
        ``"none"``.  Ignored when *spoliation* is ``False``.
    service_order:
        Which class of simultaneously idle workers is served first.  The
        paper leaves this choice free ("select an idle worker"); GPUs
        first is the natural choice for runtime systems (and the one that
        realises the worst-case constructions of Theorems 8, 11 and 14).
    compute_ns:
        Also compute :math:`S_{HP}^{NS}` (a second, spoliation-free run)
        so the result carries both schedules.  Disable for speed when
        only the final makespan matters.

    Returns
    -------
    HeteroPrioResult
        The final schedule, the no-spoliation schedule, the first-idle
        instant and the chronological list of spoliations.
    """
    if platform.num_cpus == 0 and platform.num_gpus == 0:
        raise ValueError("platform has no workers")
    if len(instance) == 0:
        empty = Schedule(platform)
        return HeteroPrioResult(schedule=empty, ns_schedule=Schedule(platform), t_first_idle=0.0)

    mode: MigrationMode = migration if spoliation else "none"
    if mode not in ("spoliation", "preemption", "none"):
        raise ValueError(f"unknown migration mode {mode!r}")
    schedule, spoliations, t_first_idle = _reference_heteroprio_run(instance, platform, mode, service_order)
    if compute_ns:
        if mode != "none":
            ns_schedule, _, ns_first_idle = _reference_heteroprio_run(instance, platform, "none", service_order)
        else:
            ns_schedule, ns_first_idle = schedule, t_first_idle
    else:
        ns_schedule, ns_first_idle = Schedule(platform), t_first_idle
    return HeteroPrioResult(
        schedule=schedule,
        ns_schedule=ns_schedule,
        t_first_idle=ns_first_idle,
        spoliations=spoliations,
    )


def _reference_worker_service_key(order: str) -> Callable[[Worker], tuple[int, int]]:
    def key(worker: Worker) -> tuple[int, int]:
        gpu_rank = 0 if worker.kind is ResourceKind.GPU else 1
        if order == "cpu_first":
            gpu_rank = 1 - gpu_rank
        return (gpu_rank, worker.index)

    return key


def _reference_heteroprio_run(
    instance: Instance,
    platform: Platform,
    migration: MigrationMode,
    service_order: str,
) -> tuple[Schedule, list[SpoliationEvent], float]:
    """Discrete-event execution of Algorithm 1.

    Uses the same incremental hot-path layout as the DAG simulator
    (:mod:`repro.simulator.runtime`): workers are dense integer slots so
    the loop never hashes ``Worker`` dataclasses, the idle set is a flag
    array walked in a precomputed service order, per-task times are
    flattened up front, and the affinity queue is the O(log n)
    double-ended heap popping in exactly the order of the sorted list it
    replaced (``tests/test_differential_simcore.py`` pins the whole loop
    event-for-event against the pre-optimization implementation).
    """
    # Lazy import: the online-policy package imports this module at load
    # time, so a top-level import would be circular.
    from repro.schedulers.online.ready_queue import DualEndedTaskQueue

    # The double-ended affinity queue Q: pop_min is the CPU end (least
    # accelerated), pop_max the GPU end.
    queue: DualEndedTaskQueue[Task] = DualEndedTaskQueue()
    queue.extend([(_queue_key(t), t) for t in instance])
    # Preempted tasks complete in several partial placements, so exact
    # per-placement durations cannot be enforced.
    schedule = Schedule(platform, strict=(migration != "preemption"))
    spoliations: list[SpoliationEvent] = []

    # Slots are numbered in service order, so a plain integer sort of the
    # idle set reproduces the service-order walk of the old settle().
    service_key = _reference_worker_service_key(service_order)
    workers: tuple[Worker, ...] = tuple(sorted(platform.workers(), key=service_key))
    n_workers = len(workers)
    # Index into the per-task (cpu_time, gpu_time) pair for each slot.
    time_index = tuple(
        1 if w.kind is ResourceKind.GPU else 0 for w in workers
    )
    task_times = {t: (t.cpu_time, t.gpu_time) for t in instance}

    running: list[_Running | None] = [None] * n_workers
    idle = set(range(n_workers))
    remaining = len(instance)
    t_first_idle: float | None = None

    # Event heap: (time, sequence, slot, generation).  The generation
    # counter invalidates completion events of spoliated executions.
    events: list[tuple[float, int, int, int]] = []
    seq = itertools.count()
    generations = [0] * n_workers

    def start_task(task: Task, slot: int, now: float, fraction: float = 1.0) -> None:
        end = now + fraction * task_times[task][time_index[slot]]
        gen = generations[slot] + 1
        generations[slot] = gen
        running[slot] = _Running(task=task, worker=workers[slot], start=now,
                                 end=end, generation=gen, fraction=fraction)
        idle.discard(slot)
        heapq.heappush(events, (end, next(seq), slot, gen))

    def try_assign(slot: int, now: float) -> bool:
        """Give the worker in *slot* a task from the queue, or spoliate."""
        nonlocal t_first_idle
        if queue:
            task = queue.pop_max() if time_index[slot] else queue.pop_min()
            start_task(task, slot, now)
            return True
        if t_first_idle is None:
            t_first_idle = now
        if migration == "none":
            return False
        # Migration attempt: victims on the other class, by decreasing
        # expected completion time, ties broken by higher priority.
        other_index = 1 - time_index[slot]
        victims = [
            (vslot, r)
            for vslot, r in enumerate(running)
            if r is not None and time_index[vslot] == other_index
        ]
        victims.sort(key=lambda vr: (-vr[1].end, -vr[1].task.priority, vr[1].task.uid))
        for vslot, victim in victims:
            if migration == "preemption":
                # Progress carries over: only the unfinished fraction of
                # the task must run on the new worker.
                done_share = (now - victim.start) / (victim.end - victim.start)
                fraction = victim.fraction * (1.0 - done_share)
            else:
                fraction = 1.0  # spoliation: progress is lost
            new_end = now + fraction * task_times[victim.task][time_index[slot]]
            if new_end < victim.end - TIME_EPS:
                schedule.add(victim.task, victim.worker, victim.start, end=now, aborted=True)
                running[vslot] = None
                idle.add(vslot)
                generations[vslot] += 1  # cancel its completion event
                spoliations.append(
                    SpoliationEvent(
                        task=victim.task,
                        victim_worker=victim.worker,
                        new_worker=workers[slot],
                        abort_time=now,
                        old_completion=victim.end,
                        new_completion=new_end,
                    )
                )
                start_task(victim.task, slot, now, fraction)
                return True
        return False

    def settle(now: float) -> None:
        """Serve idle workers until no further action is possible."""
        progress = True
        while progress:
            progress = False
            for slot in sorted(idle):
                if slot in idle and try_assign(slot, now):
                    progress = True

    settle(0.0)
    while remaining > 0:
        if not events:  # pragma: no cover - defensive; cannot happen
            raise RuntimeError("HeteroPrio stalled with unfinished tasks")
        time, _, slot, gen = heapq.heappop(events)
        if generations[slot] != gen:
            continue  # stale event: the execution was spoliated
        record = running[slot]
        running[slot] = None
        schedule.add(record.task, record.worker, record.start, end=record.end)
        remaining -= 1
        idle.add(slot)
        # Batch all completions at the same instant before re-dispatching,
        # so simultaneous finishers see a consistent queue state.
        while events and events[0][0] <= time + TIME_EPS:
            time2, _, slot2, gen2 = heapq.heappop(events)
            if generations[slot2] != gen2:
                continue
            record2 = running[slot2]
            running[slot2] = None
            schedule.add(record2.task, record2.worker, record2.start, end=record2.end)
            remaining -= 1
            idle.add(slot2)
        if remaining > 0:
            settle(time)

    if t_first_idle is None:
        # Every worker was busy continuously until its final completion:
        # the first idle instant is the earliest of those final completions.
        t_first_idle = min(
            max((p.end for p in schedule.worker_timeline(w)), default=0.0)
            for w in platform.workers()
        )
    return schedule, spoliations, t_first_idle
