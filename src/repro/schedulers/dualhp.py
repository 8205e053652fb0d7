"""DualHP: the dual-approximation scheduler of Bleuse et al. [15].

For a guess ``lambda`` on the optimal makespan, the algorithm either
produces a schedule of length at most ``2 lambda`` or proves
``lambda < C_max_opt``:

1. any task longer than ``lambda`` on one resource class is *forced* on
   the other class (if a task exceeds ``lambda`` on both, the guess is
   infeasible);
2. remaining tasks are assigned to the GPUs by decreasing acceleration
   factor while the resulting GPU makespan stays within ``2 lambda``;
3. the rest goes to the CPUs; the guess is accepted if every CPU also
   finishes within ``2 lambda``.

A binary search on ``lambda`` then yields a 2-approximation.  Within a
class, tasks are packed greedily on the least-loaded worker, processing
tasks by decreasing priority first (the ``avg``/``min``/``fifo`` ranking
schemes of Section 6.2 set those priorities).

Every guess but the accepted one only needs a yes/no answer, so the
search works on a :class:`_Packer` built once per instance: phase orders
sorted once, durations read once, class loads in ``(load, index)`` heaps.
Placements are recorded by the same packing routine, once, at the
accepted guess.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.bounds.simple import makespan_lower_bound
from repro.core.platform import Platform, ResourceKind, Worker
from repro.core.schedule import Schedule
from repro.core.task import Instance

__all__ = ["DualHPResult", "dualhp_try", "dualhp_schedule"]

#: Relative precision of the binary search on ``lambda``.
SEARCH_RTOL = 1e-9


@dataclass
class DualHPResult:
    """Outcome of DualHP: the schedule and the accepted guess."""

    schedule: Schedule
    lam: float

    @property
    def makespan(self) -> float:
        return self.schedule.makespan


class _Packer:
    """The ``lambda``-independent state of one instance, and its packer.

    Phase orders are sorted once: the forced phases and the CPU leftover
    phase take tasks by ``(-priority, uid)``, the optional GPU phase by
    ``(-acceleration, -priority, uid)``.  A stable sort commutes with
    filtering, so selecting a guess's phase members from these lists
    yields exactly the order of sorting each phase per guess.  Class
    loads live in heaps of ``(load, index)``, whose minimum is the
    least-loaded worker with ties to the lowest index.
    """

    def __init__(
        self,
        instance: Instance,
        platform: Platform,
        initial_loads: dict[Worker, float] | None = None,
    ):
        tasks = list(instance)
        self.tasks = tasks
        self.platform = platform
        by_priority = sorted(
            range(len(tasks)), key=lambda i: (-tasks[i].priority, tasks[i].uid)
        )
        rank = [0] * len(tasks)
        for r, i in enumerate(by_priority):
            rank[i] = r
        by_acceleration = sorted(
            range(len(tasks)),
            key=lambda i: (-tasks[i].acceleration, -tasks[i].priority, tasks[i].uid),
        )
        #: ``(p, q, position)`` in priority order.
        self.by_priority = [
            (tasks[i].cpu_time, tasks[i].gpu_time, i) for i in by_priority
        ]
        #: ``(p, q, position, priority rank)`` in acceleration order.
        self.by_acceleration = [
            (tasks[i].cpu_time, tasks[i].gpu_time, i, rank[i]) for i in by_acceleration
        ]
        #: Largest ``min(p, q)``: any smaller guess exceeds it on both classes.
        self.floor = max((min(p, q) for p, q, _ in self.by_priority), default=-math.inf)
        loads = initial_loads or {}
        self.workers = {
            kind: list(platform.workers(kind))
            for kind in (ResourceKind.CPU, ResourceKind.GPU)
        }
        cpus, gpus = self.workers[ResourceKind.CPU], self.workers[ResourceKind.GPU]
        self.cpus = [(loads.get(w, 0.0), w.index) for w in cpus]
        self.gpus = [(loads.get(w, 0.0), w.index) for w in gpus]
        heapq.heapify(self.cpus)
        heapq.heapify(self.gpus)

    def pack(
        self, lam: float, record: tuple[list, list, list, list] | None = None
    ) -> bool:
        """Whether guess *lam* packs every task within ``2 * lam``.

        With *record*, each placement is logged as ``(position, worker
        index, start)`` in the list of its phase: forced GPU, forced CPU,
        optional GPU, leftover CPU.
        """
        if lam < self.floor:
            return False
        limit = 2.0 * lam
        cpus = self.cpus[:]
        gpus = self.gpus[:]
        replace = heapq.heapreplace
        # Forced tasks by priority.  The two classes' heaps are disjoint,
        # so one pass serves both forced phases.
        for p, q, i in self.by_priority:
            if p > lam:
                if not gpus:
                    return False
                load, w = gpus[0]
                if not load + q <= limit:
                    return False
                replace(gpus, (load + q, w))
                if record is not None:
                    record[0].append((i, w, load))
            elif q > lam:
                if not cpus:
                    return False
                load, w = cpus[0]
                if not load + p <= limit:
                    return False
                replace(cpus, (load + p, w))
                if record is not None:
                    record[1].append((i, w, load))
        # Optional tasks by acceleration fill the GPUs; overflow falls
        # through to the CPUs, by priority.
        leftover: list[int] = []
        for p, q, i, r in self.by_acceleration:
            if p > lam or q > lam:
                continue
            if gpus:
                load, w = gpus[0]
                if load + q <= limit:
                    replace(gpus, (load + q, w))
                    if record is not None:
                        record[2].append((i, w, load))
                    continue
            leftover.append(r)
        if leftover and not cpus:
            return False
        leftover.sort()
        by_priority = self.by_priority
        for r in leftover:
            p, _, i = by_priority[r]
            load, w = cpus[0]
            if not load + p <= limit:
                return False
            replace(cpus, (load + p, w))
            if record is not None:
                record[3].append((i, w, load))
        return True

    def schedule(self, lam: float) -> Schedule | None:
        """The ``<= 2 * lam`` schedule of guess *lam*, or ``None``."""
        record: tuple[list, list, list, list] = ([], [], [], [])
        if not self.pack(lam, record):
            return None
        schedule = Schedule(self.platform)
        kinds = (ResourceKind.GPU, ResourceKind.CPU, ResourceKind.GPU, ResourceKind.CPU)
        for kind, placed in zip(kinds, record):
            workers = self.workers[kind]
            for i, w, start in placed:
                schedule.add(self.tasks[i], workers[w], start)
        return schedule


def dualhp_try(
    instance: Instance,
    platform: Platform,
    lam: float,
    *,
    initial_loads: dict[Worker, float] | None = None,
) -> Schedule | None:
    """One dual-approximation round: a ``<= 2*lam`` schedule, or ``None``.

    ``initial_loads`` seeds the per-worker loads with work already
    running on each worker.
    """
    return _Packer(instance, platform, initial_loads).schedule(lam)


def dualhp_schedule(
    instance: Instance,
    platform: Platform,
    *,
    rtol: float = SEARCH_RTOL,
) -> DualHPResult:
    """Binary search on ``lambda`` down to relative precision *rtol*."""
    if len(instance) == 0:
        return DualHPResult(schedule=Schedule(platform), lam=0.0)
    bound = makespan_lower_bound(instance, platform)
    packer = _Packer(instance, platform)
    lo = bound / 2.0
    hi = max(
        bound,
        instance.total_cpu_work() / max(platform.num_cpus, 1)
        if platform.num_cpus
        else 0.0,
        instance.total_gpu_work() / max(platform.num_gpus, 1)
        if platform.num_gpus
        else 0.0,
        packer.floor,
    )
    # A least-loaded worker never carries more than its class's average
    # work (<= hi), and no task it takes exceeds hi, so hi is feasible;
    # the doubling only guards that argument.
    while not packer.pack(hi):
        hi *= 2.0
    while hi - lo > rtol * max(hi, 1.0):
        mid = 0.5 * (lo + hi)
        if packer.pack(mid):
            hi = mid
        else:
            lo = mid
    schedule = packer.schedule(hi)
    assert schedule is not None
    return DualHPResult(schedule=schedule, lam=hi)
