"""DualHP as an online DAG policy (Section 6.2).

Every time tasks become ready, the dual-approximation assignment of
Bleuse et al. is recomputed over the *whole* pool of ready-but-unstarted
tasks, taking the remaining work of currently executing tasks into
account as initial class loads.  Workers then consume the pool of their
own class in priority order (``fifo`` ranking keeps arrival order).
DualHP never spoliates; its conservatism on nearly-empty ready sets is
precisely what Figure 9 exposes as CPU idle time.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Mapping, Sequence

from repro.core.platform import Platform, ResourceKind, Worker
from repro.core.task import Task
from repro.schedulers.online.base import Action, OnlinePolicy, RunningView, StartTask

__all__ = ["DualHPPolicy"]

#: Relative precision of the online binary search; coarser than the
#: offline scheduler since the assignment is recomputed continuously.
ONLINE_RTOL = 1e-3


class DualHPPolicy(OnlinePolicy):
    """Pool-based DualHP with per-ready-event reassignment."""

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
        """Binary-search the smallest feasible guess and split the pool.

        The pool's durations are extracted once, in acceleration order;
        each guess only asks :func:`_pack` for a yes/no answer, and the
        class split is built once, at the accepted guess.
        """
        assert self._platform is not None
        platform = self._platform
        pool = self._pool
        tasks = sorted(pool, key=lambda t: (-t.acceleration, -t.priority, pool[t]))
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

        # (position, p, q) in acceleration order, extracted once.
        triples = [(k, t.cpu_time, t.gpu_time) for k, t in enumerate(tasks)]
        cpus = sorted(cpu_init)  # a sorted list is a valid heap
        gpus = sorted(gpu_init)
        base = max(max(cpu_init, default=0.0), max(gpu_init, default=0.0))
        shortest = [min(p, q) for _, p, q in triples]
        hi = base + max(sum(shortest), max(shortest))
        # hi need not be feasible: on a single-class platform, a task
        # longer than hi on the present class is forced onto the absent one.
        while not _pack(triples, hi, cpus, gpus):
            hi *= 2.0
        lo = 0.0
        while hi - lo > ONLINE_RTOL * hi:
            mid = 0.5 * (lo + hi)
            if _pack(triples, mid, cpus, gpus):
                hi = mid
            else:
                lo = mid
        on_gpu = [False] * len(tasks)
        _pack(triples, hi, cpus, gpus, on_gpu)
        queues: dict[ResourceKind, list[Task]] = {
            ResourceKind.CPU: [t for t, g in zip(tasks, on_gpu) if not g],
            ResourceKind.GPU: [t for t, g in zip(tasks, on_gpu) if g],
        }
        # Workers pop from the tail: lowest (priority, arrival) last.
        for queue in queues.values():
            queue.sort(key=lambda t: (t.priority, -pool[t]))
        self._class_queues = queues


def _pack(
    triples: list[tuple[int, float, float]],
    lam: float,
    cpus: list[float],
    gpus: list[float],
    on_gpu: list[bool] | None = None,
) -> bool:
    """One dual round on the pool: whether guess *lam* is feasible.

    Mirrors :func:`repro.schedulers.dualhp.dualhp_try` but only decides
    the class split (the runtime decides actual workers), starting from
    the class loads of running work.  *triples* are the pool's
    ``(position, p, q)`` in acceleration order; *cpus* and *gpus* are
    heaps of class loads, copied here.  Which worker of a class takes a
    task never changes the class's multiset of loads, so plain loads
    decide exactly what ``(load, index)`` heaps would.  With *on_gpu*,
    the positions placed on a GPU are flagged.
    """
    limit = 2.0 * lam
    cpus = cpus[:]
    gpus = gpus[:]
    replace = heapq.heapreplace
    overflow: list[float] = []
    for k, p, q in triples:
        if p > lam:
            if q > lam or not gpus:
                return False
            end = gpus[0] + q
            if not end <= limit:
                return False
            replace(gpus, end)
            if on_gpu is not None:
                on_gpu[k] = True
        elif q > lam:
            if not cpus:
                return False
            end = cpus[0] + p
            if not end <= limit:
                return False
            replace(cpus, end)
        else:
            if gpus:
                end = gpus[0] + q
                if end <= limit:
                    replace(gpus, end)
                    if on_gpu is not None:
                        on_gpu[k] = True
                    continue
            overflow.append(p)
    if overflow and not cpus:
        return False
    for p in overflow:
        end = cpus[0] + p
        if not end <= limit:
            return False
        replace(cpus, end)
    return True
