"""DualHP as an online DAG policy (Section 6.2).

Every time tasks become ready, the dual-approximation assignment of
Bleuse et al. is recomputed over the *whole* pool of ready-but-unstarted
tasks, taking the remaining work of currently executing tasks into
account as initial class loads.  Workers then consume the pool of their
own class in priority order (``fifo`` ranking keeps arrival order).
DualHP never spoliates; its conservatism on nearly-empty ready sets is
precisely what Figure 9 exposes as CPU idle time.

Each reassignment binary-searches the guess lambda over the pool in
acceleration order.  That order is kept across reassignments and split
into *runs*: maximal blocks of adjacent tasks with equal ``(p, q)``.  A
tiled factorization's pool has a run or two per kernel type, so each
guess is answered from greedy traces of the runs, recorded once per
reassignment (:class:`_Traces`); a pool of many short runs is packed
task by task (:func:`_pack`).  Both give the same answer at every guess.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right, insort
from operator import itemgetter
from typing import Mapping, Sequence

from repro.core.platform import Platform, ResourceKind, Worker
from repro.core.task import Task
from repro.schedulers.online.base import Action, OnlinePolicy, RunningView, StartTask

__all__ = ["DualHPPolicy"]

#: Relative precision of the online binary search; coarser than the
#: offline scheduler since the assignment is recomputed continuously.
ONLINE_RTOL = 1e-3

#: A pool answers its guesses from traces when it has at most this many
#: runs, of at least two tasks each on average.  A trace pays off only
#: when runs are long and few; on a pool of one-task runs (random
#: graphs, noisy durations) it would allocate a trie node per task and
#: guess, so such pools are packed task by task.
TRACED_MAX_RUNS = 8
TRACED_MIN_MEAN_RUN = 2

_CPU = ResourceKind.CPU
_PAIR = itemgetter(3)


class DualHPPolicy(OnlinePolicy):
    """Pool-based DualHP with per-ready-event reassignment."""

    name = "dualhp"

    def __init__(self) -> None:
        self._platform: Platform | None = None
        self._reset()

    def prepare(self, platform: Platform) -> None:
        self._platform = platform
        self._reset()

    def _reset(self) -> None:
        self._pool: set[Task] = set()
        self._arrival = itertools.count()
        # The pool in acceleration order, as (-rho, -priority, arrival,
        # (p, q), task), and in queue order, as (priority, -arrival,
        # task).  Arrivals are unique, so tuples never compare tasks.
        # Started tasks linger in both until the next reassignment.
        self._by_rho: list[tuple] = []
        self._by_rank: list[tuple] = []
        self._dirty = True
        self._cpu_queue: list[Task] = []
        self._gpu_queue: list[Task] = []

    def tasks_ready(self, tasks: Sequence[Task], time: float) -> None:
        # A task's priority is final once it is announced, so its order
        # keys are computed once, here.
        for task in tasks:
            arrival = next(self._arrival)
            p, q = task.cpu_time, task.gpu_time
            insort(self._by_rho, (-(p / q), -task.priority, arrival, (p, q), task))
            insort(self._by_rank, (task.priority, -arrival, task))
            self._pool.add(task)
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
        queue = self._cpu_queue if worker.kind is _CPU else self._gpu_queue
        if queue:
            task = queue.pop()
            self._pool.remove(task)
            return StartTask(task)
        return None

    # -- assignment ------------------------------------------------------------

    def _reassign(self, time: float, running: Mapping[Worker, RunningView]) -> None:
        """Binary-search the smallest feasible guess and split the pool.

        The pool's runs are extracted once, in acceleration order; each
        guess only asks for a yes/no answer, and the class split is
        built once, at the accepted guess.
        """
        assert self._platform is not None
        platform = self._platform
        pool = self._pool
        by_rho = self._by_rho = [e for e in self._by_rho if e[4] in pool]
        by_rank = self._by_rank = [e for e in self._by_rank if e[2] in pool]
        cpu_init = [0.0] * platform.num_cpus
        gpu_init = [0.0] * platform.num_gpus
        # repro-lint: disable=unordered-iteration -- each Worker key occurs
        # once, so every slot receives exactly one += and the heaps below
        # are sorted copies; iteration order is immaterial.
        for view in running.values():
            remaining = max(view.end - time, 0.0)
            if view.worker.kind is _CPU:
                cpu_init[view.worker.index] += remaining
            else:
                gpu_init[view.worker.index] += remaining
        self._dirty = False
        if not by_rho:
            self._cpu_queue, self._gpu_queue = [], []
            return

        runs = [list(members) for _, members in itertools.groupby(by_rho, _PAIR)]
        cpus = sorted(cpu_init)  # a sorted list is a valid heap
        gpus = sorted(gpu_init)
        base = max(max(cpu_init, default=0.0), max(gpu_init, default=0.0))
        # One min-time per task, in pool order: on Python >= 3.12 ``sum``
        # is compensated, so the seed guess depends on the terms' order.
        shortest: list[float] = []
        for members in runs:
            p, q = members[0][3]
            shortest += [min(p, q)] * len(members)
        hi = base + max(sum(shortest), max(shortest))
        if len(runs) <= TRACED_MAX_RUNS and len(by_rho) >= TRACED_MIN_MEAN_RUN * len(runs):
            traces = _Traces([(*m[0][3], len(m)) for m in runs], cpus, gpus)
            feasible = traces.pack
        else:
            traces = None
            triples = [(k, p, q) for k, (_, _, _, (p, q), _) in enumerate(by_rho)]

            def feasible(lam: float) -> bool:
                return _pack(triples, lam, cpus, gpus)

        # hi need not be feasible: on a single-class platform, a task
        # longer than hi on the present class is forced onto the absent one.
        while not feasible(hi):
            hi *= 2.0
        lo = 0.0
        while hi - lo > ONLINE_RTOL * hi:
            mid = 0.5 * (lo + hi)
            if feasible(mid):
                hi = mid
            else:
                lo = mid
        if traces is not None:
            on_gpu = {e[4] for m, j in zip(runs, traces.counts) for e in m[:j]}
        else:
            flags = [False] * len(by_rho)
            _pack(triples, hi, cpus, gpus, flags)
            on_gpu = {e[4] for e, g in zip(by_rho, flags) if g}
        # by_rank ascends in (priority, -arrival) and workers pop from the
        # tail: highest priority first, earliest arrival among equals.
        cpu_queue: list[Task] = []
        gpu_queue: list[Task] = []
        for e in by_rank:
            task = e[2]
            (gpu_queue if task in on_gpu else cpu_queue).append(task)
        self._cpu_queue, self._gpu_queue = cpu_queue, gpu_queue


class _Traces:
    """One pool's greedy traces, shared by every guess of one search.

    *runs* are the pool's ``(p, q, count)`` in acceleration order;
    *cpus* and *gpus* are heaps of the initial class loads.  A guess
    places on the GPUs, in pool order, every task of a run forced there
    (``p > lam``) and a prefix of each flexible run; the CPUs then take
    the runs forced there (``q > lam``) and the flexible runs' tails,
    both in pool order — the order in which :func:`_pack` places them.

    Inside a run the durations are equal and each placement replaces a
    heap minimum by a larger value, so the minimum never decreases and
    the run's ends never do either.  Hence a forced run fits iff its
    last end does, and a flexible run's GPU share is the number of ends
    within ``2 * lam``: the prefix ``_pack`` places before the first
    end above it, after which the heap no longer changes.

    The loads before a run depend only on what the earlier runs placed,
    so traces hang in two tries.  A GPU node ``[loads, ends, after,
    children]`` holds the loads before run ``i``, the ends of all of
    run ``i`` placed from them, and the loads after it; its children
    are keyed by how many of run ``i``'s tasks went to the GPUs.  A CPU
    node ``[loads, children]`` stands for the chunks ``(p, count)``
    placed so far; each child is keyed by the next chunk and comes with
    that chunk's last end.
    """

    __slots__ = ("_runs", "_has_cpu", "_has_gpu", "_gpu_root", "_cpu_root", "counts")

    def __init__(
        self,
        runs: list[tuple[float, float, int]],
        cpus: list[float],
        gpus: list[float],
    ) -> None:
        self._runs = runs
        self._has_cpu = bool(cpus)
        self._has_gpu = bool(gpus)
        self._gpu_root: list = [gpus, None, None, {}]
        self._cpu_root: list = [cpus, {}]
        #: GPU share of each run at the last feasible guess.
        self.counts: list[int] = []

    def pack(self, lam: float) -> bool:
        """Whether guess *lam* is feasible; same answer as :func:`_pack`."""
        limit = 2.0 * lam
        has_cpu = self._has_cpu
        has_gpu = self._has_gpu
        node = self._gpu_root
        last = len(self._runs) - 1
        counts: list[int] = []
        forced: list[tuple[float, int]] = []
        overflow: list[tuple[float, int]] = []
        for i, (p, q, c) in enumerate(self._runs):
            if p > lam:
                if q > lam or not has_gpu:
                    return False
                ends = node[1] or _gpu_trace(node, q, c)
                if not ends[-1] <= limit:
                    return False
                j = c
            elif q > lam:
                if not has_cpu:
                    return False
                forced.append((p, c))
                j = 0
            elif has_gpu:
                ends = node[1] or _gpu_trace(node, q, c)
                j = bisect_right(ends, limit)
                if j < c:
                    overflow.append((p, c - j))
            else:
                overflow.append((p, c))
                j = 0
            counts.append(j)
            if has_gpu and i != last:
                node = node[3].get(j) or _gpu_child(node, q, j)
        if overflow and not has_cpu:
            return False
        cpu = self._cpu_root
        for chunk in forced + overflow:
            end, cpu = cpu[1].get(chunk) or _cpu_chunk(cpu, chunk)
            if not end <= limit:
                return False
        self.counts = counts
        return True


def _cpu_chunk(node: list, chunk: tuple[float, int]) -> tuple[float, list]:
    """Place *chunk*, ``count >= 1`` tasks of CPU time ``p``, from *node*."""
    p, count = chunk
    loads = node[0][:]
    replace = heapq.heapreplace
    for _ in range(count):
        end = loads[0] + p
        replace(loads, end)
    step = node[1][chunk] = (end, [loads, {}])
    return step


def _gpu_trace(node: list, q: float, count: int) -> list[float]:
    """Record the ends of *count* tasks of GPU time *q* placed from *node*."""
    loads = node[0][:]
    replace = heapq.heapreplace
    ends = []
    for _ in range(count):
        end = loads[0] + q
        replace(loads, end)
        ends.append(end)
    node[1] = ends
    node[2] = loads
    return ends


def _gpu_child(node: list, q: float, placed: int) -> list:
    """The GPU node after *placed* tasks of GPU time *q* left *node*."""
    if placed == 0:
        loads = node[0]
    elif placed == len(node[1]):
        loads = node[2]
    else:
        loads = node[0][:]
        replace = heapq.heapreplace
        for _ in range(placed):
            replace(loads, loads[0] + q)
    child = node[3][placed] = [loads, None, None, {}]
    return child


def _pack(
    triples: list[tuple[int, float, float]],
    lam: float,
    cpus: list[float],
    gpus: list[float],
    on_gpu: list[bool] | None = None,
) -> bool:
    """One dual round on the pool, task by task: whether *lam* is feasible.

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
