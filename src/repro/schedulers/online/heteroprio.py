"""HeteroPrio as an online policy: Section 6.2 on DAGs, and Algorithm 1
(:func:`repro.core.heteroprio.heteroprio_schedule`) on edge-free graphs.

The ready tasks live in one queue sorted by acceleration factor: idle
GPUs pop the most accelerated end, idle CPUs the least accelerated end,
ties resolved by priority.  When the queue is empty, an idle worker attempts
spoliation on the other resource class (victims in decreasing expected
completion time, ties by priority) — this is the mechanism that lets
HeteroPrio recover from affinity mistakes near the end of DAG phases.

The queue is a :class:`~repro.schedulers.online.ready_queue.DualEndedTaskQueue`
— O(log n) push and pop at either end, replacing the previous sorted
list (O(n) ``bisect``/``insert``/``pop(0)``) while popping in exactly
the same order.  The spoliation scan is the shared
:func:`~repro.schedulers.online.base.spoliation_victim` helper.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.heteroprio import MigrationMode, _queue_key
from repro.core.platform import Platform, ResourceKind, Worker
from repro.core.task import Task
from repro.schedulers.online.base import (
    Action,
    OnlinePolicy,
    RunningView,
    StartTask,
    spoliation_victim,
)
from repro.schedulers.online.ready_queue import DualEndedTaskQueue

__all__ = ["HeteroPrioPolicy"]


class HeteroPrioPolicy(OnlinePolicy):
    """Affinity queue + spoliation, applied to the current ready set.

    ``spoliation`` and ``migration`` take the values of
    :func:`~repro.core.heteroprio.heteroprio_schedule`: an idle worker
    facing an empty queue restarts a task from the other class
    (``"spoliation"``), moves it with its progress (``"preemption"``)
    or stays idle (``"none"``, or ``spoliation=False``).

    ``victim_rule`` selects how spoliation candidates are ordered:
    ``"priority"`` (default) is the DAG rule of Section 6.2 — among the
    improvable candidates, spoliate the highest-priority one;
    ``"completion"`` is Algorithm 1's rule for independent tasks —
    consider candidates by decreasing expected completion time.
    :attr:`first_idle` is the first instant of a run at which a polled
    worker found the queue empty (:math:`T_{FirstIdle}`).
    """

    name = "heteroprio"

    def __init__(
        self,
        *,
        spoliation: bool = True,
        migration: MigrationMode = "spoliation",
        victim_rule: str = "priority",
    ):
        mode = migration if spoliation else "none"
        if mode not in ("spoliation", "preemption", "none"):
            raise ValueError(f"unknown migration mode {mode!r}")
        if victim_rule not in ("priority", "completion"):
            raise ValueError(f"unknown victim_rule {victim_rule!r}")
        self.migration: MigrationMode = mode
        self.victim_rule = victim_rule
        self._keep_progress = mode == "preemption"
        self._queue: DualEndedTaskQueue[Task] = DualEndedTaskQueue()
        self.first_idle: float | None = None

    def prepare(self, platform: Platform) -> None:
        self._queue = DualEndedTaskQueue()
        self.first_idle = None

    def tasks_ready(self, tasks: Sequence[Task], time: float) -> None:
        push = self._queue.push
        for task in tasks:
            push(_queue_key(task), task)

    def pick(
        self,
        worker: Worker,
        time: float,
        running: Mapping[Worker, RunningView],
    ) -> Action | None:
        queue = self._queue
        if queue:
            if worker.kind is ResourceKind.GPU:
                return StartTask(queue.pop_max())
            return StartTask(queue.pop_min())
        if self.first_idle is None:
            self.first_idle = time
        if self.migration == "none":
            return None
        return spoliation_victim(worker, time, running, victim_rule=self.victim_rule,
                                 keep_progress=self._keep_progress)
