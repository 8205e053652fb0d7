"""Online-policy interface for the runtime simulator.

A policy receives *ready* notifications as dependencies resolve, and is
polled whenever a worker is idle.  It answers with an :class:`Action`:

* :class:`StartTask` — run a ready task on the polled worker;
* :class:`Spoliate` — abort the task running on another worker (of the
  other resource class) and restart it on the polled worker: from
  scratch (the paper's spoliation mechanism), or keeping the victim's
  progress (idealised preemption);
* ``None`` — leave the worker idle until the next event.

Policies never see wall-clock state beyond what a real runtime scheduler
would: the simulated time, the set of running executions, and their own
bookkeeping.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from repro.core.platform import Platform, ResourceKind, Worker
from repro.core.schedule import TIME_EPS
from repro.core.task import Task

__all__ = [
    "RunningView",
    "StartTask",
    "Spoliate",
    "Action",
    "OnlinePolicy",
    "spoliation_victim",
]


@dataclass(frozen=True)
class RunningView:
    """Read-only snapshot of one in-flight execution."""

    task: Task
    worker: Worker
    start: float
    end: float


@dataclass(frozen=True)
class StartTask:
    """Start *task* (previously announced as ready) on the polled worker."""

    task: Task


@dataclass(frozen=True)
class Spoliate:
    """Abort the execution on *victim* and restart its task on the poller.

    The restart runs the whole task again, or with ``keep_progress``
    only its unfinished share (idealised preemption).
    """

    victim: Worker
    keep_progress: bool = False


Action = Union[StartTask, Spoliate]


def spoliation_victim(
    worker: Worker,
    time: float,
    running: Mapping[Worker, "RunningView"],
    *,
    victim_rule: str = "priority",
    keep_progress: bool = False,
) -> Spoliate | None:
    """Pick the spoliation victim for an idle *worker*, or ``None``.

    The one candidate scan shared by every spoliating policy: consider
    executions on the *other* resource class whose completion the idle
    worker would improve by more than ``TIME_EPS`` (restarting the task
    from scratch, or with ``keep_progress`` running only its unfinished
    share), then order the candidates by the victim rule —

    * ``"priority"`` — Section 6.2's DAG rule: highest priority first,
      then latest expected completion, then ``uid``;
    * ``"completion"`` — Algorithm 1 line 11's rule for independent
      tasks: latest expected completion first, then highest priority,
      then ``uid``.

    The scan is a single pass keeping the running best, equivalent to
    (but cheaper than) materialising the candidate list and taking its
    ``min``.
    """
    if victim_rule not in ("priority", "completion"):
        raise ValueError(f"unknown victim_rule {victim_rule!r}")
    other = worker.kind.other
    on_cpu = worker.kind is ResourceKind.CPU
    by_priority = victim_rule == "priority"
    best_key: tuple[float, float, int] | None = None
    best_worker: Worker | None = None
    # repro-lint: disable=unordered-iteration -- single-pass min-reduction
    # with a strict total key ending in task.uid; no visiting order can
    # change which victim wins.
    for view in running.values():
        if view.worker.kind is not other:
            continue
        task = view.task
        new_time = task.cpu_time if on_cpu else task.gpu_time
        if keep_progress:
            # The unfinished share: a task preempted once moved to the
            # class that runs it faster, so only whole executions qualify.
            new_time *= 1.0 - (time - view.start) / (view.end - view.start)
        if time + new_time >= view.end - TIME_EPS:
            continue
        if by_priority:
            key = (-task.priority, -view.end, task.uid)
        else:
            key = (-view.end, -task.priority, task.uid)
        if best_key is None or key < best_key:
            best_key = key
            best_worker = view.worker
    if best_worker is None:
        return None
    return Spoliate(best_worker, keep_progress)


class OnlinePolicy(abc.ABC):
    """Base class of runtime scheduling policies."""

    #: Human-readable policy name (for reports).
    name: str = "policy"

    def prepare(self, platform: Platform) -> None:
        """Reset internal state for a fresh run on *platform*."""

    @abc.abstractmethod
    def tasks_ready(self, tasks: Sequence[Task], time: float) -> None:
        """Announce newly ready tasks (sorted by decreasing priority)."""

    @abc.abstractmethod
    def pick(
        self,
        worker: Worker,
        time: float,
        running: Mapping[Worker, RunningView],
    ) -> Action | None:
        """Choose what the idle *worker* should do now (or ``None``)."""

    def task_started(self, task: Task, worker: Worker, time: float) -> None:
        """Notification that *task* began executing on *worker*."""

    def task_finished(self, task: Task, worker: Worker, time: float) -> None:
        """Notification that *task* completed on *worker*."""

    def task_aborted(self, task: Task, worker: Worker, time: float) -> None:
        """Notification that *task* was spoliated away from *worker*."""
