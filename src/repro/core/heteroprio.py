"""HeteroPrio for independent tasks (Algorithm 1 of the paper).

The algorithm keeps every ready task in one queue ``Q`` sorted by
non-increasing acceleration factor ``rho = p / q``.  Idle GPUs pop from the
front of ``Q`` (most GPU-friendly task) and idle CPUs pop from the back
(least GPU-friendly).  When ``Q`` is empty, an idle worker attempts
**spoliation**: among the tasks currently running on the *other* resource
class, taken in decreasing order of expected completion time, it restarts
(from scratch) the first one it could finish strictly earlier.

Tie-breaking follows Section 2.2 of the paper: among tasks with equal
acceleration factor, the highest-priority task is placed first in the
queue when ``rho >= 1`` and last when ``rho < 1``, so that both ends of
the queue serve urgent tasks first.  Among spoliation candidates with
equal expected completion times, the highest-priority one is chosen.
Idle workers are served GPUs first.  This module owns no event loop:
Algorithm 1 is the online HeteroPrio policy with ``victim_rule="completion"``
on a graph without edges, run by :mod:`repro.simulator.runtime`.

The module exposes:

* :func:`heteroprio_schedule` — run HeteroPrio and return the final
  schedule :math:`S_{HP}`, the no-spoliation list schedule
  :math:`S_{HP}^{NS}`, the first-idle instant :math:`T_{FirstIdle}` and
  the list of spoliation events;
* :class:`SpoliationEvent` — one task migration record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.core.platform import Platform, Worker
from repro.core.schedule import Schedule
from repro.core.task import Instance, Task

__all__ = [
    "SpoliationEvent",
    "HeteroPrioResult",
    "heteroprio_schedule",
    "sorted_queue",
    "batch_queue_order",
]

#: How an idle worker may take over a task running on the other class:
#: ``"spoliation"`` restarts it from scratch (the paper's mechanism),
#: ``"preemption"`` is the idealised comparison point the paper mentions
#: (progress carries over proportionally; not implementable on real
#: CPU/GPU pairs), ``"none"`` disables migration entirely.
MigrationMode = Literal["spoliation", "preemption", "none"]


@dataclass(frozen=True)
class SpoliationEvent:
    """One spoliation: *task* moved from *victim_worker* to *new_worker*.

    ``abort_time`` is the instant the victim execution was cancelled (and
    the new one started); ``old_completion`` is when the task would have
    finished had it not been spoliated; ``new_completion`` is its actual
    finish time.  The paper's rule guarantees
    ``new_completion < old_completion``.
    """

    task: Task
    victim_worker: Worker
    new_worker: Worker
    abort_time: float
    old_completion: float
    new_completion: float


@dataclass
class HeteroPrioResult:
    """Outcome of a HeteroPrio run on an independent-task instance."""

    #: Final schedule :math:`S_{HP}` (with spoliation, unless disabled).
    schedule: Schedule
    #: The list schedule :math:`S_{HP}^{NS}` obtained with spoliation disabled.
    ns_schedule: Schedule
    #: First instant at which any worker is idle in :math:`S_{HP}^{NS}`.
    t_first_idle: float
    #: Spoliation events, in chronological order.
    spoliations: list[SpoliationEvent] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """Makespan :math:`C_{max}^{HP}` of the final schedule."""
        return self.schedule.makespan


def _queue_key(task: Task) -> tuple[float, float, int]:
    """Sort key placing tasks in CPU-end-first (ascending rho) order.

    Index 0 of the sorted list is the CPU end (smallest acceleration
    factor); the last index is the GPU end.  Ties on the acceleration
    factor are resolved so that *both* ends serve the highest-priority
    task first, per Section 2.2; ``uid`` makes the order total.
    """
    rho = task.acceleration
    if rho >= 1.0:
        return (rho, task.priority, task.uid)
    return (rho, -task.priority, -task.uid)


def sorted_queue(instance: Instance) -> list[Task]:
    """The initial HeteroPrio queue, CPU end at index 0, GPU end at -1."""
    return sorted(instance, key=_queue_key)


def batch_queue_order(
    cpu_times: np.ndarray,
    gpu_times: np.ndarray,
    priorities: np.ndarray,
) -> np.ndarray:
    """Vectorized ``_queue_key`` over a ``(B, n)`` batch of instances.

    Returns an int64 ``(B, n)`` array of task indices per row, sorted so
    that position 0 is the CPU end (smallest acceleration factor) and
    position ``n - 1`` the GPU end — exactly the order produced by
    sorting a row's tasks with ``_queue_key``.  Tasks with equal rho
    fall in the same branch of the key, so the branch-dependent
    secondary/tertiary components compare consistently; task index
    stands in for ``uid`` (tasks are materialized in index order, so
    uid comparisons within a row coincide with index comparisons).
    """
    rho = cpu_times / gpu_times
    n = rho.shape[-1]
    idx = np.broadcast_to(np.arange(n, dtype=np.int64), rho.shape)
    gpu_favored = rho >= 1.0
    secondary = np.where(gpu_favored, priorities, -priorities)
    tertiary = np.where(gpu_favored, idx, -idx)
    return np.lexsort((tertiary, secondary, rho), axis=-1)


def heteroprio_schedule(
    instance: Instance,
    platform: Platform,
    *,
    spoliation: bool = True,
    migration: MigrationMode = "spoliation",
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
    schedule, t_first_idle = _simulate(instance, platform, mode)
    if not compute_ns:
        ns_schedule = Schedule(platform)
    elif mode == "none":
        ns_schedule = schedule
    else:
        ns_schedule, t_first_idle = _simulate(instance, platform, "none")
    return HeteroPrioResult(
        schedule=schedule,
        ns_schedule=ns_schedule,
        t_first_idle=t_first_idle,
        spoliations=_spoliation_events(schedule),
    )


def _simulate(
    instance: Instance, platform: Platform, migration: MigrationMode
) -> tuple[Schedule, float]:
    """One run of Algorithm 1: the schedule and its first idle instant.

    The runtime opens completion windows on stale events too, which
    cannot change an independent run (``docs/architecture.md``, "One
    event loop").
    """
    # Function-local imports: the simulator and the online policies
    # import this module at load time.
    from repro.dag.graph import TaskGraph
    from repro.schedulers.online.heteroprio import HeteroPrioPolicy
    from repro.simulator.runtime import RuntimeSimulator

    graph = TaskGraph("independent")
    for task in instance:
        graph.add_task(task)
    policy = HeteroPrioPolicy(migration=migration, victim_rule="completion")
    schedule = RuntimeSimulator(graph, platform, policy).run()
    # Preempted tasks complete in several partial placements, so exact
    # per-placement durations cannot be enforced.
    schedule.strict = migration != "preemption"
    t_first_idle = policy.first_idle
    if t_first_idle is None:
        # Every worker was busy continuously until its final completion:
        # the first idle instant is the earliest of those final completions.
        t_first_idle = min(
            max((p.end for p in schedule.worker_timeline(w)), default=0.0)
            for w in platform.workers()
        )
    return schedule, t_first_idle


def _spoliation_events(schedule: Schedule) -> list[SpoliationEvent]:
    """The spoliations behind *schedule*'s aborted placements, in order.

    A task migrates at most once (no worker of its first class can beat
    its restart), so each aborted placement interrupted a whole
    execution and pairs with the task's completed placement.
    """
    final = {p.task: p for p in schedule.completed_placements()}
    return [
        SpoliationEvent(p.task, p.worker, final[p.task].worker, p.end,
                        p.start + p.full_duration, final[p.task].end)
        for p in schedule.aborted_placements()
    ]
