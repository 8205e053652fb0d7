"""Communication-aware runs of the discrete-event DAG runtime.

:func:`simulate_with_comm` runs :class:`repro.simulator.runtime.RuntimeSimulator`
with a data-movement hook: when a task is dispatched to a worker, every
input handle without a valid copy in the worker's memory space is fetched
first (transfers serialise with the execution — no prefetching, the
conservative StarPU default), and the handles a task writes invalidate
remote copies at its completion.  All data movements are traced as
:class:`TransferEvent` records.

Completed placements cover the *compute* interval only (the worker is
additionally busy during the preceding transfers), and the schedule is
non-strict: an aborted interval starts at dispatch and may include
transfer time, and spoliation improvement is defined against
transfer-inclusive completion estimates.  With ``scale=0`` every
transfer costs nothing, each kernel starts at its dispatch, and the run
is the communication-free one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.comm.memory import DataDirectory
from repro.comm.model import CommunicationModel, Location, location_of
from repro.core.platform import Platform, Worker
from repro.core.schedule import Schedule
from repro.core.task import Task
from repro.dag.graph import TaskGraph
from repro.schedulers.online.base import OnlinePolicy
from repro.simulator.runtime import RuntimeSimulator

__all__ = ["TransferEvent", "CommRunResult", "simulate_with_comm"]


@dataclass(frozen=True)
class TransferEvent:
    """One data movement performed on behalf of a task."""

    handle: Hashable
    source: Location
    destination: Location
    size_bytes: int
    start: float
    end: float
    task: Task
    worker: Worker


@dataclass
class CommRunResult:
    """Schedule plus the communication trace of one simulated run."""

    schedule: Schedule
    transfers: list[TransferEvent] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    def transfer_volume(self) -> int:
        """Total bytes moved."""
        return sum(t.size_bytes for t in self.transfers)

    def transfer_time(self) -> float:
        """Total wall-clock time workers spent waiting on transfers."""
        return sum(t.end - t.start for t in self.transfers)


class _Transfers:
    """The data-movement hook of one communication-aware run."""

    def __init__(self, graph: TaskGraph, model: CommunicationModel):
        self.graph = graph
        self.model = model
        self.directory = DataDirectory()
        self.transfers: list[TransferEvent] = []

    def fetch(self, task: Task, worker: Worker, now: float) -> float:
        """Fetch every input without a valid copy at *worker*, one after another."""
        directory = self.directory
        destination = location_of(worker)
        clock = now
        for handle, size, src, cost in directory.missing_reads(
            self.graph, task, destination, self.model
        ):
            if cost > 0.0:
                self.transfers.append(
                    TransferEvent(
                        handle=handle,
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
            directory.add_copy(handle, destination)
        return clock

    def complete(self, task: Task, worker: Worker) -> None:
        """Make *worker*'s memory space the only valid copy of every written handle."""
        destination = location_of(worker)
        for access in self.graph.accesses.get(task, ()):
            if access.mode.writes:
                self.directory.write(access.handle, destination)


def simulate_with_comm(
    graph: TaskGraph,
    platform: Platform,
    policy: OnlinePolicy,
    *,
    model: CommunicationModel | None = None,
) -> CommRunResult:
    """Run *policy* on *graph* with transfer delays under *model*.

    A data-aware policy (one with ``attach_comm``) is handed the run's
    data directory before it sees its first ready task.
    """
    model = model if model is not None else CommunicationModel()
    movement = _Transfers(graph, model)
    attach = getattr(policy, "attach_comm", None)
    if attach is not None:
        attach(movement.directory, model, graph)
    schedule = RuntimeSimulator(graph, platform, policy, movement=movement).run()
    return CommRunResult(schedule=schedule, transfers=movement.transfers)
