"""Data-aware HEFT: earliest finish time including estimated transfers.

This is HEFT as originally formulated (and StarPU's ``dmdas``): the
finish-time estimate of a ready task on a worker adds the cost of
fetching the task's inputs into that worker's memory space, based on the
data directory's *current* copy locations.  The estimate can go stale by
the time the task actually runs — exactly as in a real runtime.
"""

from __future__ import annotations

from repro.comm.memory import DataDirectory
from repro.comm.model import CommunicationModel, location_of
from repro.core.platform import Platform, Worker
from repro.core.task import Task
from repro.dag.graph import TaskGraph
from repro.schedulers.online.heft import HeftPolicy

__all__ = ["CommAwareHeftPolicy"]


class CommAwareHeftPolicy(HeftPolicy):
    """HEFT whose EFT rule accounts for data-transfer estimates."""

    name = "heft-comm"

    def __init__(self) -> None:
        super().__init__()
        self._directory: DataDirectory | None = None
        self._model: CommunicationModel | None = None
        self._graph: TaskGraph | None = None

    def attach_comm(
        self,
        directory: DataDirectory,
        model: CommunicationModel,
        graph: TaskGraph,
    ) -> None:
        """Called by :func:`~repro.comm.runtime.simulate_with_comm` before the run starts."""
        self._directory = directory
        self._model = model
        self._graph = graph

    def _transfer_estimate(self, task: Task, worker: Worker) -> float:
        if self._directory is None or self._model is None or self._graph is None:
            return 0.0
        total = 0.0
        for *_, cost in self._directory.missing_reads(
            self._graph, task, location_of(worker), self._model
        ):
            total += cost
        return total

    def tasks_ready(self, tasks, time: float) -> None:
        for task in tasks:  # already sorted by decreasing priority
            best_worker = None
            best_finish = float("inf")
            for worker, avail in self._avail.items():
                finish = (
                    max(avail, time)
                    + self._transfer_estimate(task, worker)
                    + task.time_on(worker.kind)
                )
                if finish < best_finish - 1e-15:
                    best_finish = finish
                    best_worker = worker
            assert best_worker is not None
            self._queues[best_worker].append(task)
            self._avail[best_worker] = best_finish
