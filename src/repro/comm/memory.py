"""Data directory: which memory spaces hold a valid copy of each handle.

A simplified MSI coherence protocol, as implemented by task-based
runtimes: reading a handle in a memory space creates a shared copy
there; writing invalidates every other copy.  All application data
starts in main RAM (matrices are allocated on the host before the
factorization is submitted).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

from repro.comm.model import RAM, CommunicationModel, Location
from repro.core.task import Task
from repro.dag.graph import TaskGraph

__all__ = ["DataDirectory"]


class DataDirectory:
    """Tracks the set of valid copies of every data handle."""

    def __init__(self) -> None:
        self._copies: dict[Hashable, set[Location]] = {}

    def copies(self, handle: Hashable) -> set[Location]:
        """Memory spaces holding a valid copy (RAM if never touched)."""
        return set(self._copies.get(handle, {RAM}))

    def has_copy(self, handle: Hashable, location: Location) -> bool:
        return location in self._copies.get(handle, {RAM})

    def cheapest_source(
        self,
        handle: Hashable,
        destination: Location,
        size_bytes: int,
        model: CommunicationModel,
    ) -> tuple[Location, float]:
        """The valid copy cheapest to fetch into *destination*.

        Returns ``(source, transfer_time)``; the time is 0 when a local
        copy already exists.
        """
        best_src: Location | None = None
        best_time = float("inf")
        for src in sorted(self.copies(handle), key=str):
            time = model.transfer_time(src, destination, size_bytes)
            if time < best_time:
                best_time = time
                best_src = src
        assert best_src is not None
        return best_src, best_time

    def missing_reads(
        self,
        graph: TaskGraph,
        task: Task,
        destination: Location,
        model: CommunicationModel,
    ) -> Iterator[tuple[Hashable, int, Location, float]]:
        """The handles *task* reads without a valid copy at *destination*.

        Yields ``(handle, size_bytes, source, transfer_time)`` per missing
        read, from its cheapest source.  The scan itself changes nothing
        and checks each handle only when it gets there, so a caller that
        records each copy as it fetches it (:meth:`add_copy`) is seen by
        the rest of the scan, and an estimate leaves the directory as it
        was.
        """
        for access in graph.accesses.get(task, ()):
            if not access.mode.reads or self.has_copy(access.handle, destination):
                continue
            size = graph.handle_bytes.get(access.handle, 0)
            source, time = self.cheapest_source(access.handle, destination, size, model)
            yield access.handle, size, source, time

    def add_copy(self, handle: Hashable, location: Location) -> None:
        """Record a new shared copy (after a read replication)."""
        self._copies.setdefault(handle, {RAM}).add(location)

    def write(self, handle: Hashable, location: Location) -> None:
        """Record a write: *location* becomes the only valid copy."""
        self._copies[handle] = {location}

    def invalidate_all(self, handles: Iterable[Hashable] | None = None) -> None:
        """Reset handles to their initial RAM-resident state."""
        if handles is None:
            self._copies.clear()
        else:
            for handle in handles:
                self._copies.pop(handle, None)
