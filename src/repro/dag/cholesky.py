"""Tiled Cholesky factorization task graph (right-looking variant).

For an ``N x N`` tile matrix the algorithm submits, for each step ``k``::

    POTRF(k)            : RW A[k][k]
    TRSM(i, k)  (i > k) : R  A[k][k], RW A[i][k]
    SYRK(i, k)  (i > k) : R  A[i][k], RW A[i][i]
    GEMM(i, j, k) (i > j > k) : R A[i][k], R A[j][k], RW A[i][j]

Dependencies are inferred by the superscalar tracker from these accesses,
mirroring Chameleon's submission to StarPU.  Task counts: ``N`` POTRF,
``N(N-1)/2`` TRSM, ``N(N-1)/2`` SYRK and ``N(N-1)(N-2)/6`` GEMM.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.core.task import Task
from repro.dag.compiled import CompiledGraph, GraphProgram, ProgramBuilder, compile_program
from repro.dag.dataflow import AccessMode, DataflowTracker
from repro.dag.graph import TaskGraph
from repro.timing.model import TimingModel

__all__ = [
    "cholesky_graph",
    "cholesky_program",
    "cholesky_compiled",
    "cholesky_task_count",
    "sampling_submit",
    "Submit",
    "TILE_BYTES",
]

#: Size of one 960x960 double-precision tile (the paper's tile size).
TILE_BYTES = 960 * 960 * 8


def cholesky_task_count(n_tiles: int) -> int:
    """Number of kernels in a tiled Cholesky with ``n_tiles`` tiles."""
    n = n_tiles
    return n + n * (n - 1) + n * (n - 1) * (n - 2) // 6


#: ``submit(kind, label, accesses)``: hand one kernel, in program order,
#: to a graph builder (:meth:`ProgramBuilder.submit` or
#: :func:`sampling_submit`).
Submit = Callable[[str, str, list[tuple[Hashable, AccessMode]]], object]


def sampling_submit(tracker: DataflowTracker, timing: TimingModel) -> Submit:
    """A ``submit`` callback for the dict graphs.

    Each kernel's durations are sampled from *timing* in submission
    order, and the kernel goes to *tracker*, which infers its edges on
    its own (independently of the compiled path's
    :func:`~repro.dag.compiled.infer_edges`).
    """

    def submit(kind: str, label: str, accesses: list[tuple[Hashable, AccessMode]]) -> None:
        p, q = timing.sample(kind)
        tracker.submit(Task(cpu_time=p, gpu_time=q, name=label, kind=kind), accesses)

    return submit


def _submit_cholesky(n_tiles: int, submit: Submit) -> None:
    """Submit every Cholesky kernel with its accesses, in program order."""
    read, write = AccessMode.READ, AccessMode.READ_WRITE
    for k in range(n_tiles):
        submit("POTRF", f"POTRF({k})", [((k, k), write)])
        for i in range(k + 1, n_tiles):
            submit("TRSM", f"TRSM({i},{k})", [((k, k), read), ((i, k), write)])
        for i in range(k + 1, n_tiles):
            submit("SYRK", f"SYRK({i},{k})", [((i, k), read), ((i, i), write)])
            for j in range(k + 1, i):
                submit(
                    "GEMM",
                    f"GEMM({i},{j},{k})",
                    [((i, k), read), ((j, k), read), ((i, j), write)],
                )


def cholesky_graph(
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
    _submit_cholesky(n_tiles, sampling_submit(tracker, timing))
    graph = tracker.graph
    assert len(graph) == cholesky_task_count(n_tiles)
    return graph


def cholesky_program(n_tiles: int) -> GraphProgram:
    """The Cholesky submission trace for the compiled pipeline.

    The same submission loop as :func:`cholesky_graph`, handed to a
    :class:`ProgramBuilder` that records each kernel instead of sampling
    it and inferring its edges.
    """
    if n_tiles < 1:
        raise ValueError("n_tiles must be >= 1")
    builder = ProgramBuilder(f"cholesky-{n_tiles}")
    _submit_cholesky(n_tiles, builder.submit)
    return builder.finish()


def cholesky_compiled(
    n_tiles: int,
    timing: TimingModel | None = None,
) -> CompiledGraph:
    """Vectorized-build equivalent of :func:`cholesky_graph`."""
    if timing is None:
        timing = TimingModel.for_factorization("cholesky")
    compiled = compile_program(cholesky_program(n_tiles), timing)
    assert len(compiled) == cholesky_task_count(n_tiles)
    return compiled
