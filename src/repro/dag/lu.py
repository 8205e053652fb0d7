"""Tiled LU factorization (without pivoting) task graph.

For an ``N x N`` tile matrix, step ``k`` submits::

    GETRF(k)               : RW A[k][k]
    TRSM_row(k, j) (j > k) : R  A[k][k], RW A[k][j]     (L solve, row panel)
    TRSM_col(i, k) (i > k) : R  A[k][k], RW A[i][k]     (U solve, column panel)
    GEMM(i, j, k) (i, j > k): R A[i][k], R A[k][j], RW A[i][j]

Both TRSM flavours share the ``TRSM`` kernel timing.  Task counts:
``N`` GETRF, ``N(N-1)`` TRSM and ``sum_k (N-1-k)^2`` GEMM.
"""

from __future__ import annotations

from repro.dag.cholesky import TILE_BYTES, Submit, sampling_submit
from repro.dag.compiled import CompiledGraph, GraphProgram, ProgramBuilder, compile_program
from repro.dag.dataflow import AccessMode, DataflowTracker
from repro.dag.graph import TaskGraph
from repro.timing.model import TimingModel

__all__ = ["lu_graph", "lu_program", "lu_compiled", "lu_task_count"]


def lu_task_count(n_tiles: int) -> int:
    """Number of kernels in a tiled LU (no pivoting) with ``n_tiles`` tiles."""
    n = n_tiles
    gemm = sum((n - 1 - k) ** 2 for k in range(n))
    return n + n * (n - 1) + gemm


def _submit_lu(n_tiles: int, submit: Submit) -> None:
    """Submit every LU kernel with its accesses, in program order."""
    read, rw = AccessMode.READ, AccessMode.READ_WRITE
    for k in range(n_tiles):
        submit("GETRF", f"GETRF({k})", [((k, k), rw)])
        for j in range(k + 1, n_tiles):
            submit("TRSM", f"TRSM_row({k},{j})", [((k, k), read), ((k, j), rw)])
        for i in range(k + 1, n_tiles):
            submit("TRSM", f"TRSM_col({i},{k})", [((k, k), read), ((i, k), rw)])
            for j in range(k + 1, n_tiles):
                submit(
                    "GEMM",
                    f"GEMM({i},{j},{k})",
                    [((i, k), read), ((k, j), read), ((i, j), rw)],
                )


def lu_graph(
    n_tiles: int,
    timing: TimingModel | None = None,
) -> TaskGraph:
    """Build the task graph of a tiled LU factorization without pivoting."""
    if n_tiles < 1:
        raise ValueError("n_tiles must be >= 1")
    if timing is None:
        timing = TimingModel.for_factorization("lu")
    tracker = DataflowTracker(
        name=f"lu-{n_tiles}", default_handle_bytes=TILE_BYTES
    )
    _submit_lu(n_tiles, sampling_submit(tracker, timing))
    graph = tracker.graph
    assert len(graph) == lu_task_count(n_tiles)
    return graph


def lu_program(n_tiles: int) -> GraphProgram:
    """The LU submission trace for the compiled pipeline (see :func:`lu_graph`)."""
    if n_tiles < 1:
        raise ValueError("n_tiles must be >= 1")
    builder = ProgramBuilder(f"lu-{n_tiles}")
    _submit_lu(n_tiles, builder.submit)
    return builder.finish()


def lu_compiled(
    n_tiles: int,
    timing: TimingModel | None = None,
) -> CompiledGraph:
    """Vectorized-build equivalent of :func:`lu_graph`."""
    if timing is None:
        timing = TimingModel.for_factorization("lu")
    compiled = compile_program(lu_program(n_tiles), timing)
    assert len(compiled) == lu_task_count(n_tiles)
    return compiled
