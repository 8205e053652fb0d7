"""Tiled QR factorization task graph (flat tree / TS kernels).

For an ``N x N`` tile matrix, step ``k`` submits::

    GEQRT(k)              : RW A[k][k], W T[k][k]
    ORMQR(k, j)  (j > k)  : R  A[k][k], R T[k][k], RW A[k][j]
    TSQRT(i, k)  (i > k)  : RW A[k][k], RW A[i][k], W T[i][k]
    TSMQR(i, j, k) (i, j > k) : RW A[k][j], RW A[i][j], R A[i][k], R T[i][k]

This is the flat-tree tiled QR of PLASMA/Chameleon.  Task counts:
``N`` GEQRT, ``N(N-1)/2`` each of ORMQR and TSQRT, and
``N(N-1)(2N-1)/6 - N(N-1)/2``... — concretely ``sum_k (N-1-k)^2`` TSMQR.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.dag.cholesky import TILE_BYTES, Submit, sampling_submit
from repro.dag.compiled import CompiledGraph, GraphProgram, ProgramBuilder, compile_program
from repro.dag.dataflow import AccessMode, DataflowTracker
from repro.dag.graph import TaskGraph
from repro.timing.model import TimingModel

__all__ = ["qr_graph", "qr_program", "qr_compiled", "qr_task_count", "T_TILE_BYTES"]

#: Size of one 48x960 reflector-accumulation tile (inner blocking 48).
T_TILE_BYTES = 48 * 960 * 8


def qr_task_count(n_tiles: int) -> int:
    """Number of kernels in a flat-tree tiled QR with ``n_tiles`` tiles."""
    n = n_tiles
    tsmqr = sum((n - 1 - k) ** 2 for k in range(n))
    return n + n * (n - 1) + tsmqr


def _submit_qr(
    n_tiles: int, submit: Submit, declare: Callable[[Hashable, int], None]
) -> None:
    """Submit every QR kernel with its accesses, in program order.

    ``declare(handle, size)`` gives the ``T`` tiles their size before the
    step that first touches them.
    """
    read, rw, write = AccessMode.READ, AccessMode.READ_WRITE, AccessMode.WRITE
    for k in range(n_tiles):
        declare(("T", k, k), T_TILE_BYTES)
        for i in range(k + 1, n_tiles):
            declare(("T", i, k), T_TILE_BYTES)
        submit("GEQRT", f"GEQRT({k})", [(("A", k, k), rw), (("T", k, k), write)])
        for j in range(k + 1, n_tiles):
            submit(
                "ORMQR",
                f"ORMQR({k},{j})",
                [(("A", k, k), read), (("T", k, k), read), (("A", k, j), rw)],
            )
        for i in range(k + 1, n_tiles):
            submit(
                "TSQRT",
                f"TSQRT({i},{k})",
                [(("A", k, k), rw), (("A", i, k), rw), (("T", i, k), write)],
            )
            for j in range(k + 1, n_tiles):
                submit(
                    "TSMQR",
                    f"TSMQR({i},{j},{k})",
                    [
                        (("A", k, j), rw),
                        (("A", i, j), rw),
                        (("A", i, k), read),
                        (("T", i, k), read),
                    ],
                )


def qr_graph(
    n_tiles: int,
    timing: TimingModel | None = None,
) -> TaskGraph:
    """Build the task graph of a flat-tree tiled QR factorization."""
    if n_tiles < 1:
        raise ValueError("n_tiles must be >= 1")
    if timing is None:
        timing = TimingModel.for_factorization("qr")
    tracker = DataflowTracker(
        name=f"qr-{n_tiles}", default_handle_bytes=TILE_BYTES
    )
    _submit_qr(n_tiles, sampling_submit(tracker, timing), tracker.set_handle_bytes)
    graph = tracker.graph
    assert len(graph) == qr_task_count(n_tiles)
    return graph


def qr_program(n_tiles: int) -> GraphProgram:
    """The QR submission trace for the compiled pipeline (see :func:`qr_graph`).

    Handle sizes are a dict-graph attribute, so the program ignores them.
    """
    if n_tiles < 1:
        raise ValueError("n_tiles must be >= 1")
    builder = ProgramBuilder(f"qr-{n_tiles}")
    _submit_qr(n_tiles, builder.submit, lambda handle, size: None)
    return builder.finish()


def qr_compiled(
    n_tiles: int,
    timing: TimingModel | None = None,
) -> CompiledGraph:
    """Vectorized-build equivalent of :func:`qr_graph`."""
    if timing is None:
        timing = TimingModel.for_factorization("qr")
    compiled = compile_program(qr_program(n_tiles), timing)
    assert len(compiled) == qr_task_count(n_tiles)
    return compiled
