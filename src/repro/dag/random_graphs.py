"""Synthetic task graphs for tests and robustness experiments.

Two seeded families, each with one generator that emits a
:class:`~repro.dag.compiled.CompiledGraph` (duration vectors plus CSR
edges, the layout the factorization generators produce):

* :func:`layered_random_compiled` — classic layer-by-layer DAGs with
  random inter-layer edges, random durations and a controllable
  acceleration spread; good stress tests for the online schedulers.
* :func:`random_chain_compiled` — bundles of chains with cross links,
  exercising critical-path-dominated regimes (the small-``N`` end of
  Figure 7).

:func:`layered_random_graph` and :func:`random_chain_graph` return the
same graphs as dict-backed :class:`~repro.dag.graph.TaskGraph` views
(``as_task_graph()``).

Both generators keep one random-stream contract, so a given generator
state always yields the same graph and leaves the same end state:

* per task, in creation order: one double for ``uniform(*cpu_range)``,
  then one for the log-uniform acceleration factor ρ;
* ``layered``, below layer 0: then one ``random()`` per task of the
  previous layer (an edge when below *edge_probability*), and only if
  none is, one ``integers(width)`` call picking a single predecessor;
* ``chains``: all durations first, then, for each chain and each
  position but the last, one ``random()`` (a cross link when below
  *cross_probability*) and, for a cross link, one
  ``integers(n_chains)`` picking the linked chain.

Durations are ``p = lo + (hi - lo) * u``, ``ρ = exp(log a + (log b -
log a) * v)`` and ``q = p / ρ`` — the operands of scalar
``Generator.uniform``.  That is what lets the doubles be drawn in
blocks: ``rng.random(k)`` equals ``k`` scalar draws.  ``integers``
takes numpy's buffered 32-bit path instead, so no block of doubles can
stand in for it: a layer whose block holds a task without a pick is
redrawn task by task from a snapshot of the generator state, and the
chains' cross links stay a scalar loop.
"""

from __future__ import annotations

import numpy as np

from repro.core.task import Task
from repro.dag.compiled import CompiledGraph
from repro.dag.graph import TaskGraph

__all__ = [
    "layered_random_compiled",
    "layered_random_graph",
    "random_chain_compiled",
    "random_chain_graph",
]


def _log_range(
    rng: np.random.Generator,
    cpu_range: tuple[float, float],
    accel_range: tuple[float, float],
) -> tuple[float, float]:
    """The log-acceleration range, after ``uniform``'s own range checks.

    Zero-size draws raise exactly what scalar ``uniform`` raises on a bad
    range, without consuming the stream.
    """
    log_range = (np.log(accel_range[0]), np.log(accel_range[1]))
    rng.uniform(*cpu_range, size=0)
    rng.uniform(*log_range, size=0)
    return log_range


def _compiled(
    name: str,
    draws: np.ndarray,
    cpu_range: tuple[float, float],
    log_range: tuple[float, float],
    pred: np.ndarray,
    succ: np.ndarray,
) -> CompiledGraph:
    """Assemble the graph from ``(n, 2)`` duration draws and an edge list.

    The edges come in ``TaskGraph.edges()`` order (by predecessor, each
    one's successors in insertion order); the CSR arrays are laid out
    exactly as :meth:`CompiledGraph.from_task_graph` lays them out.
    """
    lo, hi = float(cpu_range[0]), float(cpu_range[1])
    log_lo, log_hi = log_range
    cpu = lo + (hi - lo) * draws[:, 0]
    gpu = cpu / np.exp(log_lo + (log_hi - log_lo) * draws[:, 1])
    valid = (cpu > 0) & np.isfinite(cpu) & (gpu > 0) & np.isfinite(gpu)
    if not valid.all():
        i = int(np.argmin(valid))
        Task(cpu_time=float(cpu[i]), gpu_time=float(gpu[i]))  # raises Task's own error
    n = len(draws)
    succ_indptr = np.zeros(n + 1, dtype=np.int64)
    pred_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pred, minlength=n), out=succ_indptr[1:])
    np.cumsum(np.bincount(succ, minlength=n), out=pred_indptr[1:])
    return CompiledGraph(
        name,
        ("RND",) * n,
        [f"rnd{i}" for i in range(n)],
        cpu,
        gpu,
        succ_indptr,
        succ,
        pred_indptr,
        pred[np.argsort(succ, kind="stable")],
    )


def layered_random_compiled(
    n_layers: int,
    layer_width: int,
    rng: np.random.Generator,
    *,
    edge_probability: float = 0.3,
    cpu_range: tuple[float, float] = (0.5, 2.0),
    accel_range: tuple[float, float] = (0.2, 30.0),
) -> CompiledGraph:
    """A DAG of ``n_layers`` layers of ``layer_width`` random tasks.

    Each task of layer ``l+1`` depends on every task of layer ``l``
    selected with probability *edge_probability* (at least one, to keep
    layers meaningful).  Acceleration factors are log-uniform over
    *accel_range*, mimicking the wide spread of Table 1.
    """
    if n_layers < 1 or layer_width < 1:
        raise ValueError("n_layers and layer_width must be >= 1")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must lie in [0, 1]")
    log_range = _log_range(rng, cpu_range, accel_range)

    width = layer_width
    draws = np.empty((n_layers, width, 2))
    draws[0] = rng.random(2 * width).reshape(width, 2)
    preds: list[np.ndarray] = []
    succs: list[np.ndarray] = []
    for layer in range(1, n_layers):
        # Each row: the task's two duration draws, then one edge draw per
        # previous-layer task — the scalar stream, as long as no row
        # needs the ``integers`` fallback.
        state = rng.bit_generator.state
        block = rng.random(width * (2 + width)).reshape(width, 2 + width)
        picks = block[:, 2:] < edge_probability
        if not picks.any(axis=1).all():
            rng.bit_generator.state = state
            for row in range(width):
                block[row] = rng.random(2 + width)
                picks[row] = block[row, 2:] < edge_probability
                if not picks[row].any():
                    picks[row, int(rng.integers(width))] = True
        draws[layer] = block[:, :2]
        rows, cols = np.nonzero(picks)
        preds.append((layer - 1) * width + cols)
        succs.append(layer * width + rows)

    pred = np.concatenate(preds) if preds else np.empty(0, dtype=np.int64)
    succ = np.concatenate(succs) if succs else np.empty(0, dtype=np.int64)
    by_pred = np.argsort(pred, kind="stable")
    return _compiled(
        f"layered-{n_layers}x{layer_width}",
        draws.reshape(-1, 2),
        cpu_range,
        log_range,
        pred[by_pred],
        succ[by_pred],
    )


def random_chain_compiled(
    n_chains: int,
    chain_length: int,
    rng: np.random.Generator,
    *,
    cross_probability: float = 0.1,
    cpu_range: tuple[float, float] = (0.5, 2.0),
    accel_range: tuple[float, float] = (0.2, 30.0),
) -> CompiledGraph:
    """Parallel chains with sparse cross-chain edges (critical-path heavy)."""
    if n_chains < 1 or chain_length < 1:
        raise ValueError("n_chains and chain_length must be >= 1")
    log_range = _log_range(rng, cpu_range, accel_range)

    n = n_chains * chain_length
    draws = rng.random(2 * n).reshape(n, 2)
    # Column 0: the next task of the same chain; column 1: the cross
    # link, if any, always one position forward (so acyclic).  Read row
    # by row, each task's successors come in the order the edges were
    # added: chain successor, then cross target.
    targets = np.full((n, 2), -1, dtype=np.int64)
    index = np.arange(n, dtype=np.int64)
    inner = index % chain_length != chain_length - 1
    targets[inner, 0] = index[inner] + 1
    for c in range(n_chains):
        for pos in range(chain_length - 1):
            if rng.random() < cross_probability:
                other = int(rng.integers(n_chains))
                if other != c:
                    targets[c * chain_length + pos, 1] = other * chain_length + pos + 1
    pred, slot = np.nonzero(targets >= 0)
    return _compiled(
        f"chains-{n_chains}x{chain_length}",
        draws,
        cpu_range,
        log_range,
        pred,
        targets[pred, slot],
    )


def layered_random_graph(
    n_layers: int,
    layer_width: int,
    rng: np.random.Generator,
    *,
    edge_probability: float = 0.3,
    cpu_range: tuple[float, float] = (0.5, 2.0),
    accel_range: tuple[float, float] = (0.2, 30.0),
) -> TaskGraph:
    """:func:`layered_random_compiled` as a dict-backed :class:`TaskGraph`."""
    return layered_random_compiled(
        n_layers,
        layer_width,
        rng,
        edge_probability=edge_probability,
        cpu_range=cpu_range,
        accel_range=accel_range,
    ).as_task_graph()


def random_chain_graph(
    n_chains: int,
    chain_length: int,
    rng: np.random.Generator,
    *,
    cross_probability: float = 0.1,
    cpu_range: tuple[float, float] = (0.5, 2.0),
    accel_range: tuple[float, float] = (0.2, 30.0),
) -> TaskGraph:
    """:func:`random_chain_compiled` as a dict-backed :class:`TaskGraph`."""
    return random_chain_compiled(
        n_chains,
        chain_length,
        rng,
        cross_probability=cross_probability,
        cpu_range=cpu_range,
        accel_range=accel_range,
    ).as_task_graph()
