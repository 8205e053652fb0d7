"""Factorization dict graphs pinned to the frozen ``*_graph`` generators.

Each family's submission loop is written once and shared by ``*_graph``
(sampled durations, edges from ``DataflowTracker``) and ``*_program``
(recorded for the compiled pipeline).  ``tests/reference_runtime.py``
keeps the generators as they stood with a loop of their own; the graphs
must be equal down to edge order, access lists and the insertion order
of ``handle_bytes``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dag.cholesky import cholesky_graph
from repro.dag.lu import lu_graph
from repro.dag.qr import qr_graph
from repro.timing.model import TimingModel

from reference_runtime import reference_cholesky_graph, reference_lu_graph, reference_qr_graph

PAIRS = {
    "cholesky": (cholesky_graph, reference_cholesky_graph),
    "qr": (qr_graph, reference_qr_graph),
    "lu": (lu_graph, reference_lu_graph),
}


def _snapshot(graph):
    index = {task: i for i, task in enumerate(graph)}
    return {
        "name": graph.name,
        "tasks": [(t.name, t.kind, t.cpu_time, t.gpu_time, t.priority) for t in graph],
        "edges": [(index[p], index[s]) for p, s in graph.edges()],
        "accesses": [
            (index[t], [(a.handle, a.mode) for a in accesses])
            for t, accesses in graph.accesses.items()
        ],
        "handle_bytes": list(graph.handle_bytes.items()),
    }


@pytest.mark.parametrize("family", sorted(PAIRS))
@pytest.mark.parametrize("noise", [0.0, 0.2])
def test_dict_graphs_match_frozen_generators(family, noise):
    build, frozen = PAIRS[family]
    for n_tiles in range(1, 13):
        timings = [
            TimingModel.for_factorization(
                family, noise=noise, rng=np.random.default_rng(n_tiles) if noise else None
            )
            for _ in range(2)
        ]
        live = _snapshot(build(n_tiles, timings[0]))
        assert live == _snapshot(frozen(n_tiles, timings[1])), n_tiles
        if noise:
            # Sampled, not table, durations: the stream order is pinned too.
            assert len({t[2] for t in live["tasks"]}) > 1 or n_tiles == 1
