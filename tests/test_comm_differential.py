"""Communication-aware runs pinned to the frozen ``CommAwareSimulator``.

``simulate_with_comm`` is a data-movement hook on the one
``RuntimeSimulator``; ``tests/reference_runtime.py`` keeps the
communication-aware runtime's former copy of the DAG event loop.  Both
must produce the same placements (aborted ones included, in the same
order), the same transfers and the same makespans.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.comm.heft import CommAwareHeftPolicy
from repro.comm.model import CommunicationModel
from repro.comm.runtime import simulate_with_comm
from repro.core.platform import Platform
from repro.dag.cholesky import cholesky_graph
from repro.dag.lu import lu_graph
from repro.dag.priorities import assign_priorities
from repro.dag.qr import qr_graph
from repro.schedulers.online import POLICIES
from repro.timing.model import TimingModel

from reference_runtime import reference_simulate_with_comm

BUILDERS = {"cholesky": cholesky_graph, "qr": qr_graph, "lu": lu_graph}
PLATFORMS = (Platform(20, 4), Platform(3, 1), Platform(1, 2))
SCALES = (0.0, 0.25, 1.0, 4.0)

#: Every ``POLICIES`` prefix plus the data-aware HEFT, with its ranking.
FACTORIES = {
    **{name: (cls, "avg" if name in ("heft", "dualhp") else "min")
       for name, cls in POLICIES.items()},
    "heft-comm": (CommAwareHeftPolicy, "avg"),
}


def _trace(result):
    placements = [
        (p.task.uid, p.worker, p.start, p.end, p.aborted)
        for p in result.schedule.placements
    ]
    transfers = [
        (t.handle, t.source, t.destination, t.size_bytes, t.start, t.end, t.task.uid, t.worker)
        for t in result.transfers
    ]
    return placements, transfers, result.makespan, result.schedule.strict


@pytest.mark.parametrize("family", sorted(BUILDERS))
@pytest.mark.parametrize("policy", sorted(FACTORIES))
def test_comm_runs_match_frozen_simulator(family, policy):
    cls, scheme = FACTORIES[policy]
    aborts = 0
    for n_tiles, noise in ((3, 0.0), (5, 0.2)):
        rng = np.random.default_rng(n_tiles) if noise else None
        timing = TimingModel.for_factorization(family, noise=noise, rng=rng)
        graph = BUILDERS[family](n_tiles, timing)
        for platform in PLATFORMS:
            assign_priorities(graph, platform, scheme)
            for scale in SCALES:
                model = CommunicationModel(scale=scale)
                live = simulate_with_comm(graph, platform, cls(), model=model)
                frozen = reference_simulate_with_comm(graph, platform, cls(), model=model)
                assert _trace(live) == _trace(frozen), (n_tiles, noise, platform, scale)
                aborts += len(live.schedule.aborted_placements())
    if policy in ("heteroprio", "buckets"):
        # The grid exercises spoliation, whose aborted interval starts at
        # dispatch while the restarted kernel waits for its fetches.
        assert aborts > 0
