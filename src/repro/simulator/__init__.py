"""Discrete-event runtime simulator for DAG scheduling.

This package plays the role of StarPU in the paper's Section 6.2: it
executes a :class:`~repro.dag.graph.TaskGraph` on a
:class:`~repro.core.platform.Platform` under a pluggable online policy
(:mod:`repro.schedulers.online`), maintaining the ready set as
dependencies resolve and honouring spoliation requests.  It is the one
scalar event loop: independent HeteroPrio
(:func:`repro.core.heteroprio.heteroprio_schedule`) runs on it too, as
a graph without edges.

:mod:`repro.simulator.batch` is the lockstep tier for independent
tasks: it advances a whole batch of HeteroPrio instances at once over
``(B, n)`` arrays, event-for-event identical to
:func:`repro.core.heteroprio.heteroprio_schedule`.
"""

from repro.simulator.runtime import RuntimeSimulator, SimStats, simulate
from repro.simulator.batch import BatchResult, batch_heteroprio_schedule
from repro.simulator.metrics import RunMetrics, compute_metrics

__all__ = [
    "BatchResult",
    "RuntimeSimulator",
    "SimStats",
    "batch_heteroprio_schedule",
    "simulate",
    "RunMetrics",
    "compute_metrics",
]
