"""Independent HeteroPrio pinned to the core's former event loop.

``heteroprio_schedule`` runs Algorithm 1 on the one ``RuntimeSimulator``
(an edge-free graph under ``HeteroPrioPolicy(victim_rule="completion")``);
``tests/reference_runtime.py`` keeps the loop ``repro.core.heteroprio``
used to own.  Both must produce the same placements (aborted ones
included, in order), the same ``ns_schedule`` and ``t_first_idle``, the
same spoliation events and the same ``strict`` flags, in every migration
mode, on factorization kernels, random graphs, tie-heavy duration grids,
CPU-less and GPU-less platforms and the paper's worst-case instances.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.heteroprio import heteroprio_schedule
from repro.core.platform import Platform
from repro.core.task import Instance, Task
from repro.dag.cholesky import cholesky_graph
from repro.dag.lu import lu_graph
from repro.dag.priorities import assign_priorities
from repro.dag.qr import qr_graph
from repro.dag.random_graphs import layered_random_graph, random_chain_graph
from repro.theory.worst_cases import (
    theorem8_instance,
    theorem11_instance,
    theorem14_instance,
)

from reference_runtime import reference_heteroprio_schedule

MODES = {
    "final-only": {"compute_ns": False},
    "default": {},
    "spoliation-off": {"spoliation": False},
    "preemption": {"migration": "preemption"},
    "none": {"migration": "none"},
}
PLATFORMS = (
    Platform(20, 4),
    Platform(4, 1),
    Platform(1, 1),
    Platform(3, 0),
    Platform(0, 2),
    Platform(2, 3),
)


def _trace(schedule):
    return [(p.task.uid, p.worker, p.start, p.end, p.aborted) for p in schedule.placements]


def _outcome(result):
    return {
        "schedule": _trace(result.schedule),
        "ns_schedule": _trace(result.ns_schedule),
        "t_first_idle": result.t_first_idle,
        "spoliations": [
            (e.task.uid, e.victim_worker, e.new_worker,
             e.abort_time, e.old_completion, e.new_completion)
            for e in result.spoliations
        ],
        "strict": (result.schedule.strict, result.ns_schedule.strict),
    }


def _assert_all_identical(probes, mode: str) -> int:
    """Compare every ``(instance, platform)`` probe; return the migrations."""
    kwargs = MODES[mode]
    migrations = 0
    for instance, platform in probes:
        new = heteroprio_schedule(instance, platform, **kwargs)
        ref = reference_heteroprio_schedule(instance, platform, **kwargs)
        assert _outcome(new) == _outcome(ref), (platform, [t.name for t in instance])
        migrations += len(ref.spoliations)
    return migrations


def _factorization_probes():
    for build, n in ((cholesky_graph, 4), (cholesky_graph, 8), (qr_graph, 4), (lu_graph, 8)):
        graph = build(n)
        for platform in PLATFORMS:
            for task in graph:
                task.priority = 0.0
            yield graph.to_instance(), platform
            if platform.num_cpus and platform.num_gpus:
                assign_priorities(graph, platform, "avg")
                yield graph.to_instance(), platform


def _random_graph_probes():
    for seed in range(24):
        rng = np.random.default_rng(seed)
        build = layered_random_graph if seed % 2 else random_chain_graph
        graph = build(4, 6, rng)
        yield graph.to_instance(), PLATFORMS[seed % len(PLATFORMS)]


def _grid_probes(seed0: int, scale: float):
    """Small instances on a duration grid of step *scale*: ties everywhere."""
    for seed in range(seed0, seed0 + 150):
        r = random.Random(seed)
        cpus, gpus = r.randint(0, 4), r.randint(0, 2)
        if cpus + gpus == 0:
            cpus = 1
        tasks = [
            Task(
                cpu_time=r.randint(1, 40) * scale,
                gpu_time=r.randint(1, 40) * scale,
                priority=float(r.randint(0, 2)),
            )
            for _ in range(r.randint(1, 14))
        ]
        yield Instance(tasks), Platform(cpus, gpus)


def _theorem_probes():
    for worst in (
        theorem8_instance(),
        *(theorem11_instance(m) for m in (2, 3, 5)),
        *(theorem14_instance(k) for k in (2, 3)),
    ):
        yield worst.instance, worst.platform


PROBES = {
    "factorizations": _factorization_probes,
    "random-graphs": _random_graph_probes,
    "integer-grid": lambda: _grid_probes(0, 1.0),
    "tenth-grid": lambda: _grid_probes(10_000, 0.1),
    "theorems": _theorem_probes,
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("family", PROBES)
def test_identical_to_former_core_loop(family, mode):
    migrations = _assert_all_identical(PROBES[family](), mode)
    if family != "theorems" and mode not in ("spoliation-off", "none"):
        assert migrations > 0  # the slice exercises migration


def test_preemption_schedules_are_non_strict_without_migrating():
    # No task ever moves here, yet a preemption-mode schedule stays
    # non-strict, as the former loop marked it.
    instance = Instance.from_times([1.0, 1.0], [1.0, 1.0])
    result = heteroprio_schedule(instance, Platform(1, 1), migration="preemption")
    assert not result.spoliations
    assert result.schedule.strict is False
    assert result.ns_schedule.strict is True
