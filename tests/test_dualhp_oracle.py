"""DualHP's three lambda searches against the frozen pre-optimisation oracle.

The offline scheduler (:mod:`repro.schedulers.dualhp`), the online
policy (:mod:`repro.schedulers.online.dualhp`) and the lockstep batch
scheduler (:func:`repro.schedulers.batch.batch_dualhp_schedule`) answer
each guess with a feasibility-only packer and build placements once, at
the accepted guess.  ``tests/reference_runtime.py`` keeps the searches
as they were before; every test here requires identical output: the
same placements in the same order, the same start times, the same
accepted lambda, and event-for-event identical online schedules.

Inputs reach the corners the paper grids do not: CPU-only, GPU-only,
one-of-each and many-CPUs-few-tasks platforms, heavily tied durations
and priorities, and acceleration factors from 1e-4 to 1e4.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_runtime
from reference_runtime import (
    ReferenceDualHPPolicy,
    reference_dualhp_schedule,
    reference_dualhp_try,
)
from repro.campaign.executor import LOCKSTEP_MIN_ROWS
from repro.core.platform import Platform
from repro.core.task import Instance, Task
from repro.dag.graph import TaskGraph
from repro.schedulers import dualhp
from repro.schedulers.batch import batch_dualhp_schedule
from repro.schedulers.online import DualHPPolicy
from repro.schedulers.online import dualhp as online_dualhp
from repro.simulator.runtime import simulate

# -- strategies -----------------------------------------------------------------

#: Platform shapes: CPU-only, GPU-only, one of each, m >> n, and small
#: mixed nodes.
platforms = st.one_of(
    st.builds(Platform, st.integers(1, 4), st.just(0)),
    st.builds(Platform, st.just(0), st.integers(1, 3)),
    st.just(Platform(1, 1)),
    st.builds(Platform, st.integers(16, 64), st.integers(1, 2)),
    st.builds(Platform, st.integers(1, 6), st.integers(1, 3)),
)

#: Durations from a handful of values (heavy ties), a generic range,
#: or a log scale wide enough for acceleration factors of 1e-4..1e4.
tied = st.sampled_from([1.0, 2.0, 3.0, 4.0])
generic = st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False)
extreme = st.integers(-2, 2).map(lambda e: 10.0**e)
durations = st.one_of(tied, generic, extreme)
priorities = st.sampled_from([0.0, 0.0, 1.0, 2.5])


@st.composite
def task_lists(draw, max_tasks: int = 14) -> list[Task]:
    scale = draw(st.sampled_from([tied, generic, extreme, durations]))
    n = draw(st.integers(1, max_tasks))
    return [
        Task(cpu_time=draw(scale), gpu_time=draw(scale), priority=draw(priorities))
        for _ in range(n)
    ]


@st.composite
def graphs(draw) -> TaskGraph:
    tasks = draw(task_lists(max_tasks=10))
    graph = TaskGraph("oracle")
    for task in tasks:
        graph.add_task(task)
    for j in range(1, len(tasks)):
        for i in draw(st.sets(st.integers(0, j - 1), max_size=2)):
            graph.add_edge(tasks[i], tasks[j])
    return graph


def placements(schedule) -> list[tuple]:
    """Every placement, in append order, as a comparable tuple."""
    return [
        (p.task.uid, p.worker.kind.name, p.worker.index, p.start, p.end, p.aborted)
        for p in schedule.placements
    ]


# -- offline ----------------------------------------------------------------------


@given(tasks=task_lists(), platform=platforms)
@settings(max_examples=150, deadline=None)
def test_offline_search_matches_oracle(tasks, platform):
    instance = Instance(tasks)
    new = dualhp.dualhp_schedule(instance, platform)
    ref = reference_dualhp_schedule(instance, platform)
    assert new.lam == ref.lam
    assert placements(new.schedule) == placements(ref.schedule)


@given(
    tasks=task_lists(),
    platform=platforms,
    scale=st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0, 1.7, 4.0]),
)
@settings(max_examples=150, deadline=None)
def test_offline_try_matches_oracle_at_any_guess(tasks, platform, scale):
    instance = Instance(tasks)
    lam = scale * max(max(t.cpu_time, t.gpu_time) for t in tasks)
    new = dualhp.dualhp_try(instance, platform, lam)
    ref = reference_dualhp_try(instance, platform, lam)
    assert (new is None) == (ref is None)
    if ref is not None:
        assert placements(new) == placements(ref)


def test_offline_doubling_path_matches_oracle(monkeypatch):
    # The offline seed guess is feasible by the list-scheduling bound,
    # so only a weaker seed reaches the doubling.  Without the min-time
    # term, a GPU-only node seeds at the average GPU work: one task of
    # q=10 on two GPUs seeds at 5, where it would be forced to the
    # absent CPUs; the search doubles once.
    def area_only(instance, platform):
        return sum(t.gpu_time for t in instance) / platform.num_gpus

    monkeypatch.setattr(dualhp, "makespan_lower_bound", area_only)
    monkeypatch.setattr(reference_runtime, "makespan_lower_bound", area_only)
    guesses: list[tuple[float, bool]] = []
    pack = dualhp._Packer.pack

    def spy(self, lam, record=None):
        ok = pack(self, lam, record)
        guesses.append((lam, ok))
        return ok

    monkeypatch.setattr(dualhp._Packer, "pack", spy)
    instance = Instance([Task(cpu_time=1.0, gpu_time=10.0)])
    platform = Platform(0, 2)
    new = dualhp.dualhp_schedule(instance, platform)
    ref = reference_dualhp_schedule(instance, platform)
    assert guesses[:2] == [(5.0, False), (10.0, True)]
    assert new.lam == ref.lam
    assert placements(new.schedule) == placements(ref.schedule)


# -- online -----------------------------------------------------------------------


@given(graph=graphs(), platform=platforms)
@settings(max_examples=100, deadline=None)
def test_online_policy_matches_oracle(graph, platform):
    new = simulate(graph, platform, DualHPPolicy())
    ref = simulate(graph, platform, ReferenceDualHPPolicy())
    assert placements(new) == placements(ref)


def test_online_doubling_path_matches_oracle(monkeypatch):
    # GPU-only node, one task with p=1, q=10: the seed guess is
    # min(p, q) = 1, and q > lambda forces the task onto the absent
    # CPUs at 1, 2, 4 and 8 before 16 is feasible.
    guesses: list[tuple[float, bool]] = []
    pack = online_dualhp._pack

    def spy(triples, lam, cpus, gpus, on_gpu=None):
        ok = pack(triples, lam, cpus, gpus, on_gpu)
        guesses.append((lam, ok))
        return ok

    monkeypatch.setattr(online_dualhp, "_pack", spy)
    graph = TaskGraph("doubling")
    graph.add_task(Task(cpu_time=1.0, gpu_time=10.0))
    platform = Platform(0, 1)
    new = simulate(graph, platform, DualHPPolicy())
    ref = simulate(graph, platform, ReferenceDualHPPolicy())
    assert guesses[:5] == [
        (1.0, False), (2.0, False), (4.0, False), (8.0, False), (16.0, True)
    ]
    assert placements(new) == placements(ref)
    assert new.makespan == 10.0


# -- lockstep batch ---------------------------------------------------------------


@pytest.mark.parametrize("rows", [1, 2, LOCKSTEP_MIN_ROWS - 1, LOCKSTEP_MIN_ROWS])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_batch_matches_offline_oracle(rows, data):
    n = data.draw(st.integers(1, 10), label="n")
    scale = data.draw(st.sampled_from([tied, generic, extreme, durations]), label="scale")
    mixed = data.draw(st.booleans(), label="mixed platforms")
    row_platforms = (
        [data.draw(platforms) for _ in range(rows)]
        if mixed
        else [data.draw(platforms)] * rows
    )
    cpu = np.array([[data.draw(scale) for _ in range(n)] for _ in range(rows)])
    gpu = np.array([[data.draw(scale) for _ in range(n)] for _ in range(rows)])
    prio = np.array([[data.draw(priorities) for _ in range(n)] for _ in range(rows)])
    result = batch_dualhp_schedule(cpu, gpu, row_platforms, priorities=prio)
    for i in range(rows):
        # Instance order is uid order, so position stands in for uid.
        tasks = [
            Task(cpu_time=float(p), gpu_time=float(q), priority=float(w))
            for p, q, w in zip(cpu[i], gpu[i], prio[i])
        ]
        ref = reference_dualhp_schedule(Instance(tasks), row_platforms[i])
        assert float(result.lams[i]) == ref.lam
        assert float(result.makespans[i]) == ref.makespan
        assert placements(result.schedule(i, tasks)) == placements(ref.schedule)
