"""Differential pin: the lockstep batch engine vs the scalar loops.

The batch engine (:mod:`repro.simulator.batch`) must be *bit-identical*
to the scalar reference implementations — same placements (task
identity, worker, start, end, aborted flag), same makespans, same
spoliation records field-by-field, same ``SimStats`` counters — across
workload families, ranking policies, and per-row divergence (rows that
abort, spoliate, and finish at different times mid-batch).  Any
deviation would silently poison the campaign result cache, so these
tests compare every float with ``==``, never ``approx``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.heteroprio import heteroprio_schedule
from repro.core.platform import PAPER_PLATFORM, Platform
from repro.core.task import Instance, Task
from repro.dag.cholesky import cholesky_compiled
from repro.dag.lu import lu_compiled
from repro.dag.priorities import assign_priorities
from repro.dag.qr import qr_compiled
from repro.schedulers.batch import batch_dualhp_schedule, batch_heft_schedule
from repro.schedulers.dualhp import dualhp_schedule
from repro.schedulers.heft import heft_schedule
from repro.schedulers.online.heteroprio import HeteroPrioPolicy
from repro.simulator.batch import batch_heteroprio_schedule, batch_simulate_dag
from repro.simulator.runtime import RuntimeSimulator, SimStats

N_SEEDS = 24  # >= 20 per the differential coverage requirement

FAMILIES = {
    "cholesky": lambda: cholesky_compiled(6),
    "qr": lambda: qr_compiled(5),
    "lu": lambda: lu_compiled(5),
}

SCHEMES = ("avg", "min", "fifo")


def assert_same_schedule(ref, got, ctx):
    """Placement-for-placement, bitwise equality of two schedules."""
    assert len(ref.placements) == len(got.placements), ctx
    for i, (a, b) in enumerate(zip(ref.placements, got.placements)):
        assert a.task is b.task, (ctx, i)
        assert a.worker == b.worker, (ctx, i)
        assert a.start == b.start, (ctx, i)
        assert a.end == b.end, (ctx, i)
        assert a.aborted == b.aborted, (ctx, i)
    assert ref.makespan == got.makespan, ctx


def _independent_rows(n_tasks, seeds):
    rows = []
    for seed in seeds:
        rng = random.Random(seed)
        tasks = [
            Task(
                name=f"t{i}",
                cpu_time=rng.uniform(1.0, 50.0),
                gpu_time=rng.uniform(0.5, 10.0),
            )
            for i in range(n_tasks)
        ]
        for task in tasks:
            task.priority = 0.0
        rows.append(tasks)
    cpu = np.array([[t.cpu_time for t in tasks] for tasks in rows])
    gpu = np.array([[t.gpu_time for t in tasks] for tasks in rows])
    return rows, cpu, gpu


# -- independent mode (Algorithm 1 core) -------------------------------------


def test_independent_seed_sweep_bit_identical():
    rows, cpu, gpu = _independent_rows(40, range(100, 100 + N_SEEDS))
    result = batch_heteroprio_schedule(cpu, gpu, PAPER_PLATFORM)
    total_spoliations = 0
    for b, tasks in enumerate(rows):
        ref = heteroprio_schedule(Instance(tasks), PAPER_PLATFORM, compute_ns=False)
        assert_same_schedule(ref.schedule, result.schedule(b, tasks=tasks), b)
        assert ref.t_first_idle == float(result.t_first_idle[b]), b
        got_sp = result.spoliations(b, tasks=tasks)
        assert len(got_sp) == len(ref.spoliations), b
        for x, y in zip(ref.spoliations, got_sp):
            assert x.task is y.task, b
            assert x.victim_worker == y.victim_worker, b
            assert x.new_worker == y.new_worker, b
            assert x.abort_time == y.abort_time, b
            assert x.old_completion == y.old_completion, b
            assert x.new_completion == y.new_completion, b
        total_spoliations += len(got_sp)
    # The sweep must actually exercise divergence: some rows spoliate
    # (and re-place work mid-batch) while others never do.
    assert total_spoliations > 0
    counts = result.abort_counts
    assert counts.sum() == total_spoliations
    assert counts.min() != counts.max()


@pytest.mark.parametrize("platform", [Platform(4, 2), Platform(2, 1), Platform(1, 3)])
def test_independent_platform_shapes(platform):
    rows, cpu, gpu = _independent_rows(30, range(7, 15))
    result = batch_heteroprio_schedule(cpu, gpu, platform)
    for b, tasks in enumerate(rows):
        ref = heteroprio_schedule(Instance(tasks), platform, compute_ns=False)
        assert_same_schedule(ref.schedule, result.schedule(b, tasks=tasks), b)


def test_independent_mixed_platforms_one_batch():
    platforms = [Platform(4, 2), Platform(2, 1), Platform(6, 3), Platform(3, 2)] * 2
    rows, cpu, gpu = _independent_rows(25, range(40, 40 + len(platforms)))
    result = batch_heteroprio_schedule(cpu, gpu, platforms)
    for b, tasks in enumerate(rows):
        ref = heteroprio_schedule(Instance(tasks), platforms[b], compute_ns=False)
        assert_same_schedule(ref.schedule, result.schedule(b, tasks=tasks), b)
        assert ref.t_first_idle == float(result.t_first_idle[b]), b


def test_independent_migration_none():
    rows, cpu, gpu = _independent_rows(30, range(60, 68))
    result = batch_heteroprio_schedule(cpu, gpu, Platform(4, 2), migration="none")
    for b, tasks in enumerate(rows):
        ref = heteroprio_schedule(
            Instance(tasks), Platform(4, 2), migration="none", compute_ns=False
        )
        assert_same_schedule(ref.schedule, result.schedule(b, tasks=tasks), b)
        assert ref.t_first_idle == float(result.t_first_idle[b]), b
    assert result.stats.aborts == 0


def test_independent_preemption_unsupported():
    rows, cpu, gpu = _independent_rows(5, [1])
    with pytest.raises(NotImplementedError):
        batch_heteroprio_schedule(cpu, gpu, Platform(2, 1), migration="preemption")


# -- DAG mode (Section 6.2 runtime) ------------------------------------------


def _noise_rows(graph, n_rows, seed):
    """Per-row duration scalings: rows diverge in event times and aborts."""
    rng = np.random.default_rng(seed)
    factors = rng.uniform(0.5, 2.0, size=(n_rows, 1))
    cpu = graph.cpu_times[None, :] * factors
    gpu = graph.gpu_times[None, :] * factors
    return cpu, gpu


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_dag_families_schemes_noise_rows(family, scheme):
    graph = FAMILIES[family]()
    levels = assign_priorities(graph, PAPER_PLATFORM, scheme)
    base_priorities = np.array([levels[t] for t in graph.tasks])
    cpu, gpu = _noise_rows(graph, N_SEEDS, seed=hash((family, scheme)) % 2**32)
    priorities = np.tile(base_priorities, (N_SEEDS, 1))
    result = batch_simulate_dag(
        graph, PAPER_PLATFORM, priorities, cpu_times=cpu, gpu_times=gpu
    )
    scalar_total = SimStats()
    for b in range(N_SEEDS):
        clone = graph.with_durations(cpu[b], gpu[b])
        clone_tasks = clone.tasks
        for task, priority in zip(clone_tasks, base_priorities):
            task.priority = float(priority)
        sim = RuntimeSimulator(clone, PAPER_PLATFORM, HeteroPrioPolicy())
        ref = sim.run()
        assert sim.last_stats is not None
        scalar_total.merge(sim.last_stats)
        assert_same_schedule(
            ref, result.schedule(b, tasks=clone_tasks), (family, scheme, b)
        )
    # Aggregate hot-loop counters match the scalar loop's conventions.
    stats = result.stats
    for key in ("events", "stale_events", "picks", "tasks", "aborts"):
        assert getattr(stats, key) == getattr(scalar_total, key), key


def test_dag_shared_graph_mixed_platforms_and_schemes():
    graph = cholesky_compiled(7)
    combos = [
        (platform, scheme)
        for platform in (PAPER_PLATFORM, Platform(4, 2), Platform(2, 2))
        for scheme in SCHEMES
    ]
    priorities = np.empty((len(combos), len(graph)))
    for b, (platform, scheme) in enumerate(combos):
        levels = assign_priorities(graph, platform, scheme)
        priorities[b] = [levels[t] for t in graph.tasks]
    result = batch_simulate_dag(graph, [p for p, _ in combos], priorities)
    aborts = 0
    for b, (platform, scheme) in enumerate(combos):
        assign_priorities(graph, platform, scheme)  # restore task.priority
        sim = RuntimeSimulator(graph, platform, HeteroPrioPolicy())
        ref = sim.run()
        assert sim.last_stats is not None
        aborts += sim.last_stats.aborts
        assert_same_schedule(ref, result.schedule(b), (platform, scheme))
    # Spoliation must actually have fired somewhere in the batch.
    assert aborts > 0
    assert result.stats.aborts == aborts


def test_dag_spoliation_disabled():
    graph = cholesky_compiled(6)
    levels = assign_priorities(graph, PAPER_PLATFORM, "avg")
    priorities = np.tile(
        np.array([levels[t] for t in graph.tasks]), (6, 1)
    )
    cpu, gpu = _noise_rows(graph, 6, seed=9)
    result = batch_simulate_dag(
        graph,
        PAPER_PLATFORM,
        priorities,
        cpu_times=cpu,
        gpu_times=gpu,
        spoliation=False,
    )
    assert result.stats.aborts == 0
    for b in range(6):
        clone = graph.with_durations(cpu[b], gpu[b])
        clone_tasks = clone.tasks
        for task, priority in zip(clone_tasks, priorities[b]):
            task.priority = float(priority)
        sim = RuntimeSimulator(
            clone, PAPER_PLATFORM, HeteroPrioPolicy(spoliation=False)
        )
        ref = sim.run()
        assert_same_schedule(ref, result.schedule(b, tasks=clone_tasks), b)


def test_dag_extreme_divergence_rows_finish_at_different_times():
    # Rows scaled 1x vs 50x: fast rows complete while slow rows are
    # still mid-flight, so the masked sub-stepping carries most of the
    # batch as rows retire.  Still bit-identical.
    graph = cholesky_compiled(5)
    levels = assign_priorities(graph, PAPER_PLATFORM, "avg")
    base_priorities = np.array([levels[t] for t in graph.tasks])
    scales = np.array([1.0, 50.0, 1.0, 50.0, 25.0, 0.1])[:, None]
    cpu = graph.cpu_times[None, :] * scales
    gpu = graph.gpu_times[None, :] * scales
    priorities = np.tile(base_priorities, (len(scales), 1))
    result = batch_simulate_dag(
        graph, PAPER_PLATFORM, priorities, cpu_times=cpu, gpu_times=gpu
    )
    for b in range(len(scales)):
        clone = graph.with_durations(cpu[b], gpu[b])
        clone_tasks = clone.tasks
        for task, priority in zip(clone_tasks, base_priorities):
            task.priority = float(priority)
        ref = RuntimeSimulator(clone, PAPER_PLATFORM, HeteroPrioPolicy()).run()
        assert_same_schedule(ref, result.schedule(b, tasks=clone_tasks), b)
    assert result.makespans.max() > 10 * result.makespans.min()


def test_batch_result_stats_wall_clock_populated():
    rows, cpu, gpu = _independent_rows(10, range(4))
    result = batch_heteroprio_schedule(cpu, gpu, Platform(2, 1))
    assert result.stats.wall_s > 0
    assert result.stats.tasks == 4 * 10


# -- offline batch schedulers (fig6 independent mode) -------------------------


def test_offline_heft_seed_sweep_bit_identical():
    rows, cpu, gpu = _independent_rows(40, range(200, 200 + N_SEEDS))
    result = batch_heft_schedule(cpu, gpu, PAPER_PLATFORM)
    for b, tasks in enumerate(rows):
        ref = heft_schedule(Instance(tasks), PAPER_PLATFORM)
        assert_same_schedule(ref, result.schedule(b, tasks), b)


def test_offline_dualhp_seed_sweep_bit_identical():
    rows, cpu, gpu = _independent_rows(40, range(300, 300 + N_SEEDS))
    result = batch_dualhp_schedule(cpu, gpu, PAPER_PLATFORM)
    for b, tasks in enumerate(rows):
        ref = dualhp_schedule(Instance(tasks), PAPER_PLATFORM)
        assert_same_schedule(ref.schedule, result.schedule(b, tasks), b)
        # The accepted dual guess, not just the resulting schedule.
        assert ref.lam == float(result.lams[b]), b


@pytest.mark.parametrize(
    "platform",
    [Platform(4, 2), Platform(2, 1), Platform(4, 0), Platform(0, 3), Platform(1, 1)],
)
@pytest.mark.parametrize("batch_fn,scalar_fn", [
    (batch_heft_schedule, heft_schedule),
    (batch_dualhp_schedule, dualhp_schedule),
])
def test_offline_platform_shapes(platform, batch_fn, scalar_fn):
    """Degenerate CPU-only and GPU-only platforms stay bit-identical."""
    rows, cpu, gpu = _independent_rows(25, range(11, 19))
    result = batch_fn(cpu, gpu, platform)
    for b, tasks in enumerate(rows):
        ref = scalar_fn(Instance(tasks), platform)
        schedule = getattr(ref, "schedule", ref)
        assert_same_schedule(schedule, result.schedule(b, tasks), b)


@pytest.mark.parametrize("batch_fn,scalar_fn", [
    (batch_heft_schedule, heft_schedule),
    (batch_dualhp_schedule, dualhp_schedule),
])
def test_offline_mixed_platforms_one_batch(batch_fn, scalar_fn):
    platforms = [Platform(4, 2), Platform(2, 1), Platform(6, 3), Platform(1, 2)] * 2
    rows, cpu, gpu = _independent_rows(30, range(70, 70 + len(platforms)))
    result = batch_fn(cpu, gpu, platforms)
    for b, tasks in enumerate(rows):
        ref = scalar_fn(Instance(tasks), platforms[b])
        schedule = getattr(ref, "schedule", ref)
        assert_same_schedule(schedule, result.schedule(b, tasks), b)


@pytest.mark.parametrize("batch_fn,scalar_fn", [
    (batch_heft_schedule, heft_schedule),
    (batch_dualhp_schedule, dualhp_schedule),
])
def test_offline_tie_heavy_durations(batch_fn, scalar_fn):
    """Discrete duration grids force argmin/sort tie-breaks to match."""
    rng = random.Random(5)
    rows = []
    for _ in range(10):
        tasks = [
            Task(
                name=f"t{i}",
                cpu_time=rng.choice([1.0, 2.0, 3.0, 4.0]),
                gpu_time=rng.choice([0.5, 1.0, 2.0]),
                priority=float(rng.choice([0.0, 1.0, 2.0])),
            )
            for i in range(30)
        ]
        rows.append(tasks)
    cpu = np.array([[t.cpu_time for t in tasks] for tasks in rows])
    gpu = np.array([[t.gpu_time for t in tasks] for tasks in rows])
    prio = np.array([[t.priority for t in tasks] for tasks in rows])
    result = batch_fn(cpu, gpu, Platform(3, 2), priorities=prio)
    for b, tasks in enumerate(rows):
        ref = scalar_fn(Instance(tasks), Platform(3, 2))
        schedule = getattr(ref, "schedule", ref)
        assert_same_schedule(schedule, result.schedule(b, tasks), b)


# -- constant tripwires -------------------------------------------------------


def test_duplicated_search_constants_stay_in_sync():
    """The offline batch module duplicates the scalar search tolerance to
    keep its salt closure minimal; a drift here would break bit-identity
    silently, so it is pinned as a test instead of an import."""
    import repro.schedulers.batch as offline_batch
    import repro.schedulers.dualhp as scalar_dualhp

    assert offline_batch.SEARCH_RTOL == scalar_dualhp.SEARCH_RTOL
