"""Differential pin: the lockstep batch engine vs the scalar loops.

The lockstep engine (:mod:`repro.simulator.batch`) and the offline
batch schedulers (:mod:`repro.schedulers.batch`) must be
*bit-identical* to the scalar reference implementations — same
placements (task identity, worker, start, end, aborted flag), same
makespans, same spoliation records field-by-field, same first-idle
instants — across platform shapes, tie-heavy durations and per-row
divergence (rows that abort, spoliate, and finish at different times
mid-batch).  Any deviation would silently poison the campaign result
cache, so these tests compare every float with ``==``, never
``approx``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.heteroprio import heteroprio_schedule
from repro.core.platform import PAPER_PLATFORM, Platform
from repro.core.task import Instance, Task
from repro.schedulers.batch import batch_dualhp_schedule, batch_heft_schedule
from repro.schedulers.dualhp import dualhp_schedule
from repro.schedulers.heft import heft_schedule
from repro.simulator.batch import batch_heteroprio_schedule

N_SEEDS = 24  # >= 20 per the differential coverage requirement


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


def assert_same_heteroprio_rows(rows, platforms, result, migration="spoliation"):
    """Every lockstep row equals its scalar run: placements, spoliation
    records, first-idle instant and abort count."""
    for b, tasks in enumerate(rows):
        ref = heteroprio_schedule(
            Instance(tasks), platforms[b], migration=migration, compute_ns=False
        )
        assert_same_schedule(ref.schedule, result.schedule(b, tasks=tasks), b)
        assert ref.t_first_idle == float(result.t_first_idle[b]), b
        got_sp = result.spoliations(b, tasks=tasks)
        assert len(got_sp) == len(ref.spoliations) == result.abort_counts[b], b
        for x, y in zip(ref.spoliations, got_sp):
            assert x.task is y.task, b
            assert x.victim_worker == y.victim_worker, b
            assert x.new_worker == y.new_worker, b
            assert x.abort_time == y.abort_time, b
            assert x.old_completion == y.old_completion, b
            assert x.new_completion == y.new_completion, b


def test_independent_seed_sweep_bit_identical():
    rows, cpu, gpu = _independent_rows(40, range(100, 100 + N_SEEDS))
    result = batch_heteroprio_schedule(cpu, gpu, PAPER_PLATFORM)
    assert_same_heteroprio_rows(rows, [PAPER_PLATFORM] * len(rows), result)
    # The sweep must actually exercise divergence: some rows spoliate
    # (and re-place work mid-batch) while others never do.
    counts = result.abort_counts
    assert counts.sum() > 0
    assert counts.min() != counts.max()


@pytest.mark.parametrize("platform", [Platform(4, 2), Platform(2, 1), Platform(1, 3)])
def test_independent_platform_shapes(platform):
    rows, cpu, gpu = _independent_rows(30, range(7, 15))
    result = batch_heteroprio_schedule(cpu, gpu, platform)
    assert_same_heteroprio_rows(rows, [platform] * len(rows), result)


def test_independent_mixed_platforms_one_batch():
    platforms = [Platform(4, 2), Platform(2, 1), Platform(6, 3), Platform(3, 2)] * 2
    rows, cpu, gpu = _independent_rows(25, range(40, 40 + len(platforms)))
    result = batch_heteroprio_schedule(cpu, gpu, platforms)
    assert_same_heteroprio_rows(rows, platforms, result)


def test_independent_migration_none():
    rows, cpu, gpu = _independent_rows(30, range(60, 68))
    platforms = [Platform(4, 2)] * len(rows)
    result = batch_heteroprio_schedule(cpu, gpu, platforms, migration="none")
    assert_same_heteroprio_rows(rows, platforms, result, migration="none")
    assert result.stats.aborts == 0


def test_independent_preemption_unsupported():
    rows, cpu, gpu = _independent_rows(5, [1])
    with pytest.raises(NotImplementedError):
        batch_heteroprio_schedule(cpu, gpu, Platform(2, 1), migration="preemption")


def test_independent_extreme_divergence_rows_finish_at_different_times():
    # Rows scaled 0.1x to 50x: fast rows complete while slow rows are
    # still mid-flight, so the masked sub-stepping carries most of the
    # batch as rows retire.  Still bit-identical.
    base, cpu, gpu = _independent_rows(40, [3])
    scales = np.array([1.0, 50.0, 1.0, 50.0, 25.0, 0.1])[:, None]
    cpu, gpu = cpu * scales, gpu * scales
    rows = [
        [Task(name=t.name, cpu_time=float(c), gpu_time=float(g))
         for t, c, g in zip(base[0], cpu_row, gpu_row)]
        for cpu_row, gpu_row in zip(cpu, gpu)
    ]
    platforms = [PAPER_PLATFORM, Platform(4, 2)] * 3
    result = batch_heteroprio_schedule(cpu, gpu, platforms)
    assert_same_heteroprio_rows(rows, platforms, result)
    assert result.makespans.max() > 10 * result.makespans.min()
    assert result.abort_counts.sum() > 0


@pytest.mark.parametrize("migration", ["spoliation", "none"])
def test_independent_tie_heavy_durations(migration):
    """Integer duration grids force queue, pop and victim ties to match."""
    rng = random.Random(17)
    platforms = [Platform(3, 2), Platform(1, 1), Platform(4, 1), Platform(2, 3)] * 6
    rows = [
        [
            Task(name=f"t{i}", cpu_time=float(rng.choice([1, 2, 4, 8])),
                 gpu_time=float(rng.choice([1, 2])))
            for i in range(12)
        ]
        for _ in platforms
    ]
    cpu = np.array([[t.cpu_time for t in tasks] for tasks in rows])
    gpu = np.array([[t.gpu_time for t in tasks] for tasks in rows])
    result = batch_heteroprio_schedule(cpu, gpu, platforms, migration=migration)
    assert_same_heteroprio_rows(rows, platforms, result, migration=migration)
    if migration == "spoliation":
        assert result.abort_counts.sum() > 0


def test_independent_single_class_rows():
    """CPU-only and GPU-only rows, alone and next to mixed rows."""
    platforms = [
        Platform(4, 0), Platform(0, 3), Platform(1, 0), Platform(0, 1),
        Platform(3, 2), Platform(2, 0),
    ]
    rows, cpu, gpu = _independent_rows(20, range(90, 90 + len(platforms)))
    result = batch_heteroprio_schedule(cpu, gpu, platforms)
    assert_same_heteroprio_rows(rows, platforms, result)
    # No other class to spoliate from on a single-class row.
    assert result.abort_counts[[0, 1, 2, 3, 5]].sum() == 0


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
