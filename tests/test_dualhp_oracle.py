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

import itertools

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
from repro.dag.priorities import assign_priorities
from repro.dag.random_graphs import layered_random_compiled, random_chain_compiled
from repro.experiments.workloads import COMPILED_FACTORIZATIONS, FACTORIZATIONS
from repro.schedulers import dualhp
from repro.schedulers.batch import _BatchDualHPTrier, _inside, batch_dualhp_schedule
from repro.schedulers.online import DualHPPolicy
from repro.schedulers.online import dualhp as online_dualhp
from repro.simulator.runtime import simulate
from repro.timing.model import TimingModel

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


def test_online_traced_doubling_path_matches_oracle(monkeypatch):
    # The same GPU-only node with two such tasks: one run of two, so the
    # guesses are answered from traces.  The seed guess is the pool's
    # summed min-times, 2, and the run stays forced onto the absent CPUs
    # at 2, 4 and 8.
    guesses: list[tuple[float, bool]] = []
    pack = online_dualhp._Traces.pack

    def spy(self, lam):
        ok = pack(self, lam)
        guesses.append((lam, ok))
        return ok

    monkeypatch.setattr(online_dualhp._Traces, "pack", spy)
    monkeypatch.setattr(online_dualhp, "_pack", None)  # never reached
    graph = TaskGraph("doubling")
    graph.add_task(Task(cpu_time=1.0, gpu_time=10.0))
    graph.add_task(Task(cpu_time=1.0, gpu_time=10.0))
    platform = Platform(0, 1)
    new = simulate(graph, platform, DualHPPolicy())
    ref = simulate(graph, platform, ReferenceDualHPPolicy())
    assert guesses[:4] == [(2.0, False), (4.0, False), (8.0, False), (16.0, True)]
    assert placements(new) == placements(ref)
    assert new.makespan == 20.0


# -- online: run structure --------------------------------------------------------
#
# ``DualHPPolicy`` answers a guess from per-run traces when the pool has
# few, long runs of equal ``(p, q)``, and packs it task by task
# otherwise.  Factorization pools take the first side, noisy and random
# graphs the second; the pair-pool strategy reaches long flexible runs
# that split at the limit.

ORACLE_PLATFORMS = [(20, 4), (4, 1), (1, 1), (3, 0), (0, 2), (2, 3)]
RANKINGS = ("avg", "min", "fifo")


def _match_every_ranking(graph, platform: Platform) -> None:
    for ranking in RANKINGS:
        assign_priorities(graph, platform, ranking)
        new = simulate(graph, platform, DualHPPolicy())
        ref = simulate(graph, platform, ReferenceDualHPPolicy())
        assert placements(new) == placements(ref), ranking


@pytest.fixture
def packer_calls(monkeypatch):
    """Count the guesses each side answers."""
    calls = {"traces": 0, "tasks": 0}
    traced, per_task = online_dualhp._Traces.pack, online_dualhp._pack

    def count_traced(self, lam):
        calls["traces"] += 1
        return traced(self, lam)

    def count_per_task(*args):
        calls["tasks"] += 1
        return per_task(*args)

    monkeypatch.setattr(online_dualhp._Traces, "pack", count_traced)
    monkeypatch.setattr(online_dualhp, "_pack", count_per_task)
    return calls


@pytest.mark.parametrize("workload", sorted(COMPILED_FACTORIZATIONS))
@pytest.mark.parametrize("size", [4, 6, 8])
def test_online_factorizations_match_oracle(workload, size, packer_calls):
    graph = COMPILED_FACTORIZATIONS[workload](size)
    for shape in ORACLE_PLATFORMS:
        _match_every_ranking(graph, Platform(*shape))
    # Pools of a few kernel-type runs are answered from traces; small
    # pools of one-task runs (a lone POTRF, say) are packed task by task.
    assert packer_calls["traces"] > 0 and packer_calls["tasks"] > 0


@pytest.mark.parametrize("workload,seed", [("cholesky", 1), ("qr", 2)])
def test_online_noisy_factorizations_match_oracle(workload, seed, packer_calls):
    timing = TimingModel.for_factorization(
        workload, noise=0.15, rng=np.random.default_rng(seed)
    )
    graph = FACTORIZATIONS[workload](6, timing)
    for shape in [(20, 4), (1, 1), (2, 3)]:
        _match_every_ranking(graph, Platform(*shape))
    # Every (p, q) differs, so every pool is packed task by task.
    assert packer_calls["tasks"] > 0 and packer_calls["traces"] == 0


@pytest.mark.parametrize("seed", range(4))
def test_online_random_graphs_match_oracle(seed):
    layered = layered_random_compiled(5, 6, np.random.default_rng(seed))
    chains = random_chain_compiled(6, 5, np.random.default_rng(100 + seed))
    for graph in (layered, chains):
        for shape in [(20, 4), (4, 1), (0, 2)]:
            _match_every_ranking(graph, Platform(*shape))


@st.composite
def pair_graphs(draw) -> TaskGraph:
    """20-60 tasks drawn from 2-4 ``(p, q)`` pairs, with sparse edges.

    Durations come from a small grid, so pairs share acceleration
    factors (runs interleave by priority) and ends tie with the limit.
    """
    grid = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 8.0])
    pairs = draw(st.lists(st.tuples(grid, grid), min_size=2, max_size=4, unique=True))
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(pairs), priorities), min_size=20, max_size=60
        )
    )
    graph = TaskGraph("pairs")
    tasks = [Task(cpu_time=p, gpu_time=q, priority=w) for (p, q), w in picks]
    for task in tasks:
        graph.add_task(task)
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, len(tasks) - 1), st.integers(0, len(tasks) - 1)),
            max_size=12,
        )
    )
    for i, j in edges:
        if i < j:
            graph.add_edge(tasks[i], tasks[j])
    return graph


@given(graph=pair_graphs(), platform=platforms)
@settings(max_examples=60, deadline=None)
def test_online_pair_pools_match_oracle(graph, platform):
    new = simulate(graph, platform, DualHPPolicy())
    ref = simulate(graph, platform, ReferenceDualHPPolicy())
    assert placements(new) == placements(ref)


def _runs_and_triples(pairs_and_counts):
    runs = [(p, q, c) for (p, q), c in pairs_and_counts]
    triples = [
        (k, p, q)
        for k, (p, q) in enumerate(
            itertools.chain.from_iterable([(p, q)] * c for p, q, c in runs)
        )
    ]
    return runs, triples


def _flags_from_counts(runs, counts) -> list[bool]:
    return [k < j for (_, _, c), j in zip(runs, counts) for k in range(c)]


@given(
    pairs_and_counts=st.lists(
        st.tuples(
            st.tuples(st.integers(1, 8).map(float), st.integers(1, 8).map(float)),
            st.integers(1, 12),
        ),
        min_size=1,
        max_size=5,
    ),
    cpus=st.lists(st.integers(0, 6).map(float), max_size=4),
    gpus=st.lists(st.integers(0, 6).map(float), max_size=3),
    doubled=st.integers(1, 80),
)
@settings(max_examples=300, deadline=None)
def test_traces_answer_every_guess_like_pack(pairs_and_counts, cpus, gpus, doubled):
    # Integer durations and loads make every end an integer, and 2*lam
    # runs over the integers, so the limit often equals an end exactly.
    if not cpus and not gpus:
        gpus = [0.0]
    lam = doubled / 2.0
    runs, triples = _runs_and_triples(pairs_and_counts)
    cpus, gpus = sorted(cpus), sorted(gpus)
    traces = online_dualhp._Traces(runs, cpus, gpus)
    flags = [False] * len(triples)
    ok = online_dualhp._pack(triples, lam, cpus, gpus, flags)
    assert traces.pack(lam) == ok
    if ok:
        assert _flags_from_counts(runs, traces.counts) == flags


def test_traces_place_forced_cpu_runs_before_the_overflow():
    # lam = 2 on CPU loads 0, 2, 3 and one idle GPU.  The flexible run
    # (2, 2) x 4 comes first in acceleration order; the GPU takes two
    # (ends 2 and 4) and two overflow.  The forced run (1, 3) x 3 fills
    # the CPUs to 2, 2, 3 first, so the second overflow task ends at 5:
    # infeasible.  Overflow first would end every CPU at 4.
    runs, triples = _runs_and_triples([((2.0, 2.0), 4), ((1.0, 3.0), 3)])
    cpus, gpus = [0.0, 2.0, 3.0], [0.0]
    assert not online_dualhp._pack(triples, 2.0, cpus, gpus)
    assert not online_dualhp._Traces(runs, cpus, gpus).pack(2.0)
    assert online_dualhp._Traces(runs, cpus, gpus).pack(2.5)


def test_traces_place_a_task_whose_end_equals_the_limit():
    # One CPU, one GPU, six tasks (p, q) = (2, 1) and lam = 2: the GPU
    # ends are 1, 2, ..., 6 and the limit 2 * lam = 4 is the fourth.
    # That task fits, so the two left over end at 2 and 4 on the CPU and
    # the guess is feasible; a strict comparison would overflow three
    # and reject it.
    runs, triples = _runs_and_triples([((2.0, 1.0), 6)])
    traces = online_dualhp._Traces(runs, [0.0], [0.0])
    assert traces.pack(2.0)
    assert traces.counts == [4]
    flags = [False] * 6
    assert online_dualhp._pack(triples, 2.0, [0.0], [0.0], flags)
    assert flags == [True] * 4 + [False] * 2
    oracle = ReferenceDualHPPolicy()
    oracle.prepare(Platform(1, 1))
    tasks = [Task(cpu_time=2.0, gpu_time=1.0) for _ in range(6)]
    assignment = oracle._try(tasks, 2.0, [0.0], [0.0])
    assert [assignment[t].name for t in tasks] == ["GPU"] * 4 + ["CPU"] * 2
    assert not traces.pack(np.nextafter(2.0, 0.0))


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


@st.composite
def guesses(draw, durations: np.ndarray) -> float:
    """A guess for one row: a multiple of its longest task, or half a sum
    of its durations, where a packed end can equal the limit exactly."""
    if draw(st.booleans()):
        scale = draw(st.sampled_from([0.0, 0.3, 0.5, 0.9, 1.0, 1.7, 4.0]))
        return scale * float(durations.max())
    picked = draw(st.sets(st.integers(0, durations.size - 1), min_size=1))
    return 0.5 * sum(float(durations.flat[k]) for k in sorted(picked))


def _range_points(data, bounds: np.ndarray, lam: float) -> tuple[list, list]:
    """Guesses inside a decision range (its finite ends and one drawn
    between them) and the guesses just outside those ends.

    Every duration here is a normal float, so halving an end is exact.
    """
    split_lo, split_hi, end_lo, end_hi = bounds.tolist()
    lower = max(split_lo, end_lo / 2.0)  # the least guess inside
    top = min(split_hi, end_hi / 2.0)  # the least guess above the range
    inside, outside = [], []
    if np.isfinite(lower):
        inside.append(lower)
        outside.append(float(np.nextafter(lower, -np.inf)))
    if np.isfinite(top):
        inside.append(float(np.nextafter(top, -np.inf)))
        outside.append(top)
    low = lower if np.isfinite(lower) else lam
    high = inside[-1] if np.isfinite(top) else 4.0 * lam + 1.0
    inside.append(data.draw(st.floats(low, high), label="inside"))
    return inside, outside


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_batch_decision_ranges_repeat_their_pack(data):
    rows = data.draw(st.integers(1, 4), label="rows")
    n = data.draw(st.integers(1, 10), label="n")
    scale = data.draw(st.sampled_from([tied, generic, extreme, durations]), label="scale")
    row_platforms = tuple(data.draw(platforms) for _ in range(rows))
    cpu = np.array([[data.draw(scale) for _ in range(n)] for _ in range(rows)])
    gpu = np.array([[data.draw(scale) for _ in range(n)] for _ in range(rows)])
    prio = np.array([[data.draw(priorities) for _ in range(n)] for _ in range(rows)])
    lam = np.array(
        [data.draw(guesses(np.concatenate((cpu[i], gpu[i])))) for i in range(rows)]
    )
    trier = _BatchDualHPTrier(cpu, gpu, prio, row_platforms)
    ok, ranges = trier.try_rows(np.arange(rows), lam)
    for i in range(rows):
        tasks = [
            Task(cpu_time=float(p), gpu_time=float(q), priority=float(w))
            for p, q, w in zip(cpu[i], gpu[i], prio[i])
        ]
        at_lam = reference_dualhp_try(Instance(tasks), row_platforms[i], float(lam[i]))
        assert (at_lam is not None) == ok[i]
        assert _inside(ranges[:, i], lam[i])
        inside, outside = _range_points(data, ranges[:, i], float(lam[i]))
        for mu in outside:
            assert not _inside(ranges[:, i], mu), mu
        for mu in inside:
            assert _inside(ranges[:, i], mu), mu
            # A fresh pack at mu makes the same decisions: the same
            # answer, the same range and, in the oracle, the same schedule.
            again, again_ranges = trier.try_rows(np.array([i]), np.array([mu]))
            assert again[0] == ok[i], mu
            assert again_ranges[:, 0].tolist() == ranges[:, i].tolist(), mu
            at_mu = reference_dualhp_try(Instance(tasks), row_platforms[i], mu)
            assert (at_mu is None) == (at_lam is None), mu
            if at_lam is not None:
                assert placements(at_mu) == placements(at_lam), mu


def test_batch_decision_range_opens_at_an_end_equal_to_the_limit():
    # One CPU packs 0.5, 0.75 and 0.75: the last end is 2.0, exactly the
    # limit at lam = 1, so the range opens at lam and the guess just
    # below it packs differently.
    cpu = np.array([[0.5, 0.75, 0.75]])
    trier = _BatchDualHPTrier(cpu, cpu.copy(), np.zeros_like(cpu), (Platform(1, 0),))
    ok, ranges = trier.try_rows(np.arange(1), np.array([1.0]))
    assert ok[0]
    assert ranges[:, 0].tolist() == [0.75, np.inf, 2.0, np.inf]
    assert _inside(ranges[:, 0], 1.0)
    below = np.nextafter(1.0, -np.inf)
    assert not _inside(ranges[:, 0], below)
    assert not trier.try_rows(np.arange(1), np.array([below]))[0][0]
