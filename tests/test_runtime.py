"""Tests for the discrete-event DAG runtime and online policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.platform import Platform, ResourceKind
from repro.core.task import Task
from repro.dag.graph import TaskGraph
from repro.dag.priorities import assign_priorities
from repro.dag.random_graphs import layered_random_graph, random_chain_graph
from repro.schedulers.online import (
    BucketHeteroPrioPolicy,
    DualHPPolicy,
    HeftPolicy,
    HeteroPrioPolicy,
    PAPER_ALGORITHMS,
    make_policy,
)
from repro.simulator import RuntimeSimulator, simulate

from conftest import assert_precedence_respected, assert_schedule_consistent
from reference_runtime import reference_independent_heteroprio


def _t(name: str, p: float = 1.0, q: float = 1.0, priority: float = 0.0) -> Task:
    return Task(cpu_time=p, gpu_time=q, name=name, priority=priority)


def _chain(n: int, p: float = 1.0, q: float = 1.0) -> TaskGraph:
    g = TaskGraph("chain")
    prev = None
    for i in range(n):
        t = _t(f"c{i}", p, q)
        g.add_task(t)
        if prev is not None:
            g.add_edge(prev, t)
        prev = t
    return g


def _fork_join(width: int) -> TaskGraph:
    g = TaskGraph("forkjoin")
    src = _t("src")
    sink = _t("sink")
    for i in range(width):
        mid = _t(f"m{i}", p=2.0, q=1.0)
        g.add_edge(src, mid)
        g.add_edge(mid, sink)
    return g


ALL_POLICIES = [HeteroPrioPolicy, BucketHeteroPrioPolicy, HeftPolicy, DualHPPolicy]


class TestRuntimeBasics:
    def test_empty_graph(self):
        s = simulate(TaskGraph("empty"), Platform(1, 1), HeteroPrioPolicy())
        assert s.makespan == 0.0

    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    def test_chain_is_sequential(self, policy_cls):
        g = _chain(5, p=3.0, q=1.0)
        s = simulate(g, Platform(1, 1), policy_cls())
        assert s.makespan == pytest.approx(5.0)  # everything on the GPU
        assert_precedence_respected(s, g)

    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    def test_fork_join_parallelism(self, policy_cls):
        g = _fork_join(4)
        s = simulate(g, Platform(num_cpus=2, num_gpus=4), policy_cls())
        assert_schedule_consistent(s)
        assert_precedence_respected(s, g)
        # src (1) + parallel middles (1 on GPUs) + sink (1).
        assert s.makespan == pytest.approx(3.0)

    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    def test_all_tasks_complete(self, policy_cls, rng):
        g = layered_random_graph(4, 6, rng)
        s = simulate(g, Platform(2, 2), policy_cls())
        assert len(s.completed_placements()) == len(g)
        assert_precedence_respected(s, g)

    def test_simulator_reusable(self, rng):
        g = random_chain_graph(3, 4, rng)
        sim = RuntimeSimulator(g, Platform(2, 1), HeteroPrioPolicy())
        m1 = sim.run().makespan
        m2 = sim.run().makespan
        assert m1 == m2

    def test_determinism_across_policies(self, rng):
        g = layered_random_graph(5, 5, rng)
        for policy_cls in ALL_POLICIES:
            a = simulate(g, Platform(3, 2), policy_cls()).makespan
            b = simulate(g, Platform(3, 2), policy_cls()).makespan
            assert a == b


class TestHeteroPrioDagPolicy:
    def test_spoliation_occurs_in_dag_mode(self):
        # One wide layer of GPU-friendly tasks on a CPU-heavy platform:
        # CPUs grab some, the GPU spoliates stragglers.
        g = TaskGraph("wide")
        for i in range(6):
            g.add_task(_t(f"w{i}", p=100.0, q=1.0))
        s = simulate(g, Platform(num_cpus=5, num_gpus=1), HeteroPrioPolicy())
        assert s.aborted_placements()  # spoliation happened
        assert s.makespan == pytest.approx(6.0)

    def test_spoliation_disabled(self):
        g = TaskGraph("wide")
        for i in range(3):
            g.add_task(_t(f"w{i}", p=100.0, q=1.0))
        s = simulate(g, Platform(2, 1), HeteroPrioPolicy(spoliation=False))
        assert not s.aborted_placements()
        assert s.makespan == pytest.approx(100.0)

    def test_unknown_victim_rule_rejected(self):
        with pytest.raises(ValueError, match="victim_rule"):
            HeteroPrioPolicy(victim_rule="random")

    @given(
        seed=st.integers(min_value=0, max_value=5000),
        n_tasks=st.integers(min_value=1, max_value=14),
        cpus=st.integers(min_value=1, max_value=3),
        gpus=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_differential_vs_core_with_spoliation(self, seed, n_tasks, cpus, gpus):
        """On edge-free graphs, the DAG policy with Algorithm 1's victim
        rule replays the frozen independent implementation exactly."""
        from repro.core.task import Instance

        rng = np.random.default_rng(seed)
        tasks = [
            Task(cpu_time=float(p), gpu_time=float(q), name=f"d{i}")
            for i, (p, q) in enumerate(
                zip(rng.uniform(0.1, 10, n_tasks), rng.uniform(0.1, 10, n_tasks))
            )
        ]
        g = TaskGraph("free")
        for t in tasks:
            g.add_task(t)
        platform = Platform(cpus, gpus)
        via_policy = simulate(
            g, platform, HeteroPrioPolicy(victim_rule="completion")
        )
        via_core, spoliations = reference_independent_heteroprio(
            Instance(tasks), platform
        )
        assert via_policy.makespan == via_core.makespan
        assert len(via_policy.aborted_placements()) == spoliations

    def test_matches_independent_implementation_without_spoliation(self, rng):
        """On an edge-free graph, the DAG policy reproduces S_NS."""
        g = TaskGraph("free")
        tasks = [
            Task(cpu_time=float(p), gpu_time=float(q), name=f"f{i}")
            for i, (p, q) in enumerate(
                zip(rng.uniform(1, 10, 12), rng.uniform(1, 10, 12))
            )
        ]
        for t in tasks:
            g.add_task(t)
        platform = Platform(2, 2)
        via_runtime = simulate(g, platform, HeteroPrioPolicy(spoliation=False))
        via_core, _ = reference_independent_heteroprio(
            g.to_instance(), platform, spoliation=False
        )
        assert via_runtime.makespan == via_core.makespan

    def test_preemption_in_dag_mode_runs_unfinished_shares(self, rng):
        g = layered_random_graph(4, 8, rng, accel_range=(5.0, 50.0))
        platform = Platform(num_cpus=6, num_gpus=1)
        s = simulate(g, platform, HeteroPrioPolicy(migration="preemption"))
        assert s.aborted_placements()
        assert s.strict is False
        assert_schedule_consistent(s)
        assert_precedence_respected(s, g)
        for aborted in s.aborted_placements():
            restart = s.placement_of(aborted.task)
            assert restart.start == aborted.end
            # The restart keeps the victim's progress: it runs less than
            # the whole task on its worker.
            assert restart.duration < restart.full_duration

    def test_spoliated_dag_schedule_validates(self, rng):
        g = layered_random_graph(4, 8, rng, accel_range=(5.0, 50.0))
        platform = Platform(num_cpus=6, num_gpus=1)
        s = simulate(g, platform, HeteroPrioPolicy())
        assert_schedule_consistent(s)
        assert_precedence_respected(s, g)

    def test_highest_priority_victim_chosen(self):
        g = TaskGraph("victims")
        bait = _t("bait", p=50.0, q=1.0, priority=0.0)
        low = _t("low", p=50.0, q=5.0, priority=1.0)
        high = _t("high", p=50.0, q=5.0, priority=2.0)
        for t in (bait, low, high):
            g.add_task(t)
        # CPU-heavy platform: CPUs take low/high/bait... GPU takes bait
        # first (highest rho by queue order), then spoliates `high`.
        s = simulate(g, Platform(num_cpus=2, num_gpus=1), HeteroPrioPolicy())
        aborted = s.aborted_placements()
        assert aborted and aborted[0].task.name == "high"


class TestBucketHeteroPrioPolicy:
    """The StarPU-style bucketed implementation (paper's conclusion)."""

    def test_close_to_queue_policy_on_cholesky(self):
        from repro.bounds.dag_lp import dag_lower_bound
        from repro.dag.cholesky import cholesky_graph

        platform = Platform(num_cpus=20, num_gpus=4)
        g = cholesky_graph(12)
        lower = dag_lower_bound(g, platform)
        assign_priorities(g, platform, "min")
        queue_ratio = simulate(g, platform, HeteroPrioPolicy()).makespan / lower
        bucket_ratio = simulate(g, platform, BucketHeteroPrioPolicy()).makespan / lower
        assert abs(queue_ratio - bucket_ratio) < 0.1

    def test_gpu_takes_most_accelerated_bucket(self):
        g = TaskGraph("kinds")
        gemm = Task(cpu_time=28.0, gpu_time=1.0, kind="GEMM", name="gemm")
        potrf = Task(cpu_time=1.7, gpu_time=1.0, kind="POTRF", name="potrf")
        g.add_task(gemm)
        g.add_task(potrf)
        s = simulate(g, Platform(1, 1), BucketHeteroPrioPolicy())
        assert s.placement_of(gemm).worker.kind is ResourceKind.GPU
        assert s.placement_of(potrf).worker.kind is ResourceKind.CPU

    def test_untyped_tasks_bucket_by_acceleration(self):
        g = TaskGraph("untyped")
        fast = Task(cpu_time=10.0, gpu_time=1.0, name="fast")
        slow = Task(cpu_time=1.0, gpu_time=10.0, name="slow")
        g.add_task(fast)
        g.add_task(slow)
        s = simulate(g, Platform(1, 1), BucketHeteroPrioPolicy())
        assert s.placement_of(fast).worker.kind is ResourceKind.GPU
        assert s.placement_of(slow).worker.kind is ResourceKind.CPU
        assert s.makespan == pytest.approx(1.0)

    def test_within_bucket_priority_order(self):
        g = TaskGraph("prio")
        lo = Task(cpu_time=5.0, gpu_time=1.0, kind="GEMM", name="lo", priority=0.0)
        hi = Task(cpu_time=5.0, gpu_time=1.0, kind="GEMM", name="hi", priority=9.0)
        g.add_task(lo)
        g.add_task(hi)
        s = simulate(g, Platform(0, 1), BucketHeteroPrioPolicy())
        assert s.placement_of(hi).start < s.placement_of(lo).start

    def test_spoliation_supported(self):
        g = TaskGraph("spol")
        for i in range(4):
            g.add_task(Task(cpu_time=100.0, gpu_time=1.0, kind="GEMM", name=f"g{i}"))
        s = simulate(g, Platform(num_cpus=3, num_gpus=1), BucketHeteroPrioPolicy())
        assert s.aborted_placements()
        assert s.makespan == pytest.approx(4.0)

    def test_spoliation_disabled(self):
        g = TaskGraph("nospol")
        for i in range(2):
            g.add_task(Task(cpu_time=100.0, gpu_time=1.0, name=f"g{i}"))
        s = simulate(
            g, Platform(1, 1), BucketHeteroPrioPolicy(spoliation=False)
        )
        assert not s.aborted_placements()

    def test_make_policy_name(self):
        assert make_policy("buckets-min").name == "heteroprio-buckets"


class TestHeftDagPolicy:
    def test_no_spoliation_ever(self, rng):
        g = layered_random_graph(4, 6, rng)
        s = simulate(g, Platform(3, 1), HeftPolicy())
        assert not s.aborted_placements()

    def test_commits_to_fast_resource_when_idle(self):
        g = TaskGraph("single")
        t = _t("only", p=10.0, q=1.0)
        g.add_task(t)
        s = simulate(g, Platform(1, 1), HeftPolicy())
        assert s.placement_of(t).worker.kind is ResourceKind.GPU

    def test_spreads_queue_when_gpu_saturated(self):
        # Many equal tasks: EFT fills the GPU queue until a CPU wins.
        g = TaskGraph("many")
        for i in range(20):
            g.add_task(_t(f"m{i}", p=4.0, q=1.0))
        s = simulate(g, Platform(num_cpus=4, num_gpus=1), HeftPolicy())
        kinds = {p.worker.kind for p in s.completed_placements()}
        assert kinds == {ResourceKind.CPU, ResourceKind.GPU}


class TestDualHPDagPolicy:
    def test_no_spoliation_ever(self, rng):
        g = layered_random_graph(4, 6, rng)
        s = simulate(g, Platform(3, 1), DualHPPolicy())
        assert not s.aborted_placements()

    def test_keeps_cpu_idle_when_gpu_wins(self):
        # A single ready GPU-friendly task at a time: DualHP assigns it to
        # the GPU and leaves CPUs idle (the Figure 9 conservatism).
        g = _chain(4, p=20.0, q=1.0)
        s = simulate(g, Platform(2, 1), DualHPPolicy())
        cpu_work = s.class_work(ResourceKind.CPU)
        assert cpu_work == 0.0

    def test_uses_cpu_for_cpu_friendly_tasks(self):
        g = TaskGraph("mixed")
        g.add_task(_t("cpuish", p=1.0, q=20.0))
        g.add_task(_t("gpuish", p=20.0, q=1.0))
        s = simulate(g, Platform(1, 1), DualHPPolicy())
        assert s.makespan == pytest.approx(1.0)


class TestFailureInjection:
    """The runtime defends against misbehaving policies."""

    def test_stalling_policy_raises(self):
        class Stall(HeteroPrioPolicy):
            def pick(self, worker, time, running):
                return None  # never starts anything

        g = _chain(2)
        with pytest.raises(RuntimeError, match="stalled"):
            simulate(g, Platform(1, 1), Stall())

    def test_same_class_spoliation_rejected(self):
        from repro.schedulers.online.base import Spoliate, StartTask

        class BadSpoliator(HeteroPrioPolicy):
            def pick(self, worker, time, running):
                for view in running.values():
                    if view.worker.kind is worker.kind and view.worker != worker:
                        return Spoliate(view.worker)
                return super().pick(worker, time, running)

        g = TaskGraph("bad")
        g.add_task(_t("a", p=5.0, q=50.0))
        g.add_task(_t("b", p=5.0, q=50.0))
        # Two CPUs: once 'a' runs on CPU0, CPU1 (after its own task or
        # idle) tries to spoliate within its own class.
        g.add_task(_t("c", p=5.0, q=50.0))
        with pytest.raises(RuntimeError, match="invalid spoliation"):
            simulate(g, Platform(2, 1), BadSpoliator())

    def test_spoliating_idle_worker_rejected(self):
        from repro.core.platform import Worker
        from repro.schedulers.online.base import Spoliate

        class GhostSpoliator(HeteroPrioPolicy):
            def pick(self, worker, time, running):
                action = super().pick(worker, time, running)
                if action is None and worker.kind is ResourceKind.GPU:
                    return Spoliate(Worker(ResourceKind.CPU, 1))  # idle CPU
                return action

        g = TaskGraph("ghost")
        # A (priority 1) goes to the GPU, B to CPU0; when A completes the
        # GPU cannot legitimately spoliate B (no improvement) and the
        # broken policy then names the *idle* CPU1 as victim.
        g.add_task(_t("A", p=1.0, q=0.5, priority=1.0))
        g.add_task(_t("B", p=1.0, q=0.5, priority=0.0))
        with pytest.raises(RuntimeError, match="invalid spoliation"):
            simulate(g, Platform(2, 1), GhostSpoliator())

    def test_unknown_action_type_rejected(self):
        class Weird(HeteroPrioPolicy):
            def pick(self, worker, time, running):
                return "not-an-action"

        g = _chain(1)
        with pytest.raises(TypeError, match="unknown action"):
            simulate(g, Platform(1, 1), Weird())


class TestMakePolicy:
    @pytest.mark.parametrize("name", PAPER_ALGORITHMS)
    def test_known_names(self, name):
        policy = make_policy(name)
        assert policy.name in name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_policy("random-avg")


class TestPrecedenceProperty:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        layers=st.integers(min_value=1, max_value=4),
        width=st.integers(min_value=1, max_value=5),
        cpus=st.integers(min_value=1, max_value=3),
        gpus=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_policies_respect_precedence(self, seed, layers, width, cpus, gpus):
        rng = np.random.default_rng(seed)
        g = layered_random_graph(layers, width, rng)
        platform = Platform(cpus, gpus)
        assign_priorities(g, platform, "min")
        for policy_cls in ALL_POLICIES:
            s = simulate(g, platform, policy_cls())
            assert_schedule_consistent(s)
            assert_precedence_respected(s, g)
