"""Focused tests for the online DualHP policy internals."""

import pytest

from repro.core.platform import Platform, ResourceKind, Worker
from repro.core.task import Task
from repro.dag.graph import TaskGraph
from repro.schedulers.online import DualHPPolicy
from repro.schedulers.online.base import RunningView, StartTask
from repro.simulator import simulate

CPU0 = Worker(ResourceKind.CPU, 0)
GPU0 = Worker(ResourceKind.GPU, 0)


def _policy(platform: Platform) -> DualHPPolicy:
    policy = DualHPPolicy()
    policy.prepare(platform)
    return policy


def _t(name: str, p: float, q: float, priority: float = 0.0) -> Task:
    return Task(cpu_time=p, gpu_time=q, name=name, priority=priority)


def _home(policy: DualHPPolicy, task: Task) -> ResourceKind:
    """The class whose queue holds *task* after the last reassignment."""
    assert (task in policy._cpu_queue) != (task in policy._gpu_queue)
    return ResourceKind.CPU if task in policy._cpu_queue else ResourceKind.GPU


class TestPoolMechanics:
    def test_empty_pool_yields_nothing(self):
        policy = _policy(Platform(1, 1))
        assert policy.pick(CPU0, 0.0, {}) is None

    def test_forced_split_by_lambda_rules(self):
        policy = _policy(Platform(1, 1))
        cpu_task = _t("c", p=1.0, q=50.0)
        gpu_task = _t("g", p=50.0, q=1.0)
        policy.tasks_ready([cpu_task, gpu_task], 0.0)
        action = policy.pick(GPU0, 0.0, {})
        assert isinstance(action, StartTask) and action.task is gpu_task
        action = policy.pick(CPU0, 0.0, {})
        assert isinstance(action, StartTask) and action.task is cpu_task

    def test_worker_with_empty_class_pool_stays_idle(self):
        policy = _policy(Platform(1, 1))
        policy.tasks_ready([_t("g", p=50.0, q=1.0)], 0.0)
        # The single GPU-friendly task is assigned to the GPU class; the
        # CPU finds nothing and must idle (DualHP never spoliates).
        assert policy.pick(CPU0, 0.0, {}) is None
        assert isinstance(policy.pick(GPU0, 0.0, {}), StartTask)

    def test_priority_order_within_class(self):
        policy = _policy(Platform(0, 1))
        lo = _t("lo", p=9.0, q=1.0, priority=0.0)
        hi = _t("hi", p=9.0, q=1.0, priority=5.0)
        policy.tasks_ready([hi, lo], 0.0)
        first = policy.pick(GPU0, 0.0, {})
        assert first.task is hi

    def test_fifo_order_on_equal_priorities(self):
        policy = _policy(Platform(0, 1))
        first_in = _t("first", p=9.0, q=1.0)
        second_in = _t("second", p=9.0, q=1.0)
        policy.tasks_ready([first_in], 0.0)
        policy.tasks_ready([second_in], 1.0)
        assert policy.pick(GPU0, 1.0, {}).task is first_in

    def test_running_work_counts_as_initial_load(self):
        # A long task already running on the GPU pushes a borderline task
        # to the CPU class.
        policy = _policy(Platform(1, 1))
        running_task = _t("busy", p=100.0, q=10.0)
        running = {
            GPU0: RunningView(task=running_task, worker=GPU0, start=0.0, end=10.0)
        }
        borderline = _t("edge", p=1.5, q=1.0)
        policy.tasks_ready([borderline], 0.0)
        action = policy.pick(CPU0, 0.0, running)
        assert isinstance(action, StartTask) and action.task is borderline

    def test_reassignment_can_move_unstarted_tasks(self):
        # First alone, a middling task goes to the GPU; once a flood of
        # strongly accelerated work arrives, the recomputed assignment
        # sends it to the CPU instead.
        policy = _policy(Platform(1, 1))
        middling = _t("mid", p=2.0, q=1.5)
        policy.tasks_ready([middling], 0.0)
        policy._reassign(0.0, {})
        assert _home(policy, middling) is ResourceKind.GPU
        flood = [_t(f"f{i}", p=30.0, q=1.0) for i in range(8)]
        policy.tasks_ready(flood, 0.0)
        policy._reassign(0.0, {})
        assert _home(policy, middling) is ResourceKind.CPU


class TestEndToEnd:
    def test_all_tasks_run_once(self):
        g = TaskGraph("mix")
        for i in range(12):
            g.add_task(_t(f"m{i}", p=1.0 + i, q=1.0))
        platform = Platform(3, 2)
        s = simulate(g, platform, DualHPPolicy())
        s.validate()
        assert len(s.completed_placements()) == 12

    def test_no_spoliation_ever_occurs(self):
        g = TaskGraph("nospol")
        for i in range(10):
            g.add_task(_t(f"m{i}", p=100.0, q=1.0))
        s = simulate(g, Platform(4, 1), DualHPPolicy())
        assert not s.aborted_placements()
