"""Tests for the HeteroPrio algorithm on independent tasks (Algorithm 1)."""

import pytest
from hypothesis import given, settings

from repro.bounds.area import area_bound
from repro.core.heteroprio import heteroprio_schedule, sorted_queue
from repro.core.platform import Platform, ResourceKind
from repro.core.task import Instance, Task
from repro.theory.constants import PHI

from conftest import assert_schedule_consistent, instances, platforms


class TestQueueOrder:
    def test_sorted_by_acceleration_ascending(self):
        inst = Instance.from_times([4.0, 1.0, 2.0], [1.0, 1.0, 1.0])
        queue = sorted_queue(inst)
        rhos = [t.acceleration for t in queue]
        assert rhos == sorted(rhos)

    def test_gpu_end_prefers_high_priority_on_ties(self):
        lo = Task(2.0, 1.0, name="lo", priority=0.0)
        hi = Task(2.0, 1.0, name="hi", priority=1.0)
        queue = sorted_queue(Instance([lo, hi]))
        assert queue[-1].name == "hi"  # GPU pops from the back

    def test_cpu_end_prefers_high_priority_on_ties_below_one(self):
        lo = Task(1.0, 2.0, name="lo", priority=0.0)
        hi = Task(1.0, 2.0, name="hi", priority=1.0)
        queue = sorted_queue(Instance([lo, hi]))
        assert queue[0].name == "hi"  # CPU pops from the front


class TestBasicBehaviour:
    def test_empty_instance(self, small_platform):
        result = heteroprio_schedule(Instance([]), small_platform)
        assert result.makespan == 0.0
        assert result.t_first_idle == 0.0
        assert result.spoliations == []

    def test_single_gpu_friendly_task_goes_to_gpu(self):
        platform = Platform(num_cpus=1, num_gpus=1)
        t = Task(cpu_time=10.0, gpu_time=1.0)
        result = heteroprio_schedule(Instance([t]), platform)
        placement = result.schedule.placement_of(t)
        assert placement.worker.kind is ResourceKind.GPU
        assert result.makespan == 1.0

    def test_gpu_takes_high_acceleration_cpu_takes_low(self):
        platform = Platform(num_cpus=1, num_gpus=1)
        gpu_ish = Task(cpu_time=10.0, gpu_time=1.0, name="g")   # rho = 10
        cpu_ish = Task(cpu_time=1.0, gpu_time=10.0, name="c")   # rho = 0.1
        result = heteroprio_schedule(Instance([gpu_ish, cpu_ish]), platform)
        assert result.schedule.placement_of(gpu_ish).worker.kind is ResourceKind.GPU
        assert result.schedule.placement_of(cpu_ish).worker.kind is ResourceKind.CPU
        assert result.makespan == 1.0

    def test_all_tasks_complete_exactly_once(self, rng, small_platform):
        inst = Instance.uniform_random(40, rng)
        result = heteroprio_schedule(inst, small_platform)
        result.schedule.validate(inst)
        assert len(result.schedule.completed_placements()) == 40

    def test_deterministic(self, rng, small_platform):
        inst = Instance.uniform_random(25, rng)
        r1 = heteroprio_schedule(inst, small_platform)
        r2 = heteroprio_schedule(inst, small_platform)
        assert r1.makespan == r2.makespan
        assert [
            (p.task.uid, str(p.worker), p.start) for p in r1.schedule.placements
        ] == [(p.task.uid, str(p.worker), p.start) for p in r2.schedule.placements]

    def test_single_class_platform_is_plain_list_schedule(self):
        platform = Platform(num_cpus=3, num_gpus=0)
        inst = Instance.from_times([3.0, 2.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0])
        result = heteroprio_schedule(inst, platform)
        result.schedule.validate(inst)
        assert result.spoliations == []

    def test_more_workers_than_tasks_first_idle_zero(self):
        platform = Platform(num_cpus=3, num_gpus=3)
        inst = Instance.from_times([1.0], [1.0])
        result = heteroprio_schedule(inst, platform)
        assert result.t_first_idle == 0.0


class TestSpoliation:
    def test_spoliation_rescues_marooned_task(self):
        platform = Platform(num_cpus=1, num_gpus=1)
        # Two equally GPU-friendly tasks: CPU grabs one, the GPU finishes
        # its own and spoliates the CPU's task.
        a = Task(cpu_time=100.0, gpu_time=1.0, name="a", priority=1.0)
        b = Task(cpu_time=100.0, gpu_time=1.0, name="b", priority=0.0)
        result = heteroprio_schedule(Instance([a, b]), platform)
        assert len(result.spoliations) == 1
        event = result.spoliations[0]
        assert event.task is b
        assert event.new_completion < event.old_completion
        assert result.makespan == pytest.approx(2.0)

    def test_no_spoliation_when_disabled(self):
        platform = Platform(num_cpus=1, num_gpus=1)
        a = Task(cpu_time=100.0, gpu_time=1.0, priority=1.0)
        b = Task(cpu_time=100.0, gpu_time=1.0, priority=0.0)
        result = heteroprio_schedule(Instance([a, b]), platform, spoliation=False)
        assert result.spoliations == []
        assert result.makespan == pytest.approx(100.0)

    def test_spoliation_not_taken_when_no_improvement(self):
        # Theorem 8 situation: restarting would finish at the same time.
        platform = Platform(num_cpus=1, num_gpus=1)
        x = Task(cpu_time=PHI, gpu_time=1.0, name="X", priority=0.0)
        y = Task(cpu_time=1.0, gpu_time=1.0 / PHI, name="Y", priority=1.0)
        result = heteroprio_schedule(Instance([x, y]), platform)
        assert result.spoliations == []
        assert result.makespan == pytest.approx(PHI)

    def test_aborted_work_recorded(self):
        platform = Platform(num_cpus=1, num_gpus=1)
        a = Task(cpu_time=100.0, gpu_time=1.0, priority=1.0)
        b = Task(cpu_time=100.0, gpu_time=1.0, priority=0.0)
        result = heteroprio_schedule(Instance([a, b]), platform)
        aborted = result.schedule.aborted_placements()
        assert len(aborted) == 1
        assert aborted[0].worker.kind is ResourceKind.CPU
        assert aborted[0].duration == pytest.approx(1.0)  # aborted at t=1

    def test_spoliated_schedule_validates(self):
        platform = Platform(num_cpus=2, num_gpus=1)
        inst = Instance.from_times(
            [50.0, 50.0, 50.0, 1.0], [1.0, 1.0, 1.0, 10.0]
        )
        result = heteroprio_schedule(inst, platform)
        result.schedule.validate(inst)

    def test_victim_order_decreasing_completion(self):
        # Two CPUs hold tasks ending at different times; the GPU must
        # spoliate the later-ending one first (Algorithm 1, line 11).
        platform = Platform(num_cpus=2, num_gpus=1)
        late = Task(cpu_time=30.0, gpu_time=3.0, name="late", priority=0.0)
        early = Task(cpu_time=20.0, gpu_time=3.0, name="early", priority=0.0)
        small = Task(cpu_time=40.0, gpu_time=1.0, name="small", priority=1.0)
        result = heteroprio_schedule(Instance([late, early, small]), platform)
        assert result.spoliations
        assert result.spoliations[0].task.name == "late"


class TestMigrationModes:
    def test_preemption_keeps_progress(self):
        platform = Platform(num_cpus=1, num_gpus=1)
        a = Task(cpu_time=100.0, gpu_time=1.0, priority=1.0)
        b = Task(cpu_time=100.0, gpu_time=1.0, priority=0.0)
        inst = Instance([a, b])
        spol = heteroprio_schedule(inst, platform, compute_ns=False)
        preempt = heteroprio_schedule(
            inst, platform, migration="preemption", compute_ns=False
        )
        preempt.schedule.validate(inst)
        # Spoliation restarts b from scratch (finish 2.0); preemption
        # keeps the 1% progress made on the CPU (finish 1.99).
        assert spol.makespan == pytest.approx(2.0)
        assert preempt.makespan == pytest.approx(1.99)

    def test_none_mode_equals_spoliation_false(self):
        platform = Platform(num_cpus=1, num_gpus=1)
        inst = Instance.from_times([50.0, 50.0], [1.0, 1.0])
        off = heteroprio_schedule(inst, platform, spoliation=False)
        none = heteroprio_schedule(inst, platform, migration="none")
        assert off.makespan == none.makespan

    def test_unknown_mode_rejected(self):
        inst = Instance.from_times([1.0], [1.0])
        with pytest.raises(ValueError, match="migration"):
            heteroprio_schedule(inst, Platform(1, 1), migration="teleport")

    @given(inst=instances(max_tasks=12), platform=platforms())
    @settings(max_examples=50, deadline=None)
    def test_preemption_schedule_valid_and_no_worse_than_list(self, inst, platform):
        result = heteroprio_schedule(inst, platform, migration="preemption")
        result.schedule.validate(inst)
        assert result.makespan <= result.ns_schedule.makespan + 1e-9

    @given(inst=instances(max_tasks=12), platform=platforms())
    @settings(max_examples=50, deadline=None)
    def test_preemption_at_least_area_bound(self, inst, platform):
        result = heteroprio_schedule(
            inst, platform, migration="preemption", compute_ns=False
        )
        assert result.makespan >= area_bound(inst, platform).value - 1e-9


class TestFirstIdle:
    def test_first_idle_when_queue_exhausted(self):
        platform = Platform(num_cpus=1, num_gpus=1)
        inst = Instance.from_times([2.0, 2.0], [1.0, 4.0])
        result = heteroprio_schedule(inst, platform)
        # GPU takes rho=2 task (1s), CPU takes rho=0.5 task (2s): GPU
        # idles at t=1.
        assert result.t_first_idle == pytest.approx(1.0)

    @given(inst=instances(max_tasks=10), platform=platforms())
    @settings(max_examples=60, deadline=None)
    def test_first_idle_at_most_area_bound(self, inst, platform):
        """Lemma 3 corollary (ii): T_FirstIdle <= AreaBound(I)."""
        result = heteroprio_schedule(inst, platform, compute_ns=False)
        bound = area_bound(inst, platform).value
        assert result.t_first_idle <= bound + 1e-9


class TestHypothesisInvariants:
    @given(inst=instances(max_tasks=14), platform=platforms())
    @settings(max_examples=80, deadline=None)
    def test_schedule_always_valid(self, inst, platform):
        result = heteroprio_schedule(inst, platform)
        assert_schedule_consistent(result.schedule, inst)
        assert_schedule_consistent(result.ns_schedule, inst)

    @given(inst=instances(max_tasks=14), platform=platforms())
    @settings(max_examples=80, deadline=None)
    def test_spoliation_never_hurts(self, inst, platform):
        result = heteroprio_schedule(inst, platform)
        assert result.makespan <= result.ns_schedule.makespan + 1e-9

    @given(inst=instances(max_tasks=12), platform=platforms())
    @settings(max_examples=60, deadline=None)
    def test_no_task_spoliated_twice(self, inst, platform):
        result = heteroprio_schedule(inst, platform)
        uids = [e.task.uid for e in result.spoliations]
        assert len(uids) == len(set(uids))

    @given(inst=instances(max_tasks=12), platform=platforms())
    @settings(max_examples=60, deadline=None)
    def test_makespan_at_least_area_bound(self, inst, platform):
        result = heteroprio_schedule(inst, platform, compute_ns=False)
        assert result.makespan >= area_bound(inst, platform).value - 1e-9

