"""Tests for the theory layer: constants, worst cases, verification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.area import area_bound
from repro.core.heteroprio import heteroprio_schedule
from repro.core.platform import Platform
from repro.core.task import Instance
from repro.schedulers.exact import optimal_makespan
from repro.simulator.batch import batch_heteroprio_schedule
from repro.theory.constants import (
    PHI,
    RATIO_1CPU_1GPU,
    RATIO_GENERAL,
    RATIO_GENERAL_WORST_EXAMPLE,
    RATIO_MCPU_1GPU,
    approximation_ratio,
)
from repro.theory.verification import (
    RTOL,
    check_approximation_bound,
    check_first_idle_bound,
    check_lemma3_corollaries,
    check_lemma3_feasibility,
    check_spoliation_structure,
    lemma3_gap,
    remaining_instance,
)
from repro.theory.worst_cases import (
    figure4_optimal_assignment,
    figure4_t2_tasks,
    figure4_worst_order,
    list_schedule_homogeneous,
    theorem8_instance,
    theorem11_instance,
    theorem14_instance,
    theorem14_r,
)

from conftest import instances, platforms, tasks


class TestConstants:
    def test_phi_satisfies_golden_equation(self):
        assert PHI * PHI == pytest.approx(PHI + 1.0)

    def test_ratio_values(self):
        assert RATIO_1CPU_1GPU == pytest.approx(1.6180339887, rel=1e-9)
        assert RATIO_MCPU_1GPU == pytest.approx(2.6180339887, rel=1e-9)
        assert RATIO_GENERAL == pytest.approx(3.4142135624, rel=1e-9)
        assert RATIO_GENERAL_WORST_EXAMPLE == pytest.approx(3.1547005384, rel=1e-9)

    def test_ratio_dispatch(self):
        assert approximation_ratio(Platform(1, 1)) == RATIO_1CPU_1GPU
        assert approximation_ratio(Platform(5, 1)) == RATIO_MCPU_1GPU
        assert approximation_ratio(Platform(1, 5)) == RATIO_MCPU_1GPU  # symmetric
        assert approximation_ratio(Platform(5, 5)) == RATIO_GENERAL

    def test_ratio_single_class_is_graham(self):
        assert approximation_ratio(Platform(4, 0)) == pytest.approx(2 - 0.25)
        assert approximation_ratio(Platform(0, 2)) == pytest.approx(1.5)


class TestTheorem8:
    def test_heteroprio_reaches_phi(self):
        wc = theorem8_instance()
        result = heteroprio_schedule(wc.instance, wc.platform)
        assert result.makespan == pytest.approx(PHI)
        assert wc.ratio == pytest.approx(PHI)

    def test_construction_values(self):
        wc = theorem8_instance()
        x, y = wc.instance
        assert x.acceleration == pytest.approx(PHI)
        assert y.acceleration == pytest.approx(PHI)
        # rho_Y is nudged strictly above rho_X so the GPU picks Y first.
        assert y.acceleration > x.acceleration
        assert wc.optimal_upper == pytest.approx(1.0)

    def test_optimal_is_actually_one(self):
        from repro.schedulers.exact import optimal_makespan

        wc = theorem8_instance()
        assert optimal_makespan(wc.instance, wc.platform) == pytest.approx(1.0)


class TestTheorem11:
    @pytest.mark.parametrize("m", [2, 5, 20])
    def test_heteroprio_reaches_predicted_makespan(self, m):
        wc = theorem11_instance(m, granularity=4)
        result = heteroprio_schedule(wc.instance, wc.platform, compute_ns=False)
        assert result.makespan == pytest.approx(wc.heteroprio_expected)

    def test_ratio_increases_with_m(self):
        ratios = []
        for m in (2, 8, 32):
            wc = theorem11_instance(m, granularity=16)
            result = heteroprio_schedule(wc.instance, wc.platform, compute_ns=False)
            ratios.append(result.makespan / wc.optimal_upper)
        assert ratios == sorted(ratios)

    def test_ratio_approaches_limit(self):
        wc = theorem11_instance(200, granularity=128)
        result = heteroprio_schedule(wc.instance, wc.platform, compute_ns=False)
        assert result.makespan / wc.optimal_upper > 2.5  # limit 2.618

    def test_never_exceeds_proved_bound(self):
        wc = theorem11_instance(50, granularity=32)
        result = heteroprio_schedule(wc.instance, wc.platform, compute_ns=False)
        assert result.makespan / wc.optimal_upper <= RATIO_MCPU_1GPU + 1e-9

    def test_rejects_tiny_m(self):
        with pytest.raises(ValueError):
            theorem11_instance(1)


class TestFigure4:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_t2_total_work_is_n_squared(self, k):
        durations = figure4_t2_tasks(k)
        assert sum(durations) == pytest.approx((6 * k) ** 2)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_optimal_assignment_is_perfect(self, k):
        machines = figure4_optimal_assignment(k)
        assert len(machines) == 6 * k
        assert max(sum(m) for m in machines) == pytest.approx(6.0 * k)
        flat = sorted(d for m in machines for d in m)
        assert flat == sorted(figure4_t2_tasks(k))

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_worst_list_order_reaches_2n_minus_1(self, k):
        makespan = list_schedule_homogeneous(figure4_worst_order(k), 6 * k)
        assert makespan == pytest.approx(12.0 * k - 1.0)

    def test_worst_order_is_a_permutation_of_t2(self):
        assert sorted(figure4_worst_order(3)) == sorted(figure4_t2_tasks(3))

    def test_list_schedule_helper(self):
        assert list_schedule_homogeneous([3.0, 3.0, 3.0], 3) == 3.0
        assert list_schedule_homogeneous([1.0, 1.0, 4.0], 2) == 5.0

    def test_list_schedule_rejects_no_machines(self):
        with pytest.raises(ValueError):
            list_schedule_homogeneous([1.0], 0)

    def test_smallest_task_is_opt_over_three(self):
        k = 4
        assert min(figure4_t2_tasks(k)) == pytest.approx(6 * k / 3)


class TestTheorem14:
    def test_r_solves_equation(self):
        for n in (6, 12, 60):
            r = theorem14_r(n)
            assert n / r + 2 * n - 1 == pytest.approx(n * r / 3)
            assert r > 3

    def test_r_tends_to_3_plus_2_sqrt3(self):
        assert theorem14_r(6000) == pytest.approx(3 + 2 * math.sqrt(3), rel=1e-3)

    # k = 3 is a regression case: with exact acceleration ties, floating
    # point rounding used to flip the queue order between T1 and the
    # g = 2k tasks of T2 (fixed by the RHO_MARGIN strictification).
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_heteroprio_reaches_predicted_makespan(self, k):
        wc = theorem14_instance(k)
        result = heteroprio_schedule(wc.instance, wc.platform, compute_ns=False)
        assert result.makespan == pytest.approx(wc.heteroprio_expected, rel=1e-9)
        # The full adversarial spoliation wave happened: every T2 task
        # except the length-6k one migrates to a GPU.
        assert len(result.spoliations) == 12 * k

    def test_ratio_increases_with_k(self):
        ratios = []
        for k in (1, 2, 3):
            wc = theorem14_instance(k)
            result = heteroprio_schedule(wc.instance, wc.platform, compute_ns=False)
            ratios.append(result.makespan / wc.optimal_upper)
        assert ratios == sorted(ratios)
        assert ratios[-1] > 1.9

    def test_never_exceeds_general_bound(self):
        wc = theorem14_instance(2)
        result = heteroprio_schedule(wc.instance, wc.platform, compute_ns=False)
        assert result.makespan / wc.optimal_upper <= RATIO_GENERAL + 1e-9

    def test_spoliations_follow_figure4_order(self):
        wc = theorem14_instance(1)
        result = heteroprio_schedule(wc.instance, wc.platform, compute_ns=False)
        spoliated_gpu_times = [e.task.gpu_time for e in result.spoliations]
        # First grabs are the six tasks of length 2k (k=1 -> 2.0).
        assert spoliated_gpu_times[:6] == [2.0] * 6

    def test_rejects_zero_k(self):
        with pytest.raises(ValueError):
            theorem14_instance(0)


class TestVerificationHelpers:
    @given(inst=instances(max_tasks=10), platform=platforms())
    @settings(max_examples=50, deadline=None)
    def test_first_idle_bound_always_holds(self, inst, platform):
        assert check_first_idle_bound(inst, platform)

    @given(inst=instances(max_tasks=10), platform=platforms())
    @settings(max_examples=50, deadline=None)
    def test_spoliation_structure_always_holds(self, inst, platform):
        result = heteroprio_schedule(inst, platform)
        assert check_spoliation_structure(result)

    @given(inst=instances(max_tasks=8), platform=platforms(max_cpus=2, max_gpus=2))
    @settings(max_examples=40, deadline=None)
    def test_approximation_bound_general(self, inst, platform):
        """Theorems 7/9/12 on random instances against the exact optimum."""
        report = check_approximation_bound(inst, platform)
        assert report.holds, str(report)

    @given(inst=instances(max_tasks=9))
    @settings(max_examples=40, deadline=None)
    def test_approximation_bound_1cpu_1gpu(self, inst):
        report = check_approximation_bound(inst, Platform(1, 1))
        assert report.ratio <= RATIO_1CPU_1GPU * (1 + 1e-9), str(report)

    @given(inst=instances(max_tasks=8))
    @settings(max_examples=30, deadline=None)
    def test_approximation_bound_mcpu_1gpu(self, inst):
        report = check_approximation_bound(inst, Platform(3, 1))
        assert report.ratio <= RATIO_MCPU_1GPU * (1 + 1e-9), str(report)

    @given(inst=instances(min_tasks=2, max_tasks=10), platform=platforms())
    @settings(max_examples=40, deadline=None)
    def test_lemma3_feasibility_direction(self, inst, platform):
        """t + AreaBound(I'(t)) >= AreaBound(I): always (LP feasibility)."""
        assert check_lemma3_feasibility(inst, platform)

    @given(inst=instances(min_tasks=2, max_tasks=8),
           platform=platforms(max_cpus=2, max_gpus=2))
    @settings(max_examples=30, deadline=None)
    def test_lemma3_corollaries(self, inst, platform):
        """The consequences the theorems use hold against the optimum."""
        assert check_lemma3_corollaries(inst, platform)

    def test_lemma3_equality_counterexample(self):
        """Reproduction finding: Lemma 3's *equality* can fail.

        On this (2 CPU, 1 GPU) instance, a valid HeteroPrio execution
        puts the middle-acceleration task fully on a CPU while the area
        bound would run 91% of it on the GPU; the conservation identity
        t + AreaBound(I'(t)) = AreaBound(I) is then violated by ~0.7%
        at T_FirstIdle (and larger gaps exist).  The corollaries the
        approximation proofs rely on still hold here.
        """
        from repro.core.task import Instance

        inst = Instance.from_times(
            [32.99628429, 94.36833975, 19.93784108],
            [51.22224405, 2.41107994, 16.34517543],
        )
        platform = Platform(num_cpus=2, num_gpus=1)
        gap = lemma3_gap(inst, platform)
        assert gap > 0.005  # equality clearly violated...
        assert check_lemma3_feasibility(inst, platform)  # ...one-sidedly
        assert check_lemma3_corollaries(inst, platform)  # corollaries hold

    def test_remaining_instance_at_zero_is_whole_instance(self):
        from repro.core.task import Instance, Task

        inst = Instance([Task(2.0, 3.0), Task(1.0, 4.0)])
        platform = Platform(1, 1)
        result = heteroprio_schedule(inst, platform)
        rest = remaining_instance(result, inst, 0.0)
        assert rest.total_cpu_work() == pytest.approx(inst.total_cpu_work())
        assert rest.total_gpu_work() == pytest.approx(inst.total_gpu_work())

    def test_remaining_instance_shrinks_over_time(self):
        from repro.core.task import Instance, Task

        inst = Instance([Task(2.0, 3.0), Task(1.0, 4.0), Task(5.0, 1.0)])
        platform = Platform(1, 1)
        result = heteroprio_schedule(inst, platform)
        t_mid = result.t_first_idle / 2.0
        rest = remaining_instance(result, inst, t_mid)
        assert rest.total_cpu_work() < inst.total_cpu_work()

    def test_large_instance_requires_explicit_optimal(self):
        import numpy as np

        from repro.core.task import Instance

        inst = Instance.uniform_random(50, np.random.default_rng(0))
        with pytest.raises(ValueError, match="too large"):
            check_approximation_bound(inst, Platform(1, 1))

    def test_report_rendering(self):
        wc = theorem8_instance()
        report = check_approximation_bound(
            wc.instance, wc.platform, optimal=wc.optimal_upper
        )
        assert "ratio=1.618" in str(report)
        assert report.holds


@st.composite
def lockstep_batches(draw, platform_strategy, max_tasks, max_rows=4):
    """``(rows, platforms)``: up to *max_rows* instances of one task count."""
    n = draw(st.integers(min_value=1, max_value=max_tasks))
    n_rows = draw(st.integers(min_value=1, max_value=max_rows))
    rows = [[draw(tasks()) for _ in range(n)] for _ in range(n_rows)]
    return rows, [draw(platform_strategy) for _ in rows]


def _run_lockstep(rows, row_platforms):
    cpu = np.array([[t.cpu_time for t in row] for row in rows])
    gpu = np.array([[t.gpu_time for t in row] for row in rows])
    return batch_heteroprio_schedule(cpu, gpu, row_platforms)


class TestLockstepRows:
    """The theorem checks above, on rows of the lockstep engine."""

    @given(batch=lockstep_batches(platforms(), max_tasks=10))
    @settings(max_examples=50, deadline=None)
    def test_first_idle_within_area_bound(self, batch):
        rows, row_platforms = batch
        result = _run_lockstep(rows, row_platforms)
        for b, (row, platform) in enumerate(zip(rows, row_platforms)):
            bound = area_bound(Instance(row), platform).value
            assert result.t_first_idle[b] <= bound * (1.0 + RTOL) + 1e-12

    # Rows mix Theorem 7 (1 CPU, 1 GPU), Theorem 9 (m CPUs, 1 GPU) and
    # Theorem 12 (general) platforms in one batch.
    @given(batch=lockstep_batches(
        st.sampled_from([Platform(1, 1), Platform(3, 1), Platform(1, 3),
                         Platform(2, 1), Platform(2, 2)]),
        max_tasks=8, max_rows=3,
    ))
    @settings(max_examples=30, deadline=None)
    def test_within_proved_ratio_of_optimum(self, batch):
        rows, row_platforms = batch
        result = _run_lockstep(rows, row_platforms)
        for b, (row, platform) in enumerate(zip(rows, row_platforms)):
            makespan = float(result.makespans[b])
            optimal = optimal_makespan(Instance(row), platform, upper_bound=makespan)
            bound = approximation_ratio(platform)
            assert makespan <= bound * optimal * (1.0 + RTOL), (platform, makespan, optimal)
