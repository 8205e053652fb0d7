"""Tests for the campaign's execution path (repro.campaign.backends).

The load-bearing property is bit-identity: the work-stealing fabric, at
every worker count, must produce byte-for-byte the metrics of the
inline serial reference path.  It additionally must keep batch groups
whole, steal deterministically, and tear its workers down on any
failure.
"""

from __future__ import annotations

import collections
import dataclasses

import pytest

from repro import io
from repro.campaign import InstanceSpec, executor, run_campaign
from repro.campaign.backends import WorkUnit, _steal, run_work_stealing
from repro.campaign.cache import encode_value
from repro.campaign.executor import (
    LOCKSTEP_MIN_ROWS,
    execute_spec,
    execute_spec_batch,
    execute_unit,
    plan_units,
)


def canon(metrics: dict) -> str:
    return io.canonical_dumps(encode_value(metrics))


def fig6_specs() -> list[InstanceSpec]:
    return [
        InstanceSpec(
            workload="cholesky", size=n, algorithm=name,
            mode="independent", bound="area",
        )
        for n in (4, 5)
        for name in ("heteroprio", "dualhp", "heft")
    ]


def fig7_specs() -> list[InstanceSpec]:
    return [
        InstanceSpec(workload="qr", size=n, algorithm=name)
        for n in (4, 5)
        for name in ("heteroprio-avg", "heteroprio-min", "heft-avg")
    ]


def seed_sweep(algorithm: str, rows: int) -> list[InstanceSpec]:
    """*rows* seeded independent ``layered`` specs: one batch key."""
    return [
        InstanceSpec(
            workload="layered", size=3, algorithm=algorithm,
            mode="independent", bound="area", seed=seed,
        )
        for seed in range(rows)
    ]


class TestPlanUnits:
    def test_batch_groups_become_single_units(self):
        specs = fig7_specs() + seed_sweep("heft", LOCKSTEP_MIN_ROWS) + fig6_specs()
        units, fallback_policy, fallback_small = plan_units(specs)
        batched = [u for u in units if u.batched]
        first = len(fig7_specs())
        assert [u.indices for u in batched] == [
            tuple(range(first, first + LOCKSTEP_MIN_ROWS))
        ]
        scalar = [u for u in units if not u.batched]
        assert all(len(u.indices) == 1 for u in scalar)
        assert sum(fallback_policy.values()) == len(fig7_specs())
        assert fallback_small == len(fig6_specs())
        # Every index appears exactly once across all units.
        seen = sorted(i for u in units for i in u.indices)
        assert seen == list(range(len(specs)))

    def test_small_groups_fall_back_with_a_count(self):
        # A serve-shaped batch: four seeds under each independent
        # algorithm, three groups far below the threshold.
        specs = [
            spec
            for algorithm in ("heteroprio", "dualhp", "heft")
            for spec in seed_sweep(algorithm, 4)
        ]
        units, fallback_policy, fallback_small = plan_units(specs)
        assert not any(u.batched for u in units)
        assert (fallback_policy, fallback_small) == ({}, 12)

    def test_policy_fallback_breaks_down_by_algorithm(self):
        # DAG specs never plan a batch unit: neither the four valid
        # rankings of one prefix on one graph (the largest group a DAG
        # batch key ever admitted) nor 40 copies of one DAG spec.  They
        # count against their algorithm name.
        quad = [
            InstanceSpec(workload="qr", size=4, algorithm=algorithm)
            for algorithm in (
                "heteroprio", "heteroprio-avg", "heteroprio-min",
                "heteroprio-fifo",
            )
        ]
        copies = [InstanceSpec(workload="cholesky", size=4, algorithm="dualhp-avg")] * 40
        for specs in (quad, copies):
            units, _, fallback_small = plan_units(specs)
            assert [(u.indices, u.batched) for u in units] == [
                ((i,), False) for i in range(len(specs))
            ]
            assert fallback_small == 0
        _, fallback_policy, _ = plan_units(quad + copies)
        assert fallback_policy == {
            "dualhp-avg": 40,
            "heteroprio": 1,
            "heteroprio-avg": 1,
            "heteroprio-fifo": 1,
            "heteroprio-min": 1,
        }

    def test_independent_groups_batch_from_the_threshold(self):
        for algorithm in ("heteroprio", "heft", "dualhp"):
            below = seed_sweep(algorithm, LOCKSTEP_MIN_ROWS - 1)
            units, fallback_policy, fallback_small = plan_units(below)
            assert not any(u.batched for u in units), algorithm
            assert (fallback_policy, fallback_small) == ({}, 31), algorithm
            full = seed_sweep(algorithm, LOCKSTEP_MIN_ROWS)
            units, fallback_policy, fallback_small = plan_units(full)
            assert [(u.indices, u.batched) for u in units] == [
                (tuple(range(LOCKSTEP_MIN_ROWS)), True)
            ], algorithm
            assert (fallback_policy, fallback_small) == ({}, 0), algorithm

    def test_platform_shapes_split_groups(self):
        # The platform is part of the batch key: two full sweeps on two
        # shapes are two units, each whole.
        paper = seed_sweep("heteroprio", LOCKSTEP_MIN_ROWS)
        small = [dataclasses.replace(s, num_cpus=4, num_gpus=2) for s in paper]
        units, _, fallback_small = plan_units(paper + small)
        assert [(u.indices, u.batched) for u in units] == [
            (tuple(range(LOCKSTEP_MIN_ROWS)), True),
            (tuple(range(LOCKSTEP_MIN_ROWS, 2 * LOCKSTEP_MIN_ROWS)), True),
        ]
        assert fallback_small == 0


class TestExecuteSpecBatch:
    @pytest.mark.parametrize("algorithm", ["heteroprio", "heft", "dualhp"])
    def test_payloads_match_execute_spec(self, algorithm):
        specs = seed_sweep(algorithm, 6)
        payloads = execute_spec_batch(specs)
        assert payloads is not None
        assert [canon(p) for p in payloads] == [
            canon(execute_spec(spec)) for spec in specs
        ]

    def test_algorithm_groups_build_each_graph_once(self):
        # A seed sweep runs every seed once per algorithm group, and a
        # group longer than the graph memo would rebuild every graph;
        # the duration memo keeps it to one build per seed.
        executor._random_workload.cache_clear()
        executor._durations.cache_clear()
        executor._area_bound.cache_clear()
        rows = 2 * executor._random_workload.cache_info().maxsize
        for algorithm in ("heteroprio", "heft", "dualhp"):
            assert execute_spec_batch(seed_sweep(algorithm, rows)) is not None
        assert executor._random_workload.cache_info().misses == rows

    def test_declines_groups_without_one_shared_key(self):
        assert execute_spec_batch([]) == []
        assert execute_spec_batch(fig7_specs()[:2]) is None
        mixed = seed_sweep("heft", 2) + seed_sweep("dualhp", 2)
        assert execute_spec_batch(mixed) is None

    def test_declined_batch_unit_runs_scalar(self):
        # A batch unit the engine declines (here: DAG specs) still
        # answers, through the scalar path, flagged as not batched.
        specs = fig7_specs()[:2]
        unit = WorkUnit(unit_id=0, indices=(0, 1), specs=tuple(specs), batched=True)
        result = execute_unit(unit)
        assert not result.batched
        assert [canon(p) for p in result.payloads] == [
            canon(execute_spec(spec)) for spec in specs
        ]


class TestStealPolicy:
    def test_own_head_first_then_longest_victim_tail(self):
        def unit(i):
            return WorkUnit(unit_id=i, indices=(i,), specs=(), batched=False)

        deques = [
            collections.deque([unit(0)]),
            collections.deque(),
            collections.deque([unit(1), unit(2), unit(3)]),
        ]
        got, stolen = _steal(deques, 0)
        assert (got.unit_id, stolen) == (0, False)  # own queue first
        got, stolen = _steal(deques, 1)
        assert (got.unit_id, stolen) == (3, True)  # victim 2's tail
        deques[0].append(unit(4))
        deques[2].clear()
        deques[2].append(unit(5))
        # Tie between deques 0 and 2 -> lowest id wins.
        got, stolen = _steal(deques, 1)
        assert (got.unit_id, stolen) == (4, True)
        deques[0].clear()
        deques[2].clear()
        assert _steal(deques, 1) == (None, False)


class TestWorkStealingFabric:
    @pytest.mark.parametrize("jobs", [1, 2, 8])
    def test_bit_identical_to_inline_execution(self, jobs):
        specs = fig7_specs()
        units, _, _ = plan_units(specs)
        reference = {u.unit_id: execute_unit(u) for u in units}
        results = list(run_work_stealing(units, jobs=jobs))
        assert sorted(r.unit_id for r in results) == sorted(reference)
        for result in results:
            ref = reference[result.unit_id]
            assert result.batched == ref.batched
            assert [canon(p) for p in result.payloads] == [
                canon(p) for p in ref.payloads
            ]

    def test_counters_report_steals(self):
        specs = fig7_specs()
        units, _, _ = plan_units(specs)
        counters: dict[str, int] = {}
        results = list(run_work_stealing(units, jobs=2, counters=counters))
        assert len(results) == len(units)
        assert counters["steals"] >= 0

    def test_worker_error_propagates_and_tears_down(self):
        bad = InstanceSpec(workload="svd", size=4, algorithm="heft-avg")
        units, _, _ = plan_units([bad] * 3)
        with pytest.raises(ValueError, match="workload"):
            list(run_work_stealing(units, jobs=2))

    def test_consumer_abandoning_the_iterator_kills_workers(self):
        specs = fig7_specs()
        units, _, _ = plan_units(specs)
        gen = run_work_stealing(units, jobs=2)
        first = next(gen)
        assert first.payloads
        gen.close()  # GeneratorExit must terminate the fabric cleanly


class TestRunCampaignBackends:
    @pytest.mark.parametrize("grid", [fig6_specs, fig7_specs])
    @pytest.mark.parametrize("jobs", [1, 2, 8])
    def test_work_stealing_bit_identical_to_serial(self, grid, jobs):
        specs = grid()
        reference = [canon(execute_spec(spec)) for spec in specs]
        outcome = run_campaign(specs, jobs=jobs)
        assert outcome.stats.backend == ("serial" if jobs == 1 else "work-stealing")
        assert [r.spec for r in outcome.records] == specs
        assert [canon(r.metrics) for r in outcome.records] == reference

    def test_stats_count_fallback_reasons(self):
        # DAG specs have no lockstep path; a full independent group
        # batches while a short one counts as small.
        specs = (
            fig7_specs()
            + seed_sweep("dualhp", LOCKSTEP_MIN_ROWS)
            + seed_sweep("heteroprio", 2)
        )
        outcome = run_campaign(specs, jobs=1)
        stats = outcome.stats
        assert stats.batched == LOCKSTEP_MIN_ROWS
        assert stats.fallback_policy == 6
        assert stats.fallback_by_algorithm == {
            "heft-avg": 2, "heteroprio-avg": 2, "heteroprio-min": 2,
        }
        assert stats.fallback_small == 2
        summary = stats.summary()
        assert f"{LOCKSTEP_MIN_ROWS} batched" in summary
        assert "6 dag-mode [heft-avg: 2" in summary
        assert "2 below-threshold" in summary
        assert "[serial]" in summary
        # The batched rows carry the scalar path's exact payloads.
        for record in outcome.records[len(fig7_specs()):][:LOCKSTEP_MIN_ROWS]:
            assert canon(record.metrics) == canon(execute_spec(record.spec))

    def test_paper_grids_run_scalar(self):
        # The fig6/fig7 grids' groups hold at most three rows, so nothing
        # on them reaches the lockstep engine.
        for grid in (fig6_specs, fig7_specs):
            stats = run_campaign(grid(), jobs=1).stats
            assert stats.batched == 0, grid.__name__
            assert stats.executed == len(grid()), grid.__name__
