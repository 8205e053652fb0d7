"""Tests for the pluggable campaign backends (repro.campaign.backends).

The load-bearing property is bit-identity: every backend, at every
worker count, must produce byte-for-byte the metrics of the serial
reference path.  The work-stealing fabric additionally must keep batch
groups whole, steal deterministically, and tear its workers down on any
failure.
"""

from __future__ import annotations

import collections

import pytest

from repro import io
from repro.campaign import InstanceSpec, run_campaign
from repro.campaign.backends import (
    BACKEND_NAMES,
    WorkUnit,
    _steal,
    resolve_backend,
    run_work_stealing,
)
from repro.campaign.cache import encode_value
from repro.campaign.executor import (
    DUALHP_CROSSOVER,
    MIN_BATCH,
    execute_unit,
    plan_batches,
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


class TestResolveBackend:
    def test_auto_keeps_the_historical_mapping(self):
        assert resolve_backend(None, 1) == "serial"
        assert resolve_backend("auto", 1) == "serial"
        assert resolve_backend(None, 4) == "mp-pool"
        assert resolve_backend("auto", 8) == "mp-pool"

    def test_explicit_names_pass_through(self):
        for name in ("serial", "mp-pool", "work-stealing"):
            assert resolve_backend(name, 1) == name
            assert resolve_backend(name, 8) == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("threads", 2)
        assert "auto" in BACKEND_NAMES


class TestPlanUnits:
    def test_batch_groups_become_single_units(self):
        # The dag batch key includes the size and the algorithm prefix,
        # so the heteroprio rows pair up per size (mixed ranking schemes
        # share one kernel) while each heft-avg row is a group of one.
        specs = fig7_specs()
        units, fallback_policy, fallback_small = plan_units(specs, min_batch=2)
        batch_units = [u for u in units if u.batched]
        assert len(batch_units) == 2
        assert all(len(u.indices) == 2 for u in batch_units)
        assert fallback_policy == {}  # every paper policy has a kernel now
        assert fallback_small == 2  # the two singleton heft-avg groups
        scalar = [u for u in units if not u.batched]
        assert all(len(u.indices) == 1 for u in scalar)
        # Every index appears exactly once across all units.
        seen = sorted(i for u in units for i in u.indices)
        assert seen == list(range(len(specs)))

    def test_small_groups_fall_back_with_a_count(self):
        # At the default MIN_BATCH the per-size groups are too small.
        specs = fig7_specs()
        assert MIN_BATCH > 2
        units, fallback_policy, fallback_small = plan_units(specs)
        assert all(not u.batched for u in units)
        assert fallback_small == 6
        assert fallback_policy == {}

    def test_policy_fallback_breaks_down_by_algorithm(self):
        # Bucketed HeteroPrio has no batch kernel; its rows are counted
        # against their algorithm name, not a bare total.
        specs = fig7_specs() + [
            InstanceSpec(workload="qr", size=n, algorithm="buckets-avg")
            for n in (4, 5)
        ]
        units, fallback_policy, fallback_small = plan_units(specs, min_batch=2)
        assert fallback_policy == {"buckets-avg": 2}
        assert fallback_small == 2
        seen = sorted(i for u in units for i in u.indices)
        assert seen == list(range(len(specs)))

    def test_independent_dualhp_batches_only_from_the_crossover(self):
        def sweep(algorithm: str, rows: int) -> list[InstanceSpec]:
            return [
                InstanceSpec(
                    workload="layered", size=3, algorithm=algorithm,
                    mode="independent", bound="area", seed=seed,
                )
                for seed in range(rows)
            ]

        # A serve-sized group of four seeds takes the scalar search.
        small = sweep("dualhp", 4)
        units, fallback_policy, fallback_small = plan_units(small)
        assert not any(u.batched for u in units)
        assert (fallback_policy, fallback_small) == ({}, 4)
        assert plan_batches(small) == []
        # A crossover-sized group is one batch unit.
        full = sweep("dualhp", DUALHP_CROSSOVER)
        units, _, fallback_small = plan_units(full)
        assert [(u.indices, u.batched) for u in units] == [
            (tuple(range(DUALHP_CROSSOVER)), True)
        ]
        assert fallback_small == 0
        assert plan_batches(full) == [list(range(DUALHP_CROSSOVER))]
        # The caller's min_batch still applies on top of the crossover.
        units, _, fallback_small = plan_units(full, min_batch=DUALHP_CROSSOVER + 1)
        assert not any(u.batched for u in units)
        assert fallback_small == DUALHP_CROSSOVER
        # HeteroPrio and HEFT groups keep batching from MIN_BATCH rows.
        for algorithm in ("heteroprio", "heft"):
            group = sweep(algorithm, MIN_BATCH)
            units, _, fallback_small = plan_units(group)
            assert [(u.indices, u.batched) for u in units] == [
                (tuple(range(MIN_BATCH)), True)
            ], algorithm
            assert fallback_small == 0
            assert plan_batches(group) == [list(range(MIN_BATCH))]
        # DAG-mode DualHP rows sharing one graph are not affected.
        dag = [
            InstanceSpec(workload="qr", size=4, algorithm=f"dualhp-{scheme}")
            for scheme in ("avg", "min", "fifo")
        ]
        units, _, fallback_small = plan_units(dag, min_batch=2)
        assert [(u.indices, u.batched) for u in units] == [((0, 1, 2), True)]

    def test_batch_off_counts_nothing(self):
        units, fallback_policy, fallback_small = plan_units(
            fig7_specs(), batch=False
        )
        assert all(not u.batched for u in units)
        assert fallback_policy == {}
        assert fallback_small == 0


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
        units, _, _ = plan_units(specs, batch=False)
        counters: dict[str, int] = {}
        results = list(run_work_stealing(units, jobs=2, counters=counters))
        assert len(results) == len(units)
        assert counters["steals"] >= 0

    def test_worker_error_propagates_and_tears_down(self):
        bad = InstanceSpec(workload="svd", size=4, algorithm="heft-avg")
        units, _, _ = plan_units([bad] * 3, batch=False)
        with pytest.raises(ValueError, match="workload"):
            list(run_work_stealing(units, jobs=2))

    def test_consumer_abandoning_the_iterator_kills_workers(self):
        specs = fig7_specs()
        units, _, _ = plan_units(specs, batch=False)
        gen = run_work_stealing(units, jobs=2)
        first = next(gen)
        assert first.payloads
        gen.close()  # GeneratorExit must terminate the fabric cleanly


class TestRunCampaignBackends:
    @pytest.mark.parametrize("grid", [fig6_specs, fig7_specs])
    @pytest.mark.parametrize("jobs", [1, 2, 8])
    def test_work_stealing_bit_identical_to_serial(self, grid, jobs):
        specs = grid()
        serial = run_campaign(specs, jobs=1, backend="serial")
        ws = run_campaign(specs, jobs=jobs, backend="work-stealing")
        assert ws.stats.backend == "work-stealing"
        assert serial.stats.backend == "serial"
        for a, b in zip(serial.records, ws.records):
            assert a.spec == b.spec
            assert canon(a.metrics) == canon(b.metrics)

    def test_mp_pool_backend_matches_serial(self):
        specs = fig7_specs()
        serial = run_campaign(specs, jobs=1, backend="serial")
        pool = run_campaign(specs, jobs=2, backend="mp-pool")
        assert pool.stats.backend == "mp-pool"
        for a, b in zip(serial.records, pool.records):
            assert canon(a.metrics) == canon(b.metrics)

    def test_stats_count_fallback_reasons(self):
        with_buckets = fig7_specs() + [
            InstanceSpec(workload="qr", size=n, algorithm="buckets-avg")
            for n in (4, 5)
        ]
        outcome = run_campaign(
            with_buckets, jobs=1, backend="serial", min_batch=2
        )
        assert outcome.stats.fallback_policy == 2
        assert outcome.stats.fallback_by_algorithm == {"buckets-avg": 2}
        assert outcome.stats.fallback_small == 2  # singleton heft-avg groups
        assert outcome.stats.batched == 4  # two heteroprio pairs ran lockstep
        summary = outcome.stats.summary()
        assert "policy-unsupported [buckets-avg: 2]" in summary
        assert "[serial]" in summary
        small = run_campaign(fig7_specs(), jobs=1, backend="serial")
        assert small.stats.batched == 0
        assert small.stats.fallback_policy == 0
        assert small.stats.fallback_by_algorithm == {}
        assert small.stats.fallback_small == 6
        assert "small-group" in small.stats.summary()

    def test_paper_grids_have_zero_policy_fallback(self):
        # The ISSUE-9 invariant: every fig6/fig7 paper policy has a
        # batch kernel, so nothing on the committed grids ever falls
        # back for policy reasons.
        for grid in (fig6_specs, fig7_specs):
            outcome = run_campaign(grid(), jobs=1, backend="serial", min_batch=2)
            assert outcome.stats.fallback_policy == 0, grid.__name__
            assert outcome.stats.fallback_by_algorithm == {}, grid.__name__

    def test_unknown_backend_rejected_up_front(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_campaign(fig7_specs()[:1], jobs=1, backend="threads")
