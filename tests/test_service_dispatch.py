"""Tests for the dispatcher bridge (repro.service.dispatch)."""

from __future__ import annotations

import asyncio

from repro import io
from repro.campaign import InstanceSpec, ResultCache, execute_spec
from repro.campaign.cache import encode_value
from repro.campaign.executor import LOCKSTEP_MIN_ROWS
from repro.service.dispatch import Dispatcher, namespaced_cache


def canon(metrics: dict) -> str:
    """NaN/inf-tolerant canonical form for exact metric comparison."""
    return io.canonical_dumps(encode_value(metrics))


SPEC = InstanceSpec(workload="cholesky", size=4, algorithm="heteroprio-min")
OTHER = InstanceSpec(workload="cholesky", size=4, algorithm="heft-avg")


class TestNamespacedCache:
    def test_empty_tenant_is_the_root_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert namespaced_cache(cache, "") is cache

    def test_tenant_gets_its_own_directory_same_salt(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s1")
        scoped = namespaced_cache(cache, "team-a")
        assert scoped.root == cache.root / "tenants" / "team-a"
        assert scoped.salt == cache.salt

    def test_tenants_share_keys_but_not_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        a = namespaced_cache(cache, "team-a")
        b = namespaced_cache(cache, "team-b")
        a.put(SPEC, {"makespan": 1.0})
        assert a.get(SPEC) is not None
        assert b.get(SPEC) is None
        assert cache.get(SPEC) is None


class TestDispatcher:
    def test_warm_hit_skips_execution(self, tmp_path):
        async def body():
            calls = {"n": 0}

            def fake_execute(spec):
                calls["n"] += 1
                return {"makespan": 7.0}

            dispatcher = Dispatcher(tmp_path, execute_fn=fake_execute)
            cold = await dispatcher.run(SPEC)
            warm = await dispatcher.run(SPEC)
            dispatcher.close()
            assert calls["n"] == 1
            assert not cold.cached and warm.cached
            assert warm.metrics == cold.metrics == {"makespan": 7.0}
            assert cold.key == warm.key == SPEC.spec_hash(salt=dispatcher.salt)
            assert dispatcher.counters["cache_hits"] == 1
            assert dispatcher.counters["executed"] == 1

        asyncio.run(body())

    def test_tenant_isolation_recomputes_per_namespace(self, tmp_path):
        async def body():
            calls = {"n": 0}

            def fake_execute(spec):
                calls["n"] += 1
                return {"makespan": float(calls["n"])}

            dispatcher = Dispatcher(tmp_path, execute_fn=fake_execute)
            first = await dispatcher.run(SPEC, tenant="team-a")
            other = await dispatcher.run(SPEC, tenant="team-b")
            again = await dispatcher.run(SPEC, tenant="team-a")
            dispatcher.close()
            assert calls["n"] == 2  # one per namespace, not three
            assert not first.cached and not other.cached and again.cached
            assert again.metrics == first.metrics
            assert sorted(dispatcher.stats()["tenants"]) == ["team-a", "team-b"]

        asyncio.run(body())

    def test_single_flight_coalesces_concurrent_duplicates(self, tmp_path):
        async def body():
            release = asyncio.Event()
            calls = {"n": 0}

            def slow_execute(spec):
                calls["n"] += 1
                return {"makespan": 3.0}

            dispatcher = Dispatcher(tmp_path, execute_fn=slow_execute)

            # Hold the inline lock so the leader parks inside _execute and
            # the followers find the in-flight future.
            await dispatcher._inline_lock.acquire()
            tasks = [
                asyncio.ensure_future(dispatcher.run(SPEC)) for _ in range(3)
            ]
            await asyncio.sleep(0.01)
            dispatcher._inline_lock.release()
            release.set()
            results = await asyncio.gather(*tasks)
            dispatcher.close()

            assert calls["n"] == 1
            assert sum(1 for r in results if r.coalesced) == 2
            assert all(r.metrics == {"makespan": 3.0} for r in results)
            assert dispatcher.counters["coalesced"] == 2
            assert dispatcher.counters["executed"] == 1

        asyncio.run(body())

    def test_single_flight_keys_include_the_tenant(self, tmp_path):
        async def body():
            calls = {"n": 0}

            def fake_execute(spec):
                calls["n"] += 1
                return {"makespan": 1.0}

            dispatcher = Dispatcher(tmp_path, execute_fn=fake_execute)
            await dispatcher._inline_lock.acquire()
            tasks = [
                asyncio.ensure_future(dispatcher.run(SPEC, tenant="a")),
                asyncio.ensure_future(dispatcher.run(SPEC, tenant="b")),
            ]
            await asyncio.sleep(0.01)
            assert len(dispatcher._inflight) == 2  # distinct flights
            dispatcher._inline_lock.release()
            results = await asyncio.gather(*tasks)
            dispatcher.close()
            assert calls["n"] == 2
            assert not any(r.coalesced for r in results)

        asyncio.run(body())

    def test_errors_propagate_to_leader_and_followers(self, tmp_path):
        async def body():
            def broken_execute(spec):
                raise RuntimeError("engine exploded")

            dispatcher = Dispatcher(tmp_path, execute_fn=broken_execute)
            await dispatcher._inline_lock.acquire()
            tasks = [
                asyncio.ensure_future(dispatcher.run(SPEC)) for _ in range(2)
            ]
            await asyncio.sleep(0.01)
            dispatcher._inline_lock.release()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            dispatcher.close()
            assert all(isinstance(r, RuntimeError) for r in results)
            assert dispatcher.counters["errors"] == 1  # one real failure
            assert not dispatcher._inflight  # flight cleaned up

        asyncio.run(body())

    def test_inline_mode_runs_the_real_engine(self, tmp_path):
        async def body():
            dispatcher = Dispatcher(tmp_path, workers=0)
            first = await dispatcher.run(SPEC)
            second = await dispatcher.run(SPEC)
            dispatcher.close()
            assert canon(first.metrics) == canon(execute_spec(SPEC))
            assert not first.cached and second.cached
            assert canon(second.metrics) == canon(first.metrics)

        asyncio.run(body())

    def test_uncached_dispatcher_always_executes(self):
        async def body():
            calls = {"n": 0}

            def fake_execute(spec):
                calls["n"] += 1
                return {"makespan": 1.0}

            dispatcher = Dispatcher(None, execute_fn=fake_execute)
            await dispatcher.run(SPEC)
            await dispatcher.run(SPEC)
            dispatcher.close()
            assert calls["n"] == 2
            assert dispatcher.cache_for("anyone") is None
            assert dispatcher.stats()["cache_root"] is None

        asyncio.run(body())

    def test_distinct_specs_do_not_coalesce(self, tmp_path):
        async def body():
            calls = {"n": 0}

            def fake_execute(spec):
                calls["n"] += 1
                return {"makespan": float(calls["n"])}

            dispatcher = Dispatcher(tmp_path, execute_fn=fake_execute)
            a, b = await asyncio.gather(
                dispatcher.run(SPEC), dispatcher.run(OTHER)
            )
            dispatcher.close()
            assert calls["n"] == 2
            assert a.key != b.key

        asyncio.run(body())

    def test_close_is_idempotent(self, tmp_path):
        dispatcher = Dispatcher(tmp_path, workers=0)
        dispatcher.close()
        dispatcher.close()


class TestLookup:
    """The synchronous hit probe that both the server and ``run`` use."""

    def test_all_hits_count_as_served_requests(self, tmp_path):
        async def body():
            dispatcher = Dispatcher(tmp_path, execute_fn=lambda spec: {"makespan": 7.0})
            cold = await dispatcher.run(SPEC, tenant="a")
            await dispatcher.run(OTHER)
            hits = dispatcher.lookup([(SPEC, "a"), (OTHER, "")])
            dispatcher.close()
            assert hits is not None and [h.cached for h in hits] == [True, True]
            assert hits[0].metrics == cold.metrics and hits[0].key == cold.key
            assert not any(h.coalesced for h in hits)
            assert dispatcher.counters["requests"] == 4
            assert dispatcher.counters["cache_hits"] == 2

        asyncio.run(body())

    def test_a_miss_stops_the_probe_and_counts_nothing(self, tmp_path):
        async def body():
            dispatcher = Dispatcher(tmp_path, execute_fn=lambda spec: {"makespan": 7.0})
            await dispatcher.run(SPEC)
            before = dict(dispatcher.counters)
            tiers = dispatcher.cache_tier_stats()
            assert dispatcher.lookup([(OTHER, ""), (SPEC, "")]) is None
            assert dispatcher.lookup([(SPEC, "b")]) is None  # other tenant
            after = dispatcher.cache_tier_stats()
            dispatcher.close()
            assert dispatcher.counters == before
            # Two probes, two misses: the first miss ended the first probe.
            assert after["misses"] - tiers["misses"] == 2
            assert after["memory_hits"] == tiers["memory_hits"]

        asyncio.run(body())

    def test_uncached_dispatcher_never_hits(self):
        dispatcher = Dispatcher(None, execute_fn=lambda spec: {"makespan": 1.0})
        assert dispatcher.lookup([(SPEC, "")]) is None
        assert dispatcher.counters["requests"] == 0
        dispatcher.close()


class TestPrefetch:
    def seed_sweep(
        self, rows: int = LOCKSTEP_MIN_ROWS, algorithm: str = "heteroprio"
    ) -> list[InstanceSpec]:
        # Independent-mode seed sweep: one batch group (the batch key
        # drops the seed), by default just large enough to reach the
        # lockstep threshold so prefetch takes the batch engine.
        return [
            InstanceSpec(
                workload="layered", size=3, algorithm=algorithm,
                mode="independent", bound="area", seed=seed,
            )
            for seed in range(1, rows + 1)
        ]

    def test_prefetch_routes_warm_hits_through_the_memory_tier(self, tmp_path):
        async def body():
            specs = self.seed_sweep()
            dispatcher = Dispatcher(tmp_path, workers=0)
            try:
                warmed = await dispatcher.prefetch(specs)
                assert warmed == len(specs)
                assert dispatcher.counters["prefetched"] == len(specs)
                # The parent-side puts fed the in-process memory tier.
                tiers = dispatcher.cache_tier_stats()
                assert tiers["puts"] == len(specs)

                results = [await dispatcher.run(spec) for spec in specs]
            finally:
                dispatcher.close()
            assert all(r.cached for r in results)
            assert dispatcher.counters["cache_hits"] == len(specs)
            assert dispatcher.counters["executed"] == 0
            # Every warm hit came from memory — no disk reads at all.
            tiers = dispatcher.cache_tier_stats()
            assert tiers["memory_hits"] == len(specs)
            assert tiers["disk_hits"] == 0
            assert dispatcher.stats()["cache_tiers"]["memory_hits"] == len(specs)
            # Bit-exactness: the batch engine wrote what the scalar
            # path would compute.
            for spec, result in zip(specs, results):
                assert canon(result.metrics) == canon(execute_spec(spec))

        asyncio.run(body())

    def test_prefetch_skips_already_cached_specs(self, tmp_path):
        async def body():
            specs = self.seed_sweep()
            dispatcher = Dispatcher(tmp_path, workers=0)
            try:
                assert await dispatcher.prefetch(specs) == len(specs)
                # All warm now: a second prefetch has nothing to do.
                assert await dispatcher.prefetch(specs) == 0
            finally:
                dispatcher.close()
            assert dispatcher.counters["prefetched"] == len(specs)

        asyncio.run(body())

    def test_serve_sized_groups_warm_nothing_and_answer_through_run(
        self, tmp_path
    ):
        # A serve-shaped batch: four seeds under each independent
        # algorithm.  Every group is below the lockstep threshold, so
        # prefetch warms nothing and each request executes scalar.
        specs = [
            spec
            for algorithm in ("heteroprio", "dualhp", "heft")
            for spec in self.seed_sweep(4, algorithm)
        ]

        async def body():
            dispatcher = Dispatcher(tmp_path, workers=0)
            try:
                assert await dispatcher.prefetch(specs) == 0
                results = [await dispatcher.run(spec) for spec in specs]
            finally:
                dispatcher.close()
            assert dispatcher.counters["prefetched"] == 0
            assert dispatcher.counters["executed"] == len(specs)
            assert not any(r.cached for r in results)
            for spec, result in zip(specs, results):
                assert canon(result.metrics) == canon(execute_spec(spec))

        asyncio.run(body())

    def test_prefetch_warms_sweeps_and_attributes_dag_misses(self, tmp_path):
        sweep = self.seed_sweep()
        dag = [SPEC, OTHER, SPEC]

        async def body():
            dispatcher = Dispatcher(tmp_path, workers=0)
            try:
                assert await dispatcher.prefetch(dag + sweep) == len(sweep)
            finally:
                dispatcher.close()
            assert dispatcher.stats()["prefetch_fallbacks"] == {
                "heft-avg": 1, "heteroprio-min": 2,
            }

        asyncio.run(body())

    def test_prefetch_is_inert_behind_a_test_seam(self, tmp_path):
        async def body():
            dispatcher = Dispatcher(
                tmp_path, execute_fn=lambda spec: {"makespan": 1.0}
            )
            try:
                assert await dispatcher.prefetch(self.seed_sweep()) == 0
            finally:
                dispatcher.close()
            assert dispatcher.counters["prefetched"] == 0

        asyncio.run(body())


class TestPoolMode:
    def test_pool_execution_matches_inline(self, tmp_path):
        async def body():
            dispatcher = Dispatcher(tmp_path / "pool", workers=1)
            try:
                assert dispatcher.stats()["mode"] == "pool"
                result = await dispatcher.run(SPEC)
            finally:
                dispatcher.close()
            assert canon(result.metrics) == canon(execute_spec(SPEC))
            assert not result.cached
            # The forked worker wrote through to the tenant cache.
            warm = ResultCache(tmp_path / "pool").get(SPEC)
            assert warm is not None
            assert canon(warm["metrics"]) == canon(result.metrics)

        asyncio.run(body())
