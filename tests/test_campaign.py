"""Tests for the campaign engine (specs, cache, executor, CLI).

The load-bearing guarantees, each pinned here:

* determinism — the same spec set yields identical metrics at any job
  count (parallelism only changes wall clock);
* caching — a warm second run is 100% cache hits and never touches the
  simulator;
* invalidation — editing the code-version salt invalidates every entry;
* fidelity — the campaign-backed figure sweeps reproduce the legacy
  hand-rolled serial loops bit for bit.
"""

from __future__ import annotations

import json

import pytest

from repro import io
from repro.bounds.area import area_bound
from repro.campaign import (
    CODE_VERSION,
    InstanceSpec,
    ResultCache,
    campaign_id,
    derive_seeds,
    execute_spec,
    metrics_to_run_metrics,
    run_campaign,
)
from repro.campaign.cache import _encode_value
from repro.campaign import executor as executor_mod
from repro.core.heteroprio import heteroprio_schedule
from repro.core.platform import Platform
from repro.experiments import dags, fig6
from repro.experiments.workloads import PAPER_PLATFORM, build_graph
from repro.schedulers.dualhp import dualhp_schedule
from repro.schedulers.heft import heft_schedule


def canon(metrics: dict) -> str:
    """NaN/inf-tolerant canonical form for exact metric comparison."""
    return io.canonical_dumps(_encode_value(metrics))


def small_specs() -> list[InstanceSpec]:
    """A fast mixed campaign: independent and DAG instances."""
    independent = [
        InstanceSpec(
            workload="cholesky",
            size=n,
            algorithm=algorithm,
            mode="independent",
            bound="area",
        )
        for n in (4, 6)
        for algorithm in ("heteroprio", "dualhp", "heft")
    ]
    dag = [
        InstanceSpec(workload="cholesky", size=4, algorithm=algorithm)
        for algorithm in ("heteroprio-min", "heft-avg")
    ]
    return independent + dag


class TestInstanceSpec:
    def test_hash_is_stable_and_salt_sensitive(self):
        spec = InstanceSpec(workload="qr", size=8, algorithm="heteroprio-min")
        again = InstanceSpec(workload="qr", size=8, algorithm="heteroprio-min")
        assert spec.spec_hash() == again.spec_hash()
        assert spec.spec_hash(salt="other") != spec.spec_hash()
        assert len(spec.spec_hash()) == 64

    def test_hash_depends_on_every_field(self):
        base = InstanceSpec(workload="qr", size=8, algorithm="heteroprio-min")
        variants = [
            InstanceSpec(workload="lu", size=8, algorithm="heteroprio-min"),
            InstanceSpec(workload="qr", size=12, algorithm="heteroprio-min"),
            InstanceSpec(workload="qr", size=8, algorithm="heft-avg"),
            InstanceSpec(workload="qr", size=8, algorithm="heteroprio-min", num_gpus=2),
            InstanceSpec(workload="qr", size=8, algorithm="heteroprio-min", bound="mixed"),
        ]
        hashes = {v.spec_hash() for v in variants} | {base.spec_hash()}
        assert len(hashes) == len(variants) + 1

    def test_params_order_never_affects_hash(self):
        a = InstanceSpec(
            workload="layered", size=3, algorithm="heteroprio-avg", seed=7,
            params=(("width", 4), ("edge_probability", 0.5)),
        )
        b = InstanceSpec(
            workload="layered", size=3, algorithm="heteroprio-avg", seed=7,
            params=(("edge_probability", 0.5), ("width", 4)),
        )
        assert a == b
        assert a.spec_hash() == b.spec_hash()

    def test_dict_round_trip(self):
        spec = InstanceSpec(
            workload="chains", size=3, algorithm="dualhp-fifo",
            num_cpus=4, num_gpus=2, seed=11, params=(("length", 5),),
        )
        restored = InstanceSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec
        assert restored.spec_hash() == spec.spec_hash()

    def test_seeded_workloads_require_seed(self):
        with pytest.raises(ValueError, match="seed"):
            InstanceSpec(workload="layered", size=3, algorithm="heteroprio-avg")

    def test_invalid_mode_and_size_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            InstanceSpec(workload="qr", size=4, algorithm="x", mode="magic")
        with pytest.raises(ValueError, match="size"):
            InstanceSpec(workload="qr", size=0, algorithm="x")


class TestDeriveSeeds:
    def test_deterministic_and_distinct(self):
        seeds = derive_seeds(42, 8)
        assert seeds == derive_seeds(42, 8)
        assert len(set(seeds)) == 8
        assert derive_seeds(43, 8) != seeds

    def test_prefix_stability(self):
        # Growing a sweep keeps the existing instances' seeds unchanged.
        assert derive_seeds(42, 12)[:8] == derive_seeds(42, 8)


class TestExecuteSpec:
    def test_independent_matches_legacy_pipeline(self):
        platform = PAPER_PLATFORM
        instance = build_graph("qr", 4).to_instance()
        bound = area_bound(instance, platform).value
        legacy = {
            "heteroprio": heteroprio_schedule(
                instance, platform, compute_ns=False
            ).makespan,
            "dualhp": dualhp_schedule(instance, platform).makespan,
            "heft": heft_schedule(instance, platform).makespan,
        }
        for algorithm, makespan in legacy.items():
            metrics = execute_spec(
                InstanceSpec(
                    workload="qr", size=4, algorithm=algorithm,
                    mode="independent", bound="area",
                )
            )
            assert metrics["makespan"] == makespan
            assert metrics["lower_bound"] == bound
            assert metrics["ratio"] == makespan / bound

    def test_dag_payload_rebuilds_run_metrics(self):
        spec = InstanceSpec(workload="cholesky", size=4, algorithm="heteroprio-min")
        metrics = execute_spec(spec)
        run = metrics_to_run_metrics(metrics)
        assert run.makespan == metrics["makespan"]
        assert run.ratio == pytest.approx(metrics["ratio"])

    def test_seeded_workloads_are_reproducible(self):
        spec = InstanceSpec(
            workload="layered", size=3, algorithm="heteroprio-avg",
            num_cpus=4, num_gpus=2, seed=123, params=(("width", 4),),
        )
        assert canon(execute_spec(spec)) == canon(execute_spec(spec))
        other = execute_spec(spec.with_seed(124))
        assert canon(other) != canon(execute_spec(spec))

    def test_unknown_workload_and_algorithm_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            execute_spec(InstanceSpec(workload="svd", size=4, algorithm="heft-avg"))
        with pytest.raises(ValueError, match="independent algorithm"):
            execute_spec(
                InstanceSpec(
                    workload="qr", size=4, algorithm="magic",
                    mode="independent", bound="area",
                )
            )


class TestResultCache:
    def test_round_trip_including_nonfinite(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = InstanceSpec(workload="qr", size=4, algorithm="heteroprio-min")
        metrics = {"makespan": 1.5, "weird": float("inf"), "worse": float("nan")}
        cache.put(spec, metrics, elapsed_s=0.25)
        entry = cache.get(spec)
        assert entry["metrics"]["makespan"] == 1.5
        assert entry["metrics"]["weird"] == float("inf")
        assert entry["metrics"]["worse"] != entry["metrics"]["worse"]  # NaN
        assert entry["elapsed_s"] == 0.25
        assert len(cache) == 1

    def test_entry_files_are_canonical_and_sharded(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = InstanceSpec(workload="qr", size=4, algorithm="heteroprio-min")
        path = cache.put(spec, {"makespan": 1.0})
        key = cache.key(spec)
        assert path.parent.name == key[:2]
        assert path.stem == key
        assert path.read_text() == cache.put(spec, {"makespan": 1.0}).read_text()

    def test_corrupt_or_mismatched_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = InstanceSpec(workload="qr", size=4, algorithm="heteroprio-min")
        path = cache.put(spec, {"makespan": 1.0})
        path.write_text("{not json")
        # The writing process still holds a bit-exact copy in its memory
        # tier; only a fresh cache object sees the corrupt disk entry.
        assert cache.get(spec)["metrics"]["makespan"] == 1.0
        assert ResultCache(tmp_path).get(spec) is None
        cache.put(spec, {"makespan": 1.0})
        assert ResultCache(tmp_path, salt="other").get(spec) is None

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for n in (4, 6, 8):
            cache.put(
                InstanceSpec(workload="qr", size=n, algorithm="heft-avg"),
                {"makespan": float(n)},
            )
        assert cache.clear() == 3
        assert len(cache) == 0


class TestRunCampaign:
    def test_serial_and_parallel_metrics_identical(self):
        specs = small_specs()
        serial = run_campaign(specs, jobs=1)
        parallel = run_campaign(specs, jobs=3)
        assert serial.stats.executed == len(specs)
        for a, b in zip(serial.records, parallel.records):
            assert a.spec == b.spec
            assert canon(a.metrics) == canon(b.metrics)

    def test_second_run_is_all_cache_hits_without_simulating(self, tmp_path, monkeypatch):
        specs = small_specs()
        cache = ResultCache(tmp_path)
        cold = run_campaign(specs, jobs=1, cache=cache)
        assert cold.stats.misses == len(specs)
        assert cold.stats.hit_rate == 0.0

        def boom(spec):  # pragma: no cover - must never run
            raise AssertionError("warm run must not execute the simulator")

        monkeypatch.setattr(executor_mod, "execute_spec", boom)
        warm = run_campaign(specs, jobs=1, cache=cache)
        assert warm.stats.hits == len(specs)
        assert warm.stats.executed == 0
        assert warm.stats.hit_rate == 1.0
        for a, b in zip(cold.records, warm.records):
            assert canon(a.metrics) == canon(b.metrics)
            assert b.cached

    def test_editing_the_salt_invalidates_the_cache(self, tmp_path):
        specs = small_specs()[:3]
        cold = run_campaign(specs, jobs=1, cache=ResultCache(tmp_path, salt="v1"))
        assert cold.stats.executed == len(specs)
        bumped = run_campaign(specs, jobs=1, cache=ResultCache(tmp_path, salt="v2"))
        assert bumped.stats.hits == 0
        assert bumped.stats.executed == len(specs)
        back = run_campaign(specs, jobs=1, cache=ResultCache(tmp_path, salt="v1"))
        assert back.stats.hits == len(specs)

    def test_manifest_written_next_to_cache(self, tmp_path):
        specs = small_specs()[:2]
        cache = ResultCache(tmp_path)
        outcome = run_campaign(specs, jobs=1, cache=cache)
        path = tmp_path / "manifests" / f"{campaign_id(specs, salt=CODE_VERSION)}.json"
        assert path.exists()
        manifest = json.loads(path.read_text())
        assert manifest["salt"] == CODE_VERSION
        assert manifest["stats"]["executed"] == outcome.stats.executed
        assert [InstanceSpec.from_dict(d) for d in manifest["specs"]] == specs


class TestExperimentFidelity:
    def test_fig6_matches_legacy_serial_loop(self):
        platform = PAPER_PLATFORM
        n_values = (4, 6)
        legacy: dict[str, list[float]] = {name: [] for name in fig6.ALGORITHMS}
        for n_tiles in n_values:
            instance = build_graph("qr", n_tiles).to_instance()
            bound = area_bound(instance, platform).value
            legacy["heteroprio"].append(
                heteroprio_schedule(instance, platform, compute_ns=False).makespan
                / bound
            )
            legacy["dualhp"].append(dualhp_schedule(instance, platform).makespan / bound)
            legacy["heft"].append(heft_schedule(instance, platform).makespan / bound)
        result = fig6.run("qr", n_values=n_values)
        for name in fig6.ALGORITHMS:
            assert result.series_by_label(name).values == legacy[name]

    def test_fig6_parallel_equals_serial(self):
        serial = fig6.run("qr", n_values=(4, 6), jobs=1)
        parallel = fig6.run("qr", n_values=(4, 6), jobs=2)
        for a, b in zip(serial.series, parallel.series):
            assert a.values == b.values

    def test_dag_sweep_uses_disk_cache_across_memo_clears(self, tmp_path):
        cache = ResultCache(tmp_path)
        kwargs = dict(
            n_values=(4,), algorithms=("heteroprio-min", "heft-avg"), cache=cache
        )
        dags.clear_cache()
        telemetry: list = []
        first = dags.dag_sweep("cholesky", telemetry=telemetry, **kwargs)
        assert telemetry[-1].executed == 2
        dags.clear_cache()
        second = dags.dag_sweep("cholesky", telemetry=telemetry, **kwargs)
        assert telemetry[-1].hits == 2 and telemetry[-1].executed == 0
        assert set(first) == set(second)
        for key in first:
            assert repr(first[key]) == repr(second[key])
        dags.clear_cache()


class TestCampaignCli:
    def test_campaign_smoke_cold_then_warm(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "campaign", "--targets", "fig6", "--kernel", "qr",
            "--fast", "--jobs", "1", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        out = capsys.readouterr()
        assert "heteroprio" in out.out
        assert "0 cache hits" in out.err
        assert main(argv) == 0
        out = capsys.readouterr()
        # Fresh cache object per CLI run: warm hits come from the disk tier.
        assert "(100%" in out.err
        assert "disk" in out.err
        assert (tmp_path / "manifests").exists()

    def test_campaign_rejects_unknown_target(self, capsys):
        from repro.cli import main

        assert main(["campaign", "--targets", "table1"]) == 2
        assert "unknown campaign targets" in capsys.readouterr().err

    def test_backend_serial_means_one_job(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "campaign", "--targets", "fig6", "--kernel", "qr", "--fast",
            "--cache-dir", str(tmp_path), "--backend", "serial",
        ]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "on 1 worker(s) [serial]" in err

    def test_default_backend_runs_the_fabric_above_one_job(self, tmp_path, capsys):
        from repro.cli import main

        argv = [
            "campaign", "--targets", "fig6", "--kernel", "qr", "--fast",
            "--cache-dir", str(tmp_path), "--jobs", "2",
        ]
        assert main(argv) == 0
        assert "on 2 worker(s) [work-stealing" in capsys.readouterr().err

    def test_mp_pool_backend_is_rejected(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--backend", "mp-pool", "--no-cache"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_jobs_flag_accepted_on_figures(self, capsys):
        from repro.cli import main

        assert main(["fig6", "--kernel", "qr", "--fast", "--jobs", "1"]) == 0
        assert "heteroprio" in capsys.readouterr().out


def _boom_timed_execute(spec):
    """Module-level so the worker pool can pickle it (fork or spawn)."""
    raise ValueError(f"injected child failure for {spec.label()}")


class TestExecuteSpecCached:
    def test_miss_then_hit(self, tmp_path):
        from repro.campaign import execute_spec_cached

        spec = InstanceSpec(workload="cholesky", size=4, algorithm="heteroprio-min")
        cache = ResultCache(tmp_path)
        metrics, cached, elapsed = execute_spec_cached(spec, cache)
        assert not cached and elapsed > 0
        assert canon(metrics) == canon(execute_spec(spec))
        warm, warm_cached, warm_elapsed = execute_spec_cached(spec, cache)
        assert warm_cached
        assert canon(warm) == canon(metrics)
        assert warm_elapsed == pytest.approx(elapsed)

    def test_without_cache_always_executes(self):
        from repro.campaign import execute_spec_cached

        spec = InstanceSpec(workload="cholesky", size=4, algorithm="heft-avg")
        metrics, cached, _ = execute_spec_cached(spec)
        again, again_cached, _ = execute_spec_cached(spec)
        assert not cached and not again_cached
        assert canon(metrics) == canon(again)

    def test_entries_interchangeable_with_run_campaign(self, tmp_path):
        from repro.campaign import execute_spec_cached

        spec = InstanceSpec(workload="cholesky", size=4, algorithm="dualhp-min")
        cache = ResultCache(tmp_path)
        execute_spec_cached(spec, cache)
        warm = run_campaign([spec], jobs=1, cache=cache)
        assert warm.stats.hits == 1 and warm.stats.executed == 0


class TestPoolTeardown:
    """An interrupted or failing campaign never leaves orphaned workers."""

    def test_child_error_propagates_and_pool_is_reaped(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(executor_mod, "_timed_execute", _boom_timed_execute)
        with pytest.raises(ValueError, match="injected child failure"):
            run_campaign(small_specs()[:4], jobs=2)
        assert multiprocessing.active_children() == []

    def test_keyboard_interrupt_in_cache_put_reaps_the_workers(
        self, tmp_path, monkeypatch
    ):
        import multiprocessing

        def interrupt(self, spec, metrics, *, elapsed_s=0.0):
            raise KeyboardInterrupt

        # The parent raises while consuming the fabric's first result.
        # The traceback held by excinfo references run_campaign's frame,
        # so only an explicit close of the result iterator reaps the
        # workers here.
        monkeypatch.setattr(ResultCache, "put", interrupt)
        with pytest.raises(KeyboardInterrupt) as excinfo:
            run_campaign(small_specs()[:4], jobs=2, cache=ResultCache(tmp_path))
        assert excinfo.traceback
        assert multiprocessing.active_children() == []


class TestFullDisk:
    """ENOSPC from a cache write inside ``run_campaign`` ends cleanly.

    The campaign raises the ``OSError`` (which names the entry), leaves
    no ``.tmp-*`` file and no live worker, stores nothing that reads as a
    hit, and a rerun on a disk with room recomputes the same payloads.
    """

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("suffix", [".json", ".npz"], ids=["results", "graphs"])
    def test_enospc_ends_cleanly_and_a_rerun_recomputes(
        self, tmp_path, monkeypatch, suffix, jobs
    ):
        import errno
        import multiprocessing
        import os
        from pathlib import Path

        specs = small_specs()[:4]
        real_replace = os.replace

        def full_disk(src, dst, *args, **kwargs):
            # Result entries are .json and graph entries .npz; the run
            # manifest is never reached.
            if Path(dst).suffix == suffix:
                raise OSError(errno.ENOSPC, "No space left on device", str(dst))
            return real_replace(src, dst, *args, **kwargs)

        # Forked workers inherit the patch, so graph writes fail there too.
        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(OSError) as excinfo:
            run_campaign(specs, jobs=jobs, cache=ResultCache(tmp_path))
        monkeypatch.undo()
        assert excinfo.value.errno == errno.ENOSPC
        assert excinfo.value.filename.endswith(suffix)
        assert multiprocessing.active_children() == []
        assert not list(tmp_path.rglob(".tmp-*"))

        cache = ResultCache(tmp_path)
        assert [cache.get(spec) for spec in specs] == [None] * len(specs)
        rerun = run_campaign(specs, jobs=jobs, cache=cache)
        assert rerun.stats.executed == len(specs)
        assert [canon(r.metrics) for r in rerun.records] == [
            canon(execute_spec(spec)) for spec in specs
        ]

    def test_a_worker_stopped_mid_write_removes_its_temp_file(
        self, tmp_path, monkeypatch
    ):
        """One worker hits ENOSPC while the other is inside a graph write.

        The teardown stops the second worker in the middle of its write;
        it must still remove its temp file.
        """
        import errno
        import multiprocessing
        import os
        import time
        from pathlib import Path

        flag = tmp_path / "slow-writer"
        real_replace = os.replace

        def slow_or_full(src, dst, *args, **kwargs):
            if Path(dst).suffix == ".npz":
                try:
                    os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    raise OSError(errno.ENOSPC, "No space left on device", str(dst))
                time.sleep(30)  # the first writer is still writing at teardown
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr(os, "replace", slow_or_full)
        started = time.perf_counter()
        with pytest.raises(OSError) as excinfo:
            run_campaign(small_specs()[:4], jobs=2, cache=ResultCache(tmp_path / "cache"))
        monkeypatch.undo()
        assert excinfo.value.errno == errno.ENOSPC
        assert time.perf_counter() - started < 25
        assert multiprocessing.active_children() == []
        assert not list(tmp_path.rglob(".tmp-*"))
