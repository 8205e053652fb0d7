"""Tests for the tiered ResultCache: LRU memory tier, prune, gc.

The tier contract is strict: a memory hit must hand back the JSON
round-trip of the written payload (bit-identical to the disk read it
replaces, copies on every access so callers cannot poison the tier),
and every maintenance operation (prune, gc, clear) must be
deterministic and keep the two tiers consistent.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.campaign import InstanceSpec, ResultCache
from repro.campaign.cache import DEFAULT_MEMORY_ENTRIES


def spec(n: int) -> InstanceSpec:
    return InstanceSpec(workload="qr", size=n, algorithm="heteroprio-min")


class TestMemoryTier:
    def test_second_lookup_is_a_memory_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(spec(4), {"makespan": 1.0})
        first = cache.get(spec(4))
        second = cache.get(spec(4))
        assert first == second
        # put fed the tier, so both reads were memory hits.
        assert cache.stats.memory_hits == 2
        assert cache.stats.disk_hits == 0

    def test_fresh_object_reads_disk_then_feeds_memory(self, tmp_path):
        ResultCache(tmp_path).put(spec(4), {"makespan": 1.0})
        cache = ResultCache(tmp_path)
        assert cache.get(spec(4)) is not None
        assert cache.get(spec(4)) is not None
        assert cache.stats.disk_hits == 1
        assert cache.stats.memory_hits == 1

    def test_memory_entry_is_bit_identical_to_disk_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        metrics = {"makespan": 1.5, "inf": float("inf"), "nan": float("nan")}
        cache.put(spec(4), metrics, elapsed_s=0.25)
        from_memory = cache.get(spec(4))
        from_disk = ResultCache(tmp_path).get(spec(4))
        assert from_memory is not None and from_disk is not None
        assert from_memory["elapsed_s"] == from_disk["elapsed_s"] == 0.25
        assert from_memory["metrics"]["inf"] == from_disk["metrics"]["inf"]
        m, d = from_memory["metrics"]["nan"], from_disk["metrics"]["nan"]
        assert m != m and d != d  # NaN round-trips through both tiers
        assert from_memory["salt"] == from_disk["salt"]

    def test_hits_hand_out_copies(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(spec(4), {"makespan": 1.0})
        cache.get(spec(4))["metrics"]["makespan"] = -999.0
        assert cache.get(spec(4))["metrics"]["makespan"] == 1.0

    def test_lru_eviction_and_counter(self, tmp_path):
        cache = ResultCache(tmp_path, memory_entries=2)
        for n in (4, 5, 6):
            cache.put(spec(n), {"makespan": float(n)})
        assert cache.stats.memory_evictions == 1
        before = cache.stats.disk_hits
        assert cache.get(spec(4)) is not None  # evicted -> disk
        assert cache.stats.disk_hits == before + 1
        assert cache.get(spec(6)) is not None  # resident -> memory
        assert cache.stats.memory_hits == 1

    def test_access_refreshes_recency(self, tmp_path):
        cache = ResultCache(tmp_path, memory_entries=2)
        cache.put(spec(4), {"makespan": 4.0})
        cache.put(spec(5), {"makespan": 5.0})
        cache.get(spec(4))  # 4 is now most recent; 5 is LRU
        cache.put(spec(6), {"makespan": 6.0})  # evicts 5
        disk_before = cache.stats.disk_hits
        cache.get(spec(4))
        assert cache.stats.disk_hits == disk_before  # still in memory

    def test_zero_capacity_disables_the_tier(self, tmp_path):
        cache = ResultCache(tmp_path, memory_entries=0)
        cache.put(spec(4), {"makespan": 1.0})
        assert cache.get(spec(4)) is not None
        assert cache.stats.memory_hits == 0
        assert cache.stats.disk_hits == 1

    def test_default_capacity(self, tmp_path):
        assert ResultCache(tmp_path).memory_entries == DEFAULT_MEMORY_ENTRIES


class TestPickling:
    def test_workers_inherit_config_but_not_tiers(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s1")
        cache.put(spec(4), {"makespan": 1.0})
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.root == cache.root
        assert clone.salt == "s1"
        assert clone.stats.puts == 0  # counters start fresh per child
        assert clone.get(spec(4)) is not None  # disk tier is shared
        assert clone.stats.disk_hits == 1


class TestPrune:
    def test_prune_is_lru_and_deterministic(self, tmp_path):
        cache = ResultCache(tmp_path)
        paths = {n: cache.put(spec(n), {"makespan": float(n)}) for n in (4, 5, 6)}
        # Backdate mtimes so recency is unambiguous: 5 oldest, then 6, then 4.
        for age, n in enumerate((4, 6, 5)):
            os.utime(paths[n], ns=(10_000 - age, 10_000 - age))
        assert cache.prune(max_entries=1) == 2
        assert cache.stats.disk_evictions == 2
        assert not paths[5].exists() and not paths[6].exists()
        assert paths[4].exists()

    def test_pruned_entries_leave_the_memory_tier(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(spec(4), {"makespan": 1.0})
        assert cache.prune(max_entries=0) == 1
        assert cache.get(spec(4)) is None

    def test_max_bytes_cap(self, tmp_path):
        cache = ResultCache(tmp_path)
        for n in (4, 5, 6):
            cache.put(spec(n), {"makespan": float(n)})
        _, total = cache.disk_usage()
        per_entry = total // 3
        removed = cache.prune(max_bytes=per_entry * 2)
        assert removed == 1
        entries, total_after = cache.disk_usage()
        assert entries == 2 and total_after <= per_entry * 2

    def test_noop_when_within_caps(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(spec(4), {"makespan": 1.0})
        assert cache.prune(max_entries=10, max_bytes=10**9) == 0
        assert cache.prune() == 0  # no caps configured at all

    def test_disk_cap_auto_prunes_on_put(self, tmp_path):
        cache = ResultCache(tmp_path, disk_cap_bytes=1)
        cache.PRUNE_CHECK_INTERVAL = 4
        for n in range(4, 12):
            cache.put(spec(n), {"makespan": float(n)})
        entries, _ = cache.disk_usage()
        # Two auto-prunes fired (8 puts / interval 4); the tier cannot
        # exceed one interval's worth of un-checked puts.
        assert entries <= 4
        assert cache.stats.disk_evictions >= 4


class TestGc:
    def test_gc_drops_foreign_salts_keeps_current(self, tmp_path):
        ResultCache(tmp_path, salt="old").put(spec(4), {"makespan": 1.0})
        cache = ResultCache(tmp_path, salt="new")
        kept = cache.put(spec(5), {"makespan": 2.0})
        assert cache.gc() == 1
        assert kept.exists()
        assert cache.get(spec(5)) is not None

    def test_gc_drops_corrupt_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(spec(4), {"makespan": 1.0})
        path.write_text("{not json")
        assert cache.gc() == 1
        assert not path.exists()


class TestGcCli:
    """``repro cache --gc`` collects every store under the cache root."""

    def test_gc_collects_tenant_caches_and_the_graph_store(self, tmp_path, capsys):
        from repro.campaign.graph_store import GraphStore
        from repro.cli import main
        from repro.dag.cholesky import cholesky_compiled

        stores = [ResultCache(tmp_path), ResultCache(tmp_path / "tenants" / "acme")]
        kept = [store.put(spec(4), {"makespan": 1.0}) for store in stores]
        stale = [
            ResultCache(store.root, salt="old").put(spec(5), {"makespan": 2.0})
            for store in stores
        ]
        graphs = tmp_path / "graphs"
        fresh_graph = GraphStore(graphs).put(cholesky_compiled(3), "cholesky", 3)
        stale_graph = GraphStore(graphs, salt="old").put(
            cholesky_compiled(4), "cholesky", 4
        )
        corrupt_graph = graphs / "ab" / ("ab" + "0" * 62 + ".npz")
        corrupt_graph.parent.mkdir(parents=True, exist_ok=True)
        corrupt_graph.write_bytes(b"not a zip")

        assert main(["cache", "--cache-dir", str(tmp_path), "--gc"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 stale-salt entries, 1 from tenant caches, 2 stale graphs" in out
        assert all(path.exists() for path in kept)
        assert not any(path.exists() for path in stale)
        assert fresh_graph.exists()
        assert not stale_graph.exists() and not corrupt_graph.exists()
        assert GraphStore(graphs).get("cholesky", 3) is not None

    def test_prune_stays_root_only(self, tmp_path, capsys):
        from repro.cli import main

        tenant = ResultCache(tmp_path / "tenants" / "acme")
        tenant_entry = tenant.put(spec(4), {"makespan": 1.0})
        ResultCache(tmp_path).put(spec(4), {"makespan": 1.0})
        assert main(
            ["cache", "--cache-dir", str(tmp_path), "--prune", "--max-entries", "0"]
        ) == 0
        assert ResultCache(tmp_path).disk_usage()[0] == 0
        assert tenant_entry.exists()


class TestStats:
    def test_snapshot_is_independent(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(spec(4), {"makespan": 1.0})
        snap = cache.stats.snapshot()
        cache.get(spec(4))
        assert snap.memory_hits == 0
        assert cache.stats.memory_hits == 1

    def test_to_dict_has_all_counters(self, tmp_path):
        stats = ResultCache(tmp_path).stats.to_dict()
        assert set(stats) == {
            "memory_hits", "disk_hits", "misses", "puts",
            "memory_evictions", "disk_evictions",
        }

    def test_misses_counted(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(spec(4)) is None
        assert cache.stats.misses == 1
