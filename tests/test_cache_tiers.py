"""Tests for the tiered ResultCache: LRU memory tier, prune, gc.

The tier contract is strict: a memory hit must hand back the JSON
round-trip of the written payload (bit-identical to the disk read it
replaces, copies on every access so callers cannot poison the tier),
and every maintenance operation (prune, gc, clear) must be
deterministic and keep the two tiers consistent.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path

import pytest

from repro.campaign import InstanceSpec, ResultCache, run_campaign
from repro.campaign import cache as cache_mod
from repro.io import canonical_dumps


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

    def test_lru_eviction_and_counter(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_mod, "MEMORY_ENTRIES", 2)
        cache = ResultCache(tmp_path)
        for n in (4, 5, 6):
            cache.put(spec(n), {"makespan": float(n)})
        assert cache.stats.memory_evictions == 1
        before = cache.stats.disk_hits
        assert cache.get(spec(4)) is not None  # evicted -> disk
        assert cache.stats.disk_hits == before + 1
        assert cache.get(spec(6)) is not None  # resident -> memory
        assert cache.stats.memory_hits == 1

    def test_access_refreshes_recency(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_mod, "MEMORY_ENTRIES", 2)
        cache = ResultCache(tmp_path)
        cache.put(spec(4), {"makespan": 4.0})
        cache.put(spec(5), {"makespan": 5.0})
        cache.get(spec(4))  # 4 is now most recent; 5 is LRU
        cache.put(spec(6), {"makespan": 6.0})  # evicts 5
        disk_before = cache.stats.disk_hits
        cache.get(spec(4))
        assert cache.stats.disk_hits == disk_before  # still in memory

    def test_default_capacity(self, tmp_path):
        assert cache_mod.MEMORY_ENTRIES == 512
        cache = ResultCache(tmp_path)
        for n in range(1, cache_mod.MEMORY_ENTRIES + 2):
            cache.put(spec(n), {"makespan": float(n)})
        assert cache.stats.memory_evictions == 1


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


#: Marks a field :func:`write_entry` leaves out of the entry.
MISSING = object()


def write_entry(cache: ResultCache, target: InstanceSpec, body) -> tuple[Path, str]:
    """Write *body* where *cache* files *target*; returns ``(path, text)``.

    A string is written verbatim; a dict overrides fields of an entry
    whose header (version, salt, spec) is valid for *target*.
    """
    text = body
    if isinstance(body, dict):
        entry = {
            "version": cache_mod.CACHE_FORMAT_VERSION,
            "salt": cache.salt_for(target),
            "spec": target.to_dict(),
            "metrics": {"makespan": 1.0},
            "elapsed_s": 0.0,
            **body,
        }
        text = json.dumps({k: v for k, v in entry.items() if v is not MISSING})
    path = cache.path_for(target)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path, text


class TestNonObjectEntries:
    """A disk entry that is not an object, or whose header matches but
    whose body is malformed, is a miss — and garbage for ``gc``."""

    BODIES = [
        "[]",
        "null",
        '"x"',
        "7",
        pytest.param({"metrics": 7}, id="metrics-7"),
        pytest.param({"metrics": None}, id="metrics-null"),
        pytest.param({"metrics": {"$float": "nan"}}, id="metrics-nan"),
        pytest.param({"metrics": "x"}, id="metrics-str"),
        pytest.param({"metrics": []}, id="metrics-list"),
        pytest.param({"metrics": MISSING}, id="metrics-missing"),
        pytest.param({"metrics": {"makespan": {"$float": "x"}}}, id="metrics-bad-tag"),
        pytest.param({"elapsed_s": "x"}, id="elapsed-str"),
        pytest.param({"elapsed_s": MISSING}, id="elapsed-missing"),
    ]

    @pytest.mark.parametrize("body", BODIES)
    def test_get_counts_a_miss(self, tmp_path, body):
        cache = ResultCache(tmp_path)
        write_entry(cache, spec(4), body)
        assert cache.get(spec(4)) is None
        assert cache.stats.misses == 1

    @pytest.mark.parametrize("body", BODIES)
    def test_gc_removes_it(self, tmp_path, body):
        cache = ResultCache(tmp_path)
        path, _ = write_entry(cache, spec(4), body)
        assert cache.gc() == 1
        assert not path.exists()

    @pytest.mark.parametrize("body", BODIES)
    def test_campaign_recomputes_and_overwrites(self, tmp_path, body):
        cache = ResultCache(tmp_path)
        target = InstanceSpec(workload="cholesky", size=4, algorithm="heft-avg")
        path, text = write_entry(cache, target, body)
        outcome = run_campaign([target], jobs=1, cache=cache)
        assert outcome.stats.executed == 1
        assert not outcome.records[0].cached
        assert path.read_text() != text
        fresh = ResultCache(tmp_path)
        entry = fresh.get(target)
        assert entry is not None and fresh.stats.disk_hits == 1
        assert entry["metrics"]["makespan"] == outcome.records[0].metrics["makespan"]


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


class TestKeysAreTypeExact:
    """A spec's key is its own content address, whatever was keyed before.

    Specs that compare equal can still encode differently: ``4`` and
    ``4.0`` (or ``1`` and ``True``) are ``==`` with equal hashes, but
    their canonical JSON differs.  A key memo shared between such specs
    would hand the second one the first one's key.
    """

    @staticmethod
    def content_address(cache: ResultCache, target: InstanceSpec) -> str:
        payload = canonical_dumps(
            {"salt": cache.salt_for(target), "spec": target.to_dict()}
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    @pytest.mark.parametrize(
        "field_name, one, other",
        [("params", (("width", 4),), (("width", 4.0),)), ("seed", 1, True)],
    )
    def test_key_does_not_depend_on_call_order(
        self, tmp_path, field_name, one, other
    ):
        def make(value) -> InstanceSpec:
            fields = {"seed": 3, field_name: value}
            return InstanceSpec(
                workload="layered", size=4, algorithm="heteroprio",
                mode="independent", bound="area", **fields,
            )

        assert make(one) == make(other)
        cache = ResultCache(tmp_path)
        expected = (
            self.content_address(cache, make(one)),
            self.content_address(cache, make(other)),
        )
        assert expected[0] != expected[1]
        # Each order keys fresh objects of both spellings.
        one_first = cache.key(make(one)), cache.key(make(other))
        other_first = cache.key(make(other)), cache.key(make(one))
        assert one_first == expected
        assert other_first == expected[::-1]


class TestSpecHashPins:
    """Literal content addresses: memoising the hash moves no key."""

    @pytest.mark.parametrize(
        "target, code_version, other",
        [
            (
                InstanceSpec(workload="cholesky", size=4, algorithm="heteroprio-min"),
                "bc045692e8fb4a94389f9cf1ab039473661dfc432af8b00fe2b9c8d4494456f6",
                "e36bdef2b1e71c1544c4c999c9f4fcb46b587c72f2e56986b0253bc9c1b6c1bb",
            ),
            (
                InstanceSpec(
                    workload="qr", size=8, algorithm="dualhp",
                    mode="independent", bound="area",
                ),
                "d5d0337aca0fc30149ffe2f8fe89a29d848967a5f60ec0dab59cf3de524e25a5",
                "2190c0f41200be08b097d48931bbf5e32105ec2f97f2b3caa7f28a11900d9779",
            ),
            (
                InstanceSpec(
                    workload="layered", size=16, algorithm="heft",
                    mode="independent", bound="area", seed=7,
                    params=(("width", 4.0),),
                ),
                "357ee3fa3398bbd9c80be7da8e8f2328ccb275b744817861922d095e9d7c82a2",
                "748060474268b88b50760af5bfde3f00ae4cd53ccf00f02750142bb4e8e6ee7b",
            ),
            (
                InstanceSpec(
                    workload="chains", size=8, algorithm="heteroprio-avg",
                    num_cpus=2, num_gpus=1, seed=11,
                ),
                "581c4a5f4a85fcc372707c87e0d4eab66b7364cf43768e17839025fbde83d2cc",
                "57e8a15ace9580a486eb11582a8bceb3b4aa30179261f0c84a770c398c6ad563",
            ),
        ],
        ids=["cholesky-dag", "qr-independent", "layered-params", "chains-seeded"],
    )
    def test_pinned(self, target, code_version, other):
        for _ in range(2):  # computed, then memoised
            assert target.spec_hash() == code_version
            assert target.spec_hash(salt="other") == other
        fresh = InstanceSpec.from_dict(target.to_dict())
        assert fresh.spec_hash(salt="other") == other
        assert fresh.spec_hash() == code_version
