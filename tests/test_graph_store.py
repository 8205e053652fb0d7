"""Tests for the content-addressed compiled-graph store and its wiring.

The store must behave like the result cache it mirrors: stable keys
under a salt, atomic sharded entries, and every failure mode (missing
file, corrupt file, foreign salt, hash-collision lookalike) degrading
to a miss — never to a wrong graph.  The executor wiring must populate
``<cache root>/graphs`` during a cached campaign and serve later
processes from it without changing any metric.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import io
from repro.campaign import InstanceSpec, ResultCache, run_campaign
from repro.campaign import executor as executor_mod
from repro.campaign.cache import _encode_value
from repro.campaign.graph_store import GRAPH_FORMAT_VERSION, GraphStore
from repro.dag.cholesky import cholesky_compiled
from repro.dag.compiled import CompiledGraph


def canon(metrics: dict) -> str:
    return io.canonical_dumps(_encode_value(metrics))


@pytest.fixture(autouse=True)
def _isolate_store():
    """Never leak a test store (or memoized graphs) into other tests."""
    yield
    executor_mod.set_graph_store(None)


def graphs_equal(a: CompiledGraph, b: CompiledGraph) -> bool:
    return (
        a.name == b.name
        and a.kinds == b.kinds
        and a.labels == b.labels
        and np.array_equal(a.cpu_times, b.cpu_times)
        and np.array_equal(a.gpu_times, b.gpu_times)
        and np.array_equal(a.succ_indptr, b.succ_indptr)
        and np.array_equal(a.succ_indices, b.succ_indices)
        and np.array_equal(a.pred_indptr, b.pred_indptr)
        and np.array_equal(a.pred_indices, b.pred_indices)
    )


class TestGraphStore:
    def test_round_trip(self, tmp_path):
        store = GraphStore(tmp_path)
        graph = cholesky_compiled(5)
        assert store.get("cholesky", 5) is None
        path = store.put(graph, "cholesky", 5)
        assert path.exists()
        assert path.parent.parent == store.root
        assert len(path.parent.name) == 2  # two-hex-digit shard
        loaded = store.get("cholesky", 5)
        assert loaded is not None
        assert graphs_equal(loaded, graph)
        assert len(store) == 1

    def test_key_is_stable_and_sensitive(self, tmp_path):
        store = GraphStore(tmp_path)
        key = store.key("cholesky", 5)
        assert key == store.key("cholesky", 5)
        assert len(key) == 64
        assert key != store.key("cholesky", 6)
        assert key != store.key("qr", 5)
        assert key != store.key("cholesky", 5, timing="noisy")
        other = GraphStore(tmp_path, salt="other-version")
        assert key != other.key("cholesky", 5)

    def test_different_salt_misses(self, tmp_path):
        writer = GraphStore(tmp_path, salt="v1")
        writer.put(cholesky_compiled(4), "cholesky", 4)
        reader = GraphStore(tmp_path, salt="v2")
        assert reader.get("cholesky", 4) is None
        # Same salt still hits.
        assert GraphStore(tmp_path, salt="v1").get("cholesky", 4) is not None

    def test_missing_and_corrupt_entries_are_misses(self, tmp_path):
        store = GraphStore(tmp_path)
        assert store.get("lu", 3) is None  # nothing written yet
        path = store.put(cholesky_compiled(3), "cholesky", 3)
        path.write_bytes(b"not an npz archive")
        assert store.get("cholesky", 3) is None
        path.write_bytes(b"")
        assert store.get("cholesky", 3) is None

    def test_wrong_key_under_same_path_is_a_miss(self, tmp_path):
        # Simulate a hash collision: an entry whose embedded metadata
        # disagrees with the requested key must read as a miss.
        store = GraphStore(tmp_path)
        source = store.put(cholesky_compiled(4), "cholesky", 4)
        target = store.path_for("cholesky", 9)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(source.read_bytes())
        assert store.get("cholesky", 9) is None
        assert store.get("cholesky", 4) is not None

    def test_put_overwrites_atomically(self, tmp_path):
        store = GraphStore(tmp_path)
        store.put(cholesky_compiled(4), "cholesky", 4)
        store.put(cholesky_compiled(4), "cholesky", 4)  # idempotent overwrite
        assert len(store) == 1
        assert not list(store.root.rglob(".tmp-*"))  # no temp litter

    def test_iter_paths_and_clear(self, tmp_path):
        store = GraphStore(tmp_path)
        for size in (3, 4, 5):
            store.put(cholesky_compiled(size), "cholesky", size)
        paths = list(store.iter_paths())
        assert len(paths) == 3 == len(store)
        assert store.clear() == 3
        assert len(store) == 0
        assert store.get("cholesky", 3) is None

    def test_format_version_participates_in_key(self, tmp_path):
        store = GraphStore(tmp_path)
        meta = store._meta("cholesky", 4, "reference")
        assert meta["format"] == GRAPH_FORMAT_VERSION


class TestExecutorWiring:
    def specs(self):
        return [
            InstanceSpec(workload="cholesky", size=4, algorithm=algorithm)
            for algorithm in ("heteroprio-min", "heft-avg")
        ] + [InstanceSpec(workload="qr", size=4, algorithm="heteroprio-min")]

    def test_campaign_populates_store(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        outcome = run_campaign(self.specs(), cache=cache)
        store = GraphStore(tmp_path / "cache" / "graphs")
        assert (tmp_path / "cache" / "graphs").is_dir()
        assert store.get("cholesky", 4) is not None
        assert store.get("qr", 4) is not None
        assert outcome.stats.executed == len(self.specs())

    def test_store_served_graphs_reproduce_metrics(self, tmp_path):
        specs = self.specs()
        cache = ResultCache(tmp_path / "cache")
        reference = run_campaign(specs, cache=cache)
        # A fresh process would see a cold memo but a warm store; model
        # that by clearing the memo and re-running against a new cache
        # that shares nothing except the graphs directory.
        store_root = cache.root / "graphs"
        executor_mod.set_graph_store(GraphStore(store_root))
        again = run_campaign(specs, cache=ResultCache(tmp_path / "cache2"))
        for a, b in zip(reference.records, again.records):
            assert canon(a.metrics) == canon(b.metrics)
        assert again.stats.hits == 0  # fresh result cache: graphs, not metrics

    def test_set_graph_store_clears_memo(self, tmp_path):
        executor_mod.set_graph_store(GraphStore(tmp_path / "a"))
        first = executor_mod._compiled_workload("cholesky", 4)
        assert executor_mod._compiled_workload("cholesky", 4) is first
        executor_mod.set_graph_store(GraphStore(tmp_path / "b"))
        second = executor_mod._compiled_workload("cholesky", 4)
        assert second is not first

    def test_random_families_take_compiled_path(self):
        for workload in ("layered", "chains"):
            graph = executor_mod._campaign_graph(workload, 4, 1, ())
            assert isinstance(graph, CompiledGraph)

    def test_factorizations_take_compiled_path(self):
        graph = executor_mod._campaign_graph("cholesky", 4, None, ())
        assert isinstance(graph, CompiledGraph)


def _race_writer(root: str, rounds: int) -> None:
    """Child process body: repeatedly overwrite the same store entry.

    Module-level so the fork/spawn context can target it.  Uses a fixed
    salt so the parent's reads address the same key without recomputing
    selective salts in every child.
    """
    store = GraphStore(root, salt="race")
    graph = cholesky_compiled(5)
    for _ in range(rounds):
        store.put(graph, "cholesky", 5)


class TestConcurrentWriters:
    def test_racing_writers_never_produce_torn_reads(self, tmp_path):
        """Two processes hammering one entry: reads are all-or-nothing.

        ``put`` writes to a tempfile and ``os.replace``s it into place,
        so a reader racing the writers must see either a miss (before
        the first replace lands) or a complete, valid graph — never a
        torn .npz and never an exception.
        """
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("no fork start method on this platform")
        ctx = multiprocessing.get_context("fork")
        rounds = 60
        procs = [
            ctx.Process(target=_race_writer, args=(str(tmp_path), rounds))
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        try:
            reader = GraphStore(tmp_path, salt="race")
            expected = cholesky_compiled(5)
            hits = 0
            while any(proc.is_alive() for proc in procs):
                got = reader.get("cholesky", 5)
                if got is not None:
                    hits += 1
                    assert graphs_equal(got, expected)
        finally:
            for proc in procs:
                proc.join(timeout=60)
                assert proc.exitcode == 0
        # The dust has settled: the entry is durable and intact.
        final = reader.get("cholesky", 5)
        assert final is not None and graphs_equal(final, expected)
        assert not list(reader.root.rglob(".tmp-*"))  # no temp litter
        assert hits > 0  # the race actually overlapped with reads
