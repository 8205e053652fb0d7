"""Tests for per-module cache salts (repro.campaign.salts).

The selective-invalidation contract: a spec's cache salt digests the
normalized-AST fingerprints of exactly the modules its execution path
can reach, so a semantic edit re-keys the affected entries and *only*
those.  The roots come from the executor's own dispatch
(:func:`repro.campaign.executor.spec_roots`); the soundness test traces
real executions and checks that every salted module whose functions
ran lies inside the derived closure.  The end-to-end test at the bottom
proves selectivity on a real campaign: edit one scheduler module (via
the fingerprint-override seam), rerun a mixed grid, and watch only the
closure-affected instances recompute.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

from repro import io
from repro.analysis.fingerprint import SALTED_PACKAGES
from repro.campaign import InstanceSpec, ResultCache, run_campaign
from repro.campaign import executor, salts
from repro.campaign.cache import encode_value
from repro.campaign.executor import derive_seeds, spec_roots
from repro.campaign.spec import CODE_VERSION


def canon(metrics: dict) -> str:
    return io.canonical_dumps(encode_value(metrics))


@pytest.fixture(autouse=True)
def _clean_overrides():
    """Never leak a fingerprint override (or stale memos) across tests."""
    yield
    salts.set_fingerprint_override(None)


def spec_dag(algorithm: str, workload: str = "cholesky", size: int = 4) -> InstanceSpec:
    return InstanceSpec(workload=workload, size=size, algorithm=algorithm)


def spec_ind(algorithm: str, workload: str = "cholesky", size: int = 4) -> InstanceSpec:
    return InstanceSpec(
        workload=workload, size=size, algorithm=algorithm,
        mode="independent", bound="area",
    )


class TestClosures:
    def test_closure_contains_roots_and_their_imports(self):
        closure = salts.dependency_closure(("repro/schedulers/online/heft.py",))
        assert "repro/schedulers/online/heft.py" in closure
        # heft imports the shared online-policy base machinery.
        assert any(rel.startswith("repro/schedulers/online/") for rel in closure)

    def test_init_edges_are_weak(self):
        # __init__.py re-export hubs must not drag the whole package in:
        # their outgoing edges are dropped from the import graph.
        graph = salts.import_graph()
        for rel, edges in graph.items():
            if rel.endswith("__init__.py"):
                assert edges == ()

    def test_dag_policies_have_distinct_closures(self):
        hp = salts.dependency_closure(spec_roots(spec_dag("heteroprio-avg")))
        heft = salts.dependency_closure(spec_roots(spec_dag("heft-avg")))
        assert "repro/schedulers/online/heteroprio.py" in hp
        assert "repro/schedulers/online/heteroprio.py" not in heft
        assert "repro/schedulers/online/heft.py" in heft
        # The batch engine rides with every batch-routable dag family
        # (HeteroPrio, HEFT, DualHP); the buckets family stays scalar.
        assert "repro/simulator/batch.py" in hp
        assert "repro/simulator/batch.py" in heft
        buckets = salts.dependency_closure(spec_roots(spec_dag("buckets-avg")))
        assert "repro/simulator/batch.py" not in buckets
        # Random DAG workloads never batch (_batch_key), so neither do
        # their closures carry the engine.
        layered = InstanceSpec(workload="layered", size=3, algorithm="heft-avg", seed=1)
        assert "repro/simulator/batch.py" not in salts.dependency_closure(
            spec_roots(layered)
        )

    def test_independent_mode_skips_the_dag_simulator(self):
        ind = salts.dependency_closure(spec_roots(spec_ind("heft")))
        assert "repro/simulator/runtime.py" not in ind
        assert "repro/schedulers/heft.py" in ind

    def test_roots_name_the_defining_modules_not_reexport_hubs(self):
        roots = spec_roots(spec_dag("dualhp-min"))
        assert "repro/simulator/runtime.py" in roots
        assert "repro/simulator/__init__.py" not in roots
        # make_policy's own module is a root (it carries the dispatch);
        # its re-export edges stay dropped.
        assert "repro/schedulers/online/__init__.py" in roots
        assert "repro/schedulers/online/dualhp.py" in roots
        assert "repro/core/heteroprio.py" in spec_roots(spec_ind("heteroprio"))

    def test_unknown_spec_widens_to_all_modules(self):
        spec = spec_dag("heft-avg", workload="mystery")
        assert spec_roots(spec) is None
        widest = salts.closure_salt(salts.live_fingerprints(), base=CODE_VERSION)
        assert salts.salt_for_spec(spec, base=CODE_VERSION) == widest
        unknown_policy = spec_dag("magic-avg")
        assert salts.salt_for_spec(unknown_policy, base=CODE_VERSION) == widest


class TestSalts:
    def test_salt_format_and_determinism(self):
        salt = salts.salt_for_spec(spec_dag("heteroprio-avg"), base=CODE_VERSION)
        assert salt.startswith(CODE_VERSION + "+m")
        assert len(salt) == len(CODE_VERSION) + 2 + 16
        assert salt == salts.salt_for_spec(spec_dag("heteroprio-avg"), base=CODE_VERSION)

    def test_base_is_part_of_the_salt(self):
        spec = spec_dag("heteroprio-avg")
        assert salts.salt_for_spec(spec, base="a") != salts.salt_for_spec(spec, base="b")

    def test_override_perturbs_only_affected_salts(self):
        hp_spec, heft_spec = spec_dag("heteroprio-avg"), spec_dag("heft-avg")
        before_hp = salts.salt_for_spec(hp_spec, base=CODE_VERSION)
        before_heft = salts.salt_for_spec(heft_spec, base=CODE_VERSION)
        salts.set_fingerprint_override(
            {"repro/schedulers/online/heft.py": "deadbeef" * 8}
        )
        assert salts.salt_for_spec(hp_spec, base=CODE_VERSION) == before_hp
        assert salts.salt_for_spec(heft_spec, base=CODE_VERSION) != before_heft

    def test_workload_salt_tracks_the_generator_closure(self):
        # qr.py imports cholesky.py (shared tiled-DAG helpers), so the
        # edit direction matters: perturb qr and cholesky must hold.
        before = salts.workload_salt("qr", base=CODE_VERSION)
        other = salts.workload_salt("cholesky", base=CODE_VERSION)
        salts.set_fingerprint_override({"repro/dag/qr.py": "feedface" * 8})
        assert salts.workload_salt("qr", base=CODE_VERSION) != before
        assert salts.workload_salt("cholesky", base=CODE_VERSION) == other


#: The traced families: every independent scheduler and every DAG
#: policy, over every workload generator the executor dispatches.
TRACE_FAMILIES = [
    (mode, algorithm, workload)
    for workload in ("cholesky", "qr", "lu", "layered", "chains")
    for mode, algorithms in (
        ("independent", ("heteroprio", "dualhp", "heft")),
        ("dag", ("heteroprio-avg", "heft-avg", "dualhp-avg", "buckets-avg")),
    )
    for algorithm in algorithms
]

_SRC = Path(executor.__file__).resolve().parents[2]
_SALTED_DIRS = tuple(str(_SRC / "repro" / package) + "/" for package in SALTED_PACKAGES)


def _salted_modules_run(fn, *args):
    """``(salted modules whose Python functions ran, result)`` of ``fn(*args)``."""
    files: set[str] = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name != "<module>":
            files.add(frame.f_code.co_filename)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    modules = {
        Path(name).resolve().relative_to(_SRC).as_posix()
        for name in files
        if str(Path(name).resolve()).startswith(_SALTED_DIRS)
    }
    return modules, result


def _batch_group(spec: InstanceSpec) -> list[InstanceSpec]:
    """A 4-row lockstep group around *spec* (seeds or rankings vary)."""
    if spec.seed is not None:
        return [spec.with_seed(seed) for seed in derive_seeds(spec.seed, 4)]
    if spec.mode == "dag":
        prefix = spec.algorithm.split("-", 1)[0]
        return [
            dataclasses.replace(spec, algorithm=f"{prefix}-{ranking}")
            for ranking in ("avg", "min", "avg", "min")
        ]
    return [spec] * 4


class TestClosureSoundness:
    @pytest.fixture(autouse=True)
    def _clean_overrides(self):
        """No override is set here, so keep one scan of the tree."""
        yield

    @pytest.mark.parametrize("mode, algorithm, workload", TRACE_FAMILIES)
    def test_every_executed_salted_module_is_in_the_closure(
        self, mode, algorithm, workload
    ):
        spec = InstanceSpec(
            workload=workload,
            size=3,
            algorithm=algorithm,
            mode=mode,
            bound="area" if mode == "independent" else "auto",
            seed=11 if workload in ("layered", "chains") else None,
        )
        # Cold memos, no graph store: every generator, bound and
        # simulator entry actually runs under the profiler.
        executor.set_graph_store(None)
        executor._workload_graph.cache_clear()
        executor._dag_bound.cache_clear()
        ran, _ = _salted_modules_run(executor.execute_spec, spec)
        if executor._batch_key(spec) is not None:
            group = _batch_group(spec)
            batch_ran, payloads = _salted_modules_run(executor.execute_spec_batch, group)
            assert payloads is not None and len(payloads) == len(group)
            ran |= batch_ran
        closure = set(salts.dependency_closure(spec_roots(spec)))
        assert ran, "the profiler saw no salted module run"
        assert ran <= closure, sorted(ran - closure)


class TestSelectiveInvalidationEndToEnd:
    def test_editing_one_policy_recomputes_only_its_instances(self, tmp_path):
        """The tentpole demonstration: one edited module, partial recompute."""
        specs = [
            spec_dag(algorithm, size=size)
            for size in (4, 5)
            for algorithm in ("heteroprio-avg", "heteroprio-min", "heft-avg")
        ]
        heft_count = sum(s.algorithm.startswith("heft") for s in specs)

        cache = ResultCache(tmp_path)
        cold = run_campaign(specs, jobs=1, cache=cache)
        assert cold.stats.executed == len(specs)

        # Same tree, fresh cache object: every instance hits.
        warm = run_campaign(specs, jobs=1, cache=ResultCache(tmp_path))
        assert warm.stats.hits == len(specs) and warm.stats.executed == 0

        # "Edit" the heft policy module without touching the tree.
        salts.set_fingerprint_override(
            {"repro/schedulers/online/heft.py": "0" * 64}
        )
        after = run_campaign(specs, jobs=1, cache=ResultCache(tmp_path))
        assert after.stats.hits == len(specs) - heft_count
        assert after.stats.executed == heft_count
        # CampaignStats proves the split came from the disk tier.
        assert after.stats.disk_hits == len(specs) - heft_count

        # The recompute landed under the new salt: a rerun is all hits
        # again, and the metrics never changed (the code didn't really).
        again = run_campaign(specs, jobs=1, cache=ResultCache(tmp_path))
        assert again.stats.hits == len(specs)
        for a, b in zip(cold.records, again.records):
            assert canon(a.metrics) == canon(b.metrics)
