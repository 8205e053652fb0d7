"""Parallel, cache-backed execution of campaign spec sets.

:func:`run_campaign` is the engine's entry point: given a sequence of
:class:`~repro.campaign.spec.InstanceSpec` it

1. serves every spec already present in the (optional) result cache;
2. fans the misses out over a ``multiprocessing`` pool (``jobs > 1``)
   or runs them inline (``jobs = 1`` — the bit-for-bit serial
   reference path, also the automatic fallback when there is at most
   one miss);
3. stores fresh results back into the cache and emits per-instance
   progress events plus aggregate :class:`CampaignStats`.

Every spec is executed by the pure function :func:`execute_spec`, in
the parent or in a worker alike, so parallelism can never change a
metric: simulators are deterministic given the spec, and the per-spec
seeds of random workloads are derived up front
(:func:`derive_seeds`, ``numpy.random.SeedSequence.spawn`` semantics)
rather than drawn from shared state.

Within one process, workload graphs and dependency-aware lower bounds
are memoised: consecutive specs that share a (workload, size, seed)
reuse the graph and its bound exactly like the legacy hand-rolled
sweeps did, so routing an experiment through the engine costs no extra
simulator work.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.bounds.area import area_bound
from repro.bounds.dag_lp import dag_lower_bound
from repro.campaign.backends import (
    UnitResult,
    WorkUnit,
    resolve_backend,
    run_work_stealing,
)
from repro.campaign.cache import ResultCache
from repro.campaign.graph_store import GraphStore
from repro.campaign.spec import InstanceSpec
from repro.campaign.telemetry import CampaignEvent, CampaignStats, write_manifest
from repro.core.heteroprio import heteroprio_schedule
from repro.core.platform import Platform
from repro.core.task import Instance
from repro.dag.compiled import CompiledGraph
from repro.dag.graph import TaskGraph
from repro.dag.cholesky import cholesky_compiled
from repro.dag.lu import lu_compiled
from repro.dag.priorities import assign_priorities
from repro.dag.qr import qr_compiled
from repro.dag.random_graphs import layered_random_graph, random_chain_graph
from repro.schedulers.batch import batch_dualhp_schedule, batch_heft_schedule
from repro.schedulers.dualhp import dualhp_schedule
from repro.schedulers.heft import heft_schedule
from repro.schedulers.online import POLICIES, make_policy
from repro.simulator.batch import batch_heteroprio_schedule, batch_simulate_dag
from repro.simulator.metrics import RunMetrics, compute_metrics
from repro.simulator.runtime import simulate

__all__ = [
    "CampaignRecord",
    "CampaignOutcome",
    "run_campaign",
    "execute_spec",
    "execute_spec_batch",
    "execute_spec_cached",
    "execute_unit",
    "derive_seeds",
    "dispatch_roots",
    "ensure_graph_store",
    "fallback_breakdown",
    "metrics_to_run_metrics",
    "plan_batches",
    "plan_units",
    "set_graph_store",
    "spec_roots",
    "workload_root",
]

#: The RunMetrics field names, in declaration order — the schema of the
#: per-instance metrics payload in ``dag`` mode.
RUN_METRIC_FIELDS = tuple(f.name for f in dataclasses.fields(RunMetrics))

ProgressCallback = Callable[[CampaignEvent], None]

#: Compiled (struct-of-arrays) builders of the tiled factorization
#: families — the path every campaign spec over a factorization takes.
COMPILED_FACTORIZATIONS: dict[str, Callable[..., CompiledGraph]] = {
    "cholesky": cholesky_compiled,
    "qr": qr_compiled,
    "lu": lu_compiled,
}

#: Seeded random family generators by name.  Like every dispatch table
#: here it maps straight to the function: :func:`spec_roots` reads the
#: function's module, and perfbench's tracer rebinds module globals and
#: dict values (never tuple members or partials) to wrap it.
RANDOM_FAMILIES: dict[str, Callable[..., TaskGraph]] = {
    "layered": layered_random_graph,
    "chains": random_chain_graph,
}

#: The ``params`` key of each random family's second shape argument
#: (layer width / chain length; defaults to the spec's size).
_EXTENT_PARAMS = {"layered": "width", "chains": "length"}


@dataclass(frozen=True)
class CampaignRecord:
    """One executed (or cache-served) instance of a campaign."""

    spec: InstanceSpec
    metrics: dict
    cached: bool
    elapsed_s: float


@dataclass
class CampaignOutcome:
    """Everything :func:`run_campaign` produces."""

    records: list[CampaignRecord]
    stats: CampaignStats

    def metrics_for(self, spec: InstanceSpec) -> dict:
        for record in self.records:
            if record.spec == spec:
                return record.metrics
        raise KeyError(f"spec not part of this campaign: {spec.label()}")


# -- deterministic seeding ----------------------------------------------------


def derive_seeds(root_seed: int, count: int) -> tuple[int, ...]:
    """Derive *count* independent per-instance seeds from one root seed.

    Uses ``numpy.random.SeedSequence.spawn`` so the streams are
    statistically independent and the derivation is stable across
    processes and platforms — a sweep seeded this way is reproducible
    regardless of how its specs are later chunked over workers.
    """
    children = np.random.SeedSequence(root_seed).spawn(count)
    return tuple(int(c.generate_state(1, dtype=np.uint64)[0]) for c in children)


# -- single-spec execution ----------------------------------------------------


#: Process-global compiled-graph store.  ``run_campaign`` installs one
#: next to its result cache before dispatching work; forked workers
#: inherit the handle, so every process of a campaign shares the same
#: on-disk graphs.  ``None`` keeps the pipeline purely in memory.
_graph_store: GraphStore | None = None


def set_graph_store(store: GraphStore | None) -> None:
    """Install (or remove) the process-global compiled-graph store.

    Clears the in-memory graph memo so already-built graphs are
    re-resolved against the new store's contents.
    """
    # repro-lint: disable=fork-unsafe-state -- the graph store is per-process by design
    # Forked workers inherit the parent's handle; spawn-started workers
    # re-install it from the (root, salt) pair shipped in the worker
    # args — both paths converge on the same on-disk store.
    global _graph_store
    _graph_store = store
    _compiled_workload.cache_clear()


def ensure_graph_store(root: Path | str, *, salt: str) -> None:
    """Idempotently point the process-global graph store at *root*.

    Keeps the current store — and the in-memory graph memo — when it
    already matches, so back-to-back campaigns (or a long-lived service
    next to a CLI run) rebuild nothing.
    """
    root = Path(root)
    if _graph_store is None or _graph_store.root != root or _graph_store.salt != salt:
        set_graph_store(GraphStore(root, salt=salt))


@lru_cache(maxsize=8)
def _compiled_workload(workload: str, size: int) -> CompiledGraph:
    """One factorization's compiled graph: store hit, else build and publish."""
    store = _graph_store
    if store is not None:
        cached = store.get(workload, size)
        if cached is not None:
            return cached
    compiled = COMPILED_FACTORIZATIONS[workload](size)
    if store is not None:
        store.put(compiled, workload, size)
    return compiled


def _campaign_graph(
    workload: str,
    size: int,
    seed: int | None,
    params: tuple[tuple[str, float], ...],
) -> TaskGraph | CompiledGraph:
    """The graph behind one spec: compiled for factorizations, dict otherwise.

    The random families stay on the tracker path — their generators are
    seeded per spec, so there is nothing to share across workers.
    """
    if workload in COMPILED_FACTORIZATIONS:
        return _compiled_workload(workload, size)
    return _workload_graph(workload, size, seed, params)


@lru_cache(maxsize=8)
def _workload_graph(
    workload: str,
    size: int,
    seed: int | None,
    params: tuple[tuple[str, float], ...],
) -> TaskGraph:
    """Build (and memoise per process) one random family's task graph."""
    try:
        generator = RANDOM_FAMILIES[workload]
    except KeyError:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of "
            f"{sorted(COMPILED_FACTORIZATIONS)} or {sorted(RANDOM_FAMILIES)}"
        ) from None
    options = dict(params)
    extent = int(options.pop(_EXTENT_PARAMS[workload], size))
    return generator(size, extent, rng=np.random.default_rng(seed), **options)


@lru_cache(maxsize=64)
def _dag_bound(
    workload: str,
    size: int,
    seed: int | None,
    params: tuple[tuple[str, float], ...],
    num_cpus: int,
    num_gpus: int,
    method: str,
) -> float:
    """Memoised dependency-aware lower bound (priority-independent)."""
    graph = _campaign_graph(workload, size, seed, params)
    if isinstance(graph, CompiledGraph):
        # The LP bound iterates ``edges()``; the materialized view lists
        # them in tracker discovery order, so its rows are bit-identical.
        graph = graph.as_task_graph()
    platform = Platform(num_cpus=num_cpus, num_gpus=num_gpus)
    return dag_lower_bound(graph, platform, method=method)


#: ``independent``-mode schedulers, plus the keyword options the
#: executor passes them (HeteroPrio skips the ns-level accounting the
#: payload never reads).  The options live apart because a lambda would
#: name this unsalted module as the scheduler's, and a partial would
#: hide the function from perfbench's tracer.
_INDEPENDENT_SCHEDULERS: dict[str, Callable[..., Any]] = {
    "heteroprio": heteroprio_schedule,
    "dualhp": dualhp_schedule,
    "heft": heft_schedule,
}
_SCHEDULER_OPTIONS: dict[str, dict[str, bool]] = {"heteroprio": {"compute_ns": False}}


def execute_spec(spec: InstanceSpec) -> dict:
    """Run one spec to completion and return its metrics payload.

    Pure in the campaign sense: equal specs yield equal payloads, in
    any process, in any order.  ``independent`` mode reproduces the
    Figure 6 pipeline (tasks as an independent set, area-bound
    normalisation); ``dag`` mode the Figure 7-9 pipeline (priority
    assignment, runtime simulation, Section 6.2 metrics).
    """
    graph = _campaign_graph(spec.workload, spec.size, spec.seed, spec.params)
    platform = spec.platform
    if spec.mode == "independent":
        if spec.bound not in ("area", "auto"):
            raise ValueError(
                f"independent mode uses the area bound, not {spec.bound!r}"
            )
        try:
            scheduler = _INDEPENDENT_SCHEDULERS[spec.algorithm]
        except KeyError:
            raise ValueError(
                f"unknown independent algorithm {spec.algorithm!r}; expected "
                f"one of {sorted(_INDEPENDENT_SCHEDULERS)}"
            ) from None
        instance = graph.to_instance()
        # The memoised graph shares Task objects across specs; a dag-mode
        # spec may have left bottom-level priorities behind, and priority
        # breaks acceleration-factor ties.  Reset to the generator state
        # so the payload is a pure function of the spec.
        for task in instance:
            task.priority = 0.0
        bound = area_bound(instance, platform).value
        options = _SCHEDULER_OPTIONS.get(spec.algorithm, {})
        makespan = scheduler(instance, platform, **options).makespan
        return {
            "makespan": makespan,
            "lower_bound": bound,
            "ratio": makespan / bound if bound > 0 else float("inf"),
        }

    scheme = spec.algorithm.split("-", 1)[1] if "-" in spec.algorithm else "avg"
    assign_priorities(graph, platform, scheme)
    lower = _dag_bound(
        spec.workload,
        spec.size,
        spec.seed,
        spec.params,
        spec.num_cpus,
        spec.num_gpus,
        spec.bound,
    )
    schedule = simulate(graph, platform, make_policy(spec.algorithm))
    run = compute_metrics(schedule, platform, lower_bound=lower)
    metrics = dataclasses.asdict(run)
    metrics["ratio"] = run.ratio
    return metrics


def metrics_to_run_metrics(metrics: dict) -> RunMetrics:
    """Rebuild a :class:`RunMetrics` from a ``dag``-mode payload."""
    return RunMetrics(**{name: metrics[name] for name in RUN_METRIC_FIELDS})


# -- lockstep batch execution -------------------------------------------------

#: Smallest miss group worth routing through the lockstep batch engine;
#: below this the per-batch numpy setup outweighs the vectorization win.
#: Independent-mode DualHP groups must also reach
#: :data:`DUALHP_CROSSOVER`.
MIN_BATCH = 4

#: Smallest independent-mode DualHP group the lockstep engine runs
#: faster than per-row scalar searches.  Measured by
#: ``benchmarks/bench_dualhp_crossover.py`` as batch time over scalar
#: time on ``layered`` rows of 64 / 256 tasks: 2.1 / 1.3 at 16 rows,
#: 1.3 / 0.75 at 32, 0.96 / 0.54 at 64 — 32 rows is where the two
#: sizes break even on (geometric) average.  Applies on top of the
#: caller's ``min_batch``.
DUALHP_CROSSOVER = 32


#: Algorithms with a lockstep batch implementation.  ``independent``
#: mode routes through these offline batch schedulers; ``dag`` mode
#: through the policy kernels of :mod:`repro.simulator.batch_policies`
#: (keyed by prefix — the ranking scheme varies per row inside one
#: batch).
_BATCH_INDEPENDENT_SCHEDULERS = {
    "heteroprio": batch_heteroprio_schedule,
    "dualhp": batch_dualhp_schedule,
    "heft": batch_heft_schedule,
}
_BATCH_DAG_PREFIXES = frozenset({"heteroprio", "dualhp", "heft"})


def _batch_key(spec: InstanceSpec) -> tuple | None:
    """Lockstep grouping key of *spec*, or ``None`` when not batchable.

    Specs sharing a key can advance together in the lockstep engines:
    the HeteroPrio, HEFT and DualHP families (each batch runs exactly
    one policy kernel, so the algorithm — the prefix, in ``dag`` mode —
    is part of the key), and in ``dag`` mode only the compiled
    factorizations — all rows of a DAG batch share one
    :class:`CompiledGraph`, so workload, size, seed and params must
    match while the ranking scheme (priorities) varies per row.
    ``independent`` rows need only the same *task count*, so the seed
    stays out of the key: a seed sweep is one batch.
    """
    platform_shape = (spec.num_cpus, spec.num_gpus)
    if spec.mode == "independent":
        if spec.algorithm not in _BATCH_INDEPENDENT_SCHEDULERS:
            return None
        if spec.bound not in ("area", "auto"):
            return None
        return (
            "independent",
            spec.algorithm,
            spec.workload,
            spec.size,
            spec.params,
            platform_shape,
        )
    if spec.algorithm.split("-", 1)[0] not in _BATCH_DAG_PREFIXES:
        return None
    if spec.workload not in COMPILED_FACTORIZATIONS:
        return None
    return (
        "dag",
        spec.algorithm.split("-", 1)[0],
        spec.workload,
        spec.size,
        spec.seed,
        spec.params,
        spec.bound,
        platform_shape,
    )


def _min_rows(key: tuple, min_batch: int) -> int:
    """Smallest group of batch key *key* that runs in lockstep."""
    if key[:2] == ("independent", "dualhp"):
        return max(min_batch, DUALHP_CROSSOVER)
    return min_batch


def plan_batches(
    specs: Sequence[InstanceSpec], *, min_batch: int = MIN_BATCH
) -> list[list[int]]:
    """Group indices of *specs* into lockstep-executable batches.

    Returns index lists (into *specs*) in first-appearance order.  A
    group runs in lockstep from *min_batch* members, or from
    :data:`DUALHP_CROSSOVER` for independent-mode DualHP when that is
    larger; specs left out of every group take the scalar
    :func:`execute_spec` path unchanged.
    """
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        key = _batch_key(spec)
        if key is not None:
            groups.setdefault(key, []).append(i)
    return [
        members
        for key, members in groups.items()
        if len(members) >= _min_rows(key, min_batch)
    ]


def _execute_independent_batch(specs: Sequence[InstanceSpec]) -> list[dict] | None:
    """Figure 6 pipeline over a whole seed sweep in one lockstep run."""
    instances = []
    for spec in specs:
        graph = _campaign_graph(spec.workload, spec.size, spec.seed, spec.params)
        tasks = tuple(graph.to_instance())
        # Same reset as execute_spec: priorities break acceleration ties.
        for task in tasks:
            task.priority = 0.0
        instances.append(tasks)
    n = len(instances[0])
    if any(len(tasks) != n for tasks in instances):
        return None  # ragged task counts: fall back to the scalar path
    cpu = np.array([[t.cpu_time for t in tasks] for tasks in instances])
    gpu = np.array([[t.gpu_time for t in tasks] for tasks in instances])
    batch_scheduler = _BATCH_INDEPENDENT_SCHEDULERS[specs[0].algorithm]
    result = batch_scheduler(cpu, gpu, [s.platform for s in specs])
    payloads = []
    for i, spec in enumerate(specs):
        bound = area_bound(Instance(instances[i]), spec.platform).value
        makespan = float(result.makespans[i])
        payloads.append(
            {
                "makespan": makespan,
                "lower_bound": bound,
                "ratio": makespan / bound if bound > 0 else float("inf"),
            }
        )
    return payloads


def _execute_dag_batch(specs: Sequence[InstanceSpec]) -> list[dict] | None:
    """Figure 7-9 pipeline over rows sharing one compiled graph."""
    first = specs[0]
    graph = _campaign_graph(first.workload, first.size, first.seed, first.params)
    if not isinstance(graph, CompiledGraph):
        return None
    priorities = np.empty((len(specs), len(graph)))
    for i, spec in enumerate(specs):
        scheme = spec.algorithm.split("-", 1)[1] if "-" in spec.algorithm else "avg"
        levels = assign_priorities(graph, spec.platform, scheme)
        priorities[i] = [levels[task] for task in graph.tasks]
    result = batch_simulate_dag(
        graph,
        [s.platform for s in specs],
        priorities,
        algorithm=first.algorithm.split("-", 1)[0],
    )
    payloads = []
    for i, spec in enumerate(specs):
        lower = _dag_bound(
            spec.workload,
            spec.size,
            spec.seed,
            spec.params,
            spec.num_cpus,
            spec.num_gpus,
            spec.bound,
        )
        run = compute_metrics(result.schedule(i), spec.platform, lower_bound=lower)
        metrics = dataclasses.asdict(run)
        metrics["ratio"] = run.ratio
        payloads.append(metrics)
    return payloads


def execute_spec_batch(specs: Sequence[InstanceSpec]) -> list[dict] | None:
    """Run one :func:`plan_batches` group through the lockstep engine.

    Returns the per-spec metrics payloads in *specs* order — each
    bit-identical to what :func:`execute_spec` would produce (the batch
    engine is pinned event-for-event to the scalar loops by
    ``tests/test_batch_differential.py``) — or ``None`` when the group
    turns out not to be batchable after all (ragged task counts, a
    non-compiled graph); callers then fall back to the scalar path.
    """
    if not specs:
        return []
    if specs[0].mode == "independent":
        return _execute_independent_batch(specs)
    return _execute_dag_batch(specs)


# -- salt roots ---------------------------------------------------------------


def _defining_module(fn: object) -> str:
    """The src-relative path of the module that defines *fn*.

    Read from ``__module__``, which ``functools.wraps`` preserves, so a
    wrapped callable still names the module it wraps.
    """
    name = fn.__module__
    stem = name.replace(".", "/")
    if hasattr(sys.modules[name], "__path__"):  # a package's __init__
        return f"{stem}/__init__.py"
    return f"{stem}.py"


def _workload_generator(workload: str) -> Callable[..., Any] | None:
    if workload in COMPILED_FACTORIZATIONS:
        return COMPILED_FACTORIZATIONS[workload]
    return RANDOM_FAMILIES.get(workload)


def workload_root(workload: str) -> str | None:
    """The module defining *workload*'s generator, or ``None`` if unknown."""
    generator = _workload_generator(workload)
    return None if generator is None else _defining_module(generator)


def spec_roots(spec: InstanceSpec) -> tuple[str, ...] | None:
    """The src-relative modules defining what the executor calls for *spec*.

    The cache-salt roots (:mod:`repro.campaign.salts` closes them over
    the import graph), read from the same tables and callables
    :func:`execute_spec` and :func:`execute_spec_batch` dispatch
    through: the workload generator; the independent scheduler, or the
    DAG policy class plus :func:`make_policy`; the bound; the DAG
    simulator, metrics and priority entries; and the lockstep entry
    when :func:`_batch_key` routes the spec there.  ``None`` when the
    spec names a workload or algorithm the executor does not dispatch —
    the salt then widens to every salted module.
    """
    generator = _workload_generator(spec.workload)
    called: list[object]
    if spec.mode == "independent":
        scheduler = _INDEPENDENT_SCHEDULERS.get(spec.algorithm)
        if generator is None or scheduler is None:
            return None
        called = [generator, scheduler, area_bound]
        if _batch_key(spec) is not None:
            called.append(_BATCH_INDEPENDENT_SCHEDULERS[spec.algorithm])
    else:
        policy = POLICIES.get(spec.algorithm.split("-", 1)[0])
        if generator is None or policy is None:
            return None
        called = [
            generator,
            policy,
            make_policy,
            dag_lower_bound,
            simulate,
            compute_metrics,
            assign_priorities,
        ]
        if _batch_key(spec) is not None:
            called.append(batch_simulate_dag)
    return tuple(sorted({_defining_module(fn) for fn in called}))


def dispatch_roots() -> tuple[str, ...]:
    """Union of :func:`spec_roots` over every family the executor dispatches.

    One spec per (workload, mode, algorithm) — the reference the
    ``flow-salt-coverage`` check holds the call graph against.
    """
    roots: set[str] = set()
    for workload in (*COMPILED_FACTORIZATIONS, *RANDOM_FAMILIES):
        seed = 0 if workload in RANDOM_FAMILIES else None
        specs = [
            InstanceSpec(workload, 1, algorithm, mode="independent", seed=seed)
            for algorithm in _INDEPENDENT_SCHEDULERS
        ] + [InstanceSpec(workload, 1, prefix, seed=seed) for prefix in POLICIES]
        for spec in specs:
            roots.update(spec_roots(spec) or ())
    return tuple(sorted(roots))


def fallback_breakdown(specs: Sequence[InstanceSpec]) -> dict[str, int]:
    """Per-algorithm counts of specs with no lockstep batch key.

    The attribution behind ``CampaignStats.fallback_by_algorithm`` and
    the dispatcher's ``prefetch_fallbacks``: which algorithms still pay
    the scalar path because no batch kernel implements them.
    """
    counts: dict[str, int] = {}
    for spec in specs:
        if _batch_key(spec) is None:
            counts[spec.algorithm] = counts.get(spec.algorithm, 0) + 1
    return dict(sorted(counts.items()))


def plan_units(
    specs: Sequence[InstanceSpec],
    *,
    batch: bool = True,
    min_batch: int = MIN_BATCH,
) -> tuple[list[WorkUnit], dict[str, int], int]:
    """Plan *specs* (a miss list) into backend work units.

    Lockstep groups that reach their planning threshold (*min_batch*,
    or :data:`DUALHP_CROSSOVER` for independent-mode DualHP when that is
    larger) become single batch units (kept whole — they are the steal
    granularity); everything else becomes one scalar unit per spec, in
    ascending index order.  Returns ``(units, fallback_policy,
    fallback_small)`` — ``fallback_policy`` maps each algorithm with no
    batch implementation to its count of scalar-path specs,
    ``fallback_small`` counts specs whose group was too small (both
    empty/0 when *batch* is off: no fallback happened, batching was
    never requested).
    """
    units: list[WorkUnit] = []
    fallback_policy: dict[str, int] = {}
    fallback_small = 0
    scalar: list[int] = []
    if batch:
        groups: dict[tuple, list[int]] = {}
        for i, spec in enumerate(specs):
            key = _batch_key(spec)
            if key is None:
                alg = spec.algorithm
                fallback_policy[alg] = fallback_policy.get(alg, 0) + 1
                scalar.append(i)
            else:
                groups.setdefault(key, []).append(i)
        for key, members in groups.items():
            if len(members) >= _min_rows(key, min_batch):
                units.append(
                    WorkUnit(
                        unit_id=len(units),
                        indices=tuple(members),
                        specs=tuple(specs[i] for i in members),
                        batched=True,
                    )
                )
            else:
                fallback_small += len(members)
                scalar.extend(members)
    else:
        scalar = list(range(len(specs)))
    for i in sorted(scalar):
        units.append(
            WorkUnit(
                unit_id=len(units),
                indices=(i,),
                specs=(specs[i],),
                batched=False,
            )
        )
    return units, fallback_policy, fallback_small


def execute_unit(unit: WorkUnit) -> UnitResult:
    """Run one work unit to completion (parent or worker alike).

    Batch units go through the lockstep engine with the per-spec
    elapsed time amortised over the rows; when the engine declines at
    run time (ragged task counts, a non-compiled graph) the unit's
    specs take the scalar path and the result is flagged
    ``batched=False`` so telemetry can count the runtime fallback.
    """
    if unit.batched:
        started = time.perf_counter()
        payloads = execute_spec_batch(list(unit.specs))
        if payloads is not None:
            elapsed = (time.perf_counter() - started) / len(unit.specs)
            return UnitResult(
                unit_id=unit.unit_id,
                payloads=payloads,
                elapsed=[elapsed] * len(unit.specs),
                batched=True,
            )
    payloads = []
    elapsed_list: list[float] = []
    for spec in unit.specs:
        metrics, spent = _timed_execute(spec)
        payloads.append(metrics)
        elapsed_list.append(spent)
    return UnitResult(
        unit_id=unit.unit_id,
        payloads=payloads,
        elapsed=elapsed_list,
        batched=False,
    )


def _timed_execute(spec: InstanceSpec) -> tuple[dict, float]:
    # repro-lint: disable=flow-nondeterminism -- elapsed_s wall-time telemetry rides beside metrics by design
    # The elapsed value is stored under the cache's dedicated
    # ``elapsed_s`` field and excluded from every cached-result
    # comparison (see tests/test_campaign_cache.py); the metrics payload
    # itself is untouched by the clock.
    started = time.perf_counter()
    metrics = execute_spec(spec)
    return metrics, time.perf_counter() - started


def execute_spec_cached(
    spec: InstanceSpec, cache: ResultCache | None = None
) -> tuple[dict, bool, float]:
    """Serve *spec* from *cache*, or execute it and store the result.

    The single-spec counterpart of :func:`run_campaign` — the public
    entry point for callers that handle one request at a time (the
    :mod:`repro.service` dispatcher).  Returns
    ``(metrics, cached, elapsed_s)`` where *cached* says whether the
    payload came from the cache and *elapsed_s* is the simulation cost
    (recorded cost for a hit, cost just paid for a miss).  Safe to call
    from worker processes: the cache write is atomic, so concurrent
    executors sharing a cache directory only ever race benignly.
    """
    if cache is not None:
        entry = cache.get(spec)
        if entry is not None:
            return entry["metrics"], True, float(entry.get("elapsed_s", 0.0))
    metrics, elapsed = _timed_execute(spec)
    if cache is not None:
        cache.put(spec, metrics, elapsed_s=elapsed)
    return metrics, False, elapsed


# -- the campaign loop --------------------------------------------------------


def run_campaign(
    specs: Iterable[InstanceSpec],
    *,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    progress: ProgressCallback | None = None,
    chunksize: int | None = None,
    manifest: bool = True,
    batch: bool = True,
    min_batch: int = MIN_BATCH,
    backend: str | None = None,
) -> CampaignOutcome:
    """Execute a spec set, reading and feeding the result cache.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` runs inline (the serial reference
        path) and ``None`` means ``os.cpu_count()``.  Results are
        independent of ``jobs`` — parallelism only changes wall clock.
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely,
        misses are stored back after execution.
    progress:
        Callback invoked once per finished instance with a
        :class:`CampaignEvent` (cache hits first, then executions in
        completion order).
    chunksize:
        Dispatch granularity for the ``mp-pool`` backend; defaults to a
        value that gives each worker a few chunks for load balance
        while amortising per-task IPC.
    manifest:
        When a cache is attached, also write a run manifest under
        ``<cache root>/manifests/``.
    batch:
        Route cache-miss groups that share a lockstep key (see
        :func:`plan_batches`) through the vectorized batch engine.
        Payloads are bit-identical either way — batching only changes
        wall clock (and amortises ``elapsed_s`` telemetry over each
        batch).
    min_batch:
        Smallest group the batch engine will take on (independent-mode
        DualHP groups also need :data:`DUALHP_CROSSOVER` members).
    backend:
        Executor backend for the misses — one of
        :data:`repro.campaign.backends.BACKEND_NAMES`.  ``None``/
        ``"auto"`` keeps the historical behaviour (``serial`` at one
        job, ``mp-pool`` otherwise); ``"work-stealing"`` routes every
        unit through the deque fabric.  Results are bit-identical
        across backends — only wall clock changes.
    """
    spec_list = list(specs)
    if cache is not None:
        # Persist compiled graphs next to the results, keyed with the
        # same selective salting discipline.
        ensure_graph_store(cache.root / "graphs", salt=cache.salt)
    started_wall = time.perf_counter()
    started_at = time.time()
    requested_jobs = os.cpu_count() or 1 if jobs is None else max(1, int(jobs))
    resolved_backend = resolve_backend(backend, requested_jobs)
    stats = CampaignStats(
        total=len(spec_list), jobs=requested_jobs, backend=resolved_backend
    )
    tier_before = cache.stats.snapshot() if cache is not None else None
    records: list[CampaignRecord | None] = [None] * len(spec_list)

    def emit(index: int, record: CampaignRecord, done: int) -> None:
        if progress is not None:
            progress(
                CampaignEvent(
                    index=index,
                    spec=record.spec,
                    cached=record.cached,
                    elapsed_s=record.elapsed_s,
                    done=done,
                    total=len(spec_list),
                )
            )

    # Phase 1: serve cache hits.
    done = 0
    miss_indices: list[int] = []
    for i, spec in enumerate(spec_list):
        entry = cache.get(spec) if cache is not None else None
        if entry is None:
            miss_indices.append(i)
            continue
        stats.hits += 1
        stats.cached_s += float(entry.get("elapsed_s", 0.0))
        records[i] = CampaignRecord(
            spec=spec,
            metrics=entry["metrics"],
            cached=True,
            elapsed_s=float(entry.get("elapsed_s", 0.0)),
        )
        done += 1
        emit(i, records[i], done)

    # Tier split of the hits just served (cache counters are cumulative
    # per cache object; the delta is this campaign's share).
    if cache is not None and tier_before is not None:
        stats.memory_hits = cache.stats.memory_hits - tier_before.memory_hits
        stats.disk_hits = cache.stats.disk_hits - tier_before.disk_hits

    # Phase 2: plan the misses into work units (lockstep batch groups +
    # scalar remainder) and run them on the selected backend.
    stats.misses = len(miss_indices)

    def consume(
        indices: Sequence[int], timed: Iterable[tuple[dict, float]]
    ) -> None:
        nonlocal done
        for i, (metrics, elapsed) in zip(indices, timed):
            stats.executed += 1
            stats.exec_s += elapsed
            if cache is not None:
                cache.put(spec_list[i], metrics, elapsed_s=elapsed)
            records[i] = CampaignRecord(
                spec=spec_list[i],
                metrics=metrics,
                cached=False,
                elapsed_s=elapsed,
            )
            done += 1
            emit(i, records[i], done)

    def consume_unit(unit: WorkUnit, result: UnitResult) -> None:
        if result.batched:
            stats.batched += len(unit.indices)
        elif unit.batched:
            stats.fallback_runtime += len(unit.indices)
        consume(
            [miss_indices[j] for j in unit.indices],
            zip(result.payloads, result.elapsed),
        )

    if miss_indices:
        miss_specs = [spec_list[i] for i in miss_indices]
        units, by_algorithm, stats.fallback_small = plan_units(
            miss_specs, batch=batch, min_batch=min_batch
        )
        stats.fallback_by_algorithm = dict(sorted(by_algorithm.items()))
        stats.fallback_policy = sum(by_algorithm.values())
        if resolved_backend == "work-stealing":
            unit_by_id = {unit.unit_id: unit for unit in units}
            counters: dict[str, int] = {}
            results = run_work_stealing(
                units,
                jobs=requested_jobs,
                store_root=None if cache is None else str(cache.root / "graphs"),
                store_salt="" if cache is None else cache.salt,
                counters=counters,
            )
            try:
                for result in results:
                    consume_unit(unit_by_id[result.unit_id], result)
            finally:
                stats.steals = counters.get("steals", 0)
        elif resolved_backend == "serial":
            for unit in units:
                consume_unit(unit, execute_unit(unit))
        else:  # mp-pool: batches in the parent, scalars over the pool
            scalar_units = []
            for unit in units:
                if unit.batched:
                    consume_unit(unit, execute_unit(unit))
                else:
                    scalar_units.append(unit)
            effective_jobs = max(1, min(requested_jobs, len(scalar_units)))
            if scalar_units and effective_jobs == 1:
                for unit in scalar_units:
                    consume_unit(unit, execute_unit(unit))
            elif scalar_units:
                scalar_specs = [unit.specs[0] for unit in scalar_units]
                methods = multiprocessing.get_all_start_methods()
                ctx = multiprocessing.get_context(
                    "fork" if "fork" in methods else None
                )
                chunk = chunksize or max(
                    1, len(scalar_specs) // (4 * effective_jobs)
                )
                # Teardown discipline: ``close()`` + ``join()`` on
                # success drains the pool cleanly; *any* error —
                # including a KeyboardInterrupt landing mid-campaign, or
                # a progress callback raising — terminates the workers
                # before the exception propagates, so an interrupted
                # campaign never leaves orphaned processes behind (a
                # long-lived server owns this pool transitively via
                # execute_spec_cached callers).
                pool = ctx.Pool(processes=effective_jobs)
                try:
                    consume(
                        [miss_indices[unit.indices[0]] for unit in scalar_units],
                        pool.imap(_timed_execute, scalar_specs, chunksize=chunk),
                    )
                except BaseException:
                    pool.terminate()
                    raise
                else:
                    pool.close()
                finally:
                    pool.join()

    stats.wall_s = time.perf_counter() - started_wall
    if cache is not None and manifest:
        write_manifest(cache, spec_list, stats, started_at=started_at)
    return CampaignOutcome(records=[r for r in records if r is not None], stats=stats)
