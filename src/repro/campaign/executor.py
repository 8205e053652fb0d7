"""Cache-backed execution of campaign spec sets.

:func:`run_campaign` is the engine's entry point: given a sequence of
:class:`~repro.campaign.spec.InstanceSpec` it

1. serves every spec already present in the (optional) result cache;
2. plans the misses into work units (:func:`plan_units`) and hands
   every unit to :func:`~repro.campaign.backends.run_work_stealing`,
   which runs them inline at one job (the bit-for-bit serial reference
   path) and over the work-stealing fabric above one job;
3. stores fresh results back into the cache and reports aggregate
   :class:`CampaignStats`.

Every spec is executed by the pure function :func:`execute_spec`, in
the parent or in a worker alike, so parallelism can never change a
metric: simulators are deterministic given the spec, and the per-spec
seeds of random workloads are derived up front
(:func:`derive_seeds`, ``numpy.random.SeedSequence.spawn`` semantics)
rather than drawn from shared state.

Within one process, workload graphs and lower bounds are memoised:
consecutive specs that share a (workload, size, seed) reuse the graph
and its bound exactly like the legacy hand-rolled sweeps did, so
routing an experiment through the engine costs no extra simulator
work.
"""

from __future__ import annotations

import contextlib
import dataclasses
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
from repro.campaign.backends import UnitResult, WorkUnit, run_work_stealing
from repro.campaign.cache import ResultCache
from repro.campaign.graph_store import GraphStore
from repro.campaign.spec import InstanceSpec
from repro.campaign.telemetry import CampaignStats, write_manifest
from repro.core.heteroprio import heteroprio_schedule
from repro.core.platform import Platform
from repro.dag.compiled import CompiledGraph
from repro.dag.cholesky import cholesky_compiled
from repro.dag.lu import lu_compiled
from repro.dag.priorities import assign_priorities
from repro.dag.qr import qr_compiled
from repro.dag.random_graphs import layered_random_compiled, random_chain_compiled
from repro.schedulers.batch import batch_dualhp_schedule, batch_heft_schedule
from repro.schedulers.dualhp import dualhp_schedule
from repro.schedulers.heft import heft_schedule
from repro.schedulers.online import POLICIES, make_policy
from repro.simulator.batch import batch_heteroprio_schedule
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
    "metrics_to_run_metrics",
    "plan_units",
    "set_graph_store",
    "spec_roots",
    "workload_root",
]

#: The RunMetrics field names, in declaration order — the schema of the
#: per-instance metrics payload in ``dag`` mode.
RUN_METRIC_FIELDS = tuple(f.name for f in dataclasses.fields(RunMetrics))

#: Compiled (struct-of-arrays) builders of the tiled factorization
#: families — the path every campaign spec over a factorization takes.
COMPILED_FACTORIZATIONS: dict[str, Callable[..., CompiledGraph]] = {
    "cholesky": cholesky_compiled,
    "qr": qr_compiled,
    "lu": lu_compiled,
}

#: Compiled builders of the seeded random families, by name.  Like every
#: dispatch table here it maps straight to the function: :func:`spec_roots`
#: reads the function's module, and perfbench's tracer rebinds module
#: globals and dict values (never tuple members or partials) to wrap it.
RANDOM_FAMILIES: dict[str, Callable[..., CompiledGraph]] = {
    "layered": layered_random_compiled,
    "chains": random_chain_compiled,
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
) -> CompiledGraph:
    """The compiled graph behind one spec, for every workload.

    Factorizations go through the graph store; the random families are
    seeded per spec, so there is nothing to share across workers and
    their graphs stay in this process's memo.
    """
    if workload in COMPILED_FACTORIZATIONS:
        return _compiled_workload(workload, size)
    return _random_workload(workload, size, seed, params)


@lru_cache(maxsize=8)
def _random_workload(
    workload: str,
    size: int,
    seed: int | None,
    params: tuple[tuple[str, float], ...],
) -> CompiledGraph:
    """Build (and memoise per process) one random family's compiled graph."""
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


@lru_cache(maxsize=256)
def _durations(
    workload: str,
    size: int,
    seed: int | None,
    params: tuple[tuple[str, float], ...],
) -> tuple[np.ndarray, np.ndarray]:
    """One instance's ``(cpu_times, gpu_times)``, memoised per process.

    The rows :func:`execute_spec_batch` stacks.  A seed sweep runs every
    seed once per algorithm group, and a 64-128-row group overflows the
    8-entry graph memo, so each group would rebuild every graph; the
    duration vectors alone (about 4 kB per 256-task graph) fit a whole
    sweep.
    """
    graph = _campaign_graph(workload, size, seed, params)
    return graph.cpu_times, graph.gpu_times


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
    # The LP bound iterates ``edges()``; the materialized view lists them
    # in the generator's discovery order, so its rows are bit-identical.
    graph = _campaign_graph(workload, size, seed, params).as_task_graph()
    platform = Platform(num_cpus=num_cpus, num_gpus=num_gpus)
    return dag_lower_bound(graph, platform, method=method)


@lru_cache(maxsize=256)
def _area_bound(
    workload: str,
    size: int,
    seed: int | None,
    params: tuple[tuple[str, float], ...],
    num_cpus: int,
    num_gpus: int,
) -> float:
    """Memoised area bound of one independent-mode instance.

    Sized for the largest lockstep group, so the algorithm groups of one
    seed sweep share each seed's bound.
    """
    graph = _campaign_graph(workload, size, seed, params)
    platform = Platform(num_cpus=num_cpus, num_gpus=num_gpus)
    return area_bound(graph.to_instance(), platform).value


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
        bound = _area_bound(
            spec.workload,
            spec.size,
            spec.seed,
            spec.params,
            spec.num_cpus,
            spec.num_gpus,
        )
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

#: Smallest miss group the planner routes through the lockstep engine.
#: Only independent-mode HeteroPrio, HEFT and DualHP groups are
#: candidates; DAG-mode specs always take the scalar path.  Measured by
#: ``benchmarks/bench_lockstep_crossover.py`` as ``execute_spec_batch``
#: time over per-spec ``execute_spec`` time on seeded ``layered`` rows
#: (per cell, the median of 3 runs of the median of 3 interleaved
#: repeats, 2-vCPU VM):
#:
#:     64 tasks      B=1   B=2   B=4   B=8  B=16  B=32  B=64
#:     heteroprio   5.05  2.87  1.72  1.06  0.77  0.53  0.44
#:     heft         1.80  1.11  0.75  0.57  0.47  0.42  0.39
#:     dualhp       6.35  3.87  2.50  1.64  1.07  0.78  0.62
#:     256 tasks
#:     heteroprio   6.38  3.42  1.85  1.10  0.68  0.50  0.39
#:     heft         2.49  1.40  0.88  0.59  0.47  0.40  0.36
#:     dualhp       5.50  2.93  1.72  1.04  0.70  0.49  0.39
#:
#: 32 rows is the smallest size tried at which all three win on both
#: sizes; at 16 rows DualHP still loses on 64 tasks.  Serve's 4-row
#: groups run scalar, the 64/128-row seed sweeps in lockstep.
LOCKSTEP_MIN_ROWS = 32

#: Lockstep entries of the independent-mode (Figure 6) schedulers.
_BATCH_INDEPENDENT_SCHEDULERS = {
    "heteroprio": batch_heteroprio_schedule,
    "dualhp": batch_dualhp_schedule,
    "heft": batch_heft_schedule,
}


def _batch_key(spec: InstanceSpec) -> tuple | None:
    """Lockstep grouping key of *spec*, or ``None`` when it never batches.

    Only independent-mode specs of a policy with a lockstep entry have
    one.  Rows need only the same *task count*, so the seed stays out
    of the key: a seed sweep is one group.
    """
    if spec.mode != "independent" or spec.bound not in ("area", "auto"):
        return None
    if spec.algorithm not in _BATCH_INDEPENDENT_SCHEDULERS:
        return None
    return (
        spec.algorithm,
        spec.workload,
        spec.size,
        spec.params,
        (spec.num_cpus, spec.num_gpus),
    )


def execute_spec_batch(specs: Sequence[InstanceSpec]) -> list[dict] | None:
    """Run one :func:`plan_units` batch group through the lockstep engine.

    *specs* share one :func:`_batch_key` (an independent-mode seed
    sweep).  Returns the per-spec Figure 6 payloads in *specs* order —
    each bit-identical to what :func:`execute_spec` would produce (the
    lockstep schedulers are pinned to the scalar ones by
    ``tests/test_batch_differential.py``) — or ``None`` when the group
    is not batchable after all (specs without one shared batch key,
    ragged task counts); callers then fall back to the scalar path.
    """
    if not specs:
        return []
    keys = {_batch_key(spec) for spec in specs}
    if None in keys or len(keys) != 1:
        return None
    cpu_rows: list[np.ndarray] = []
    gpu_rows: list[np.ndarray] = []
    bounds: list[float] = []
    for spec in specs:
        cpu, gpu = _durations(spec.workload, spec.size, spec.seed, spec.params)
        if cpu_rows and len(cpu) != len(cpu_rows[0]):
            return None  # ragged task counts: fall back to the scalar path
        cpu_rows.append(cpu)
        gpu_rows.append(gpu)
        # A durations miss just built the graph: a bound miss finds it
        # in the graph memo.
        bounds.append(
            _area_bound(
                spec.workload,
                spec.size,
                spec.seed,
                spec.params,
                spec.num_cpus,
                spec.num_gpus,
            )
        )
    batch_scheduler = _BATCH_INDEPENDENT_SCHEDULERS[specs[0].algorithm]
    result = batch_scheduler(
        np.stack(cpu_rows), np.stack(gpu_rows), [s.platform for s in specs]
    )
    payloads = []
    for i, bound in enumerate(bounds):
        makespan = float(result.makespans[i])
        payloads.append(
            {
                "makespan": makespan,
                "lower_bound": bound,
                "ratio": makespan / bound if bound > 0 else float("inf"),
            }
        )
    return payloads


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
    when the spec has a :func:`_batch_key`.  ``None`` when the
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


def plan_units(
    specs: Sequence[InstanceSpec],
) -> tuple[list[WorkUnit], dict[str, int], int]:
    """Plan *specs* (a miss list) into backend work units.

    A group of specs sharing a :func:`_batch_key` becomes one batch unit
    (kept whole — it is the steal granularity) once it reaches
    :data:`LOCKSTEP_MIN_ROWS`; everything else becomes one scalar unit
    per spec, in ascending index order; a unit's ``unit_id`` is its
    position in the returned list.  Returns ``(units,
    fallback_policy, fallback_small)`` — ``fallback_policy`` maps each
    algorithm whose specs have no batch key (every DAG-mode spec) to its
    count, ``fallback_small`` counts specs whose group was too small.
    """
    units: list[WorkUnit] = []
    fallback_policy: dict[str, int] = {}
    fallback_small = 0
    scalar: list[int] = []
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        key = _batch_key(spec)
        if key is None:
            alg = spec.algorithm
            fallback_policy[alg] = fallback_policy.get(alg, 0) + 1
            scalar.append(i)
        else:
            groups.setdefault(key, []).append(i)
    for members in groups.values():
        if len(members) >= LOCKSTEP_MIN_ROWS:
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
    run time (ragged task counts) the unit's
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
    # ``elapsed_s`` field, beside the metrics and never inside them (see
    # TestResultCache in tests/test_campaign.py); the metrics payload
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
) -> CampaignOutcome:
    """Execute a spec set, reading and feeding the result cache.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` runs inline (the serial reference
        path), more runs the work-stealing fabric, and ``None`` means
        ``os.cpu_count()``.  Results are independent of ``jobs`` —
        parallelism only changes wall clock.
    cache:
        Optional :class:`ResultCache`; hits skip execution entirely,
        misses are stored back after execution, and a run manifest is
        written under ``<cache root>/manifests/``.
    """
    spec_list = list(specs)
    if cache is not None:
        # Persist compiled graphs next to the results, keyed with the
        # same selective salting discipline.
        ensure_graph_store(cache.root / "graphs", salt=cache.salt)
    started_wall = time.perf_counter()
    started_at = time.time()
    requested_jobs = os.cpu_count() or 1 if jobs is None else max(1, int(jobs))
    stats = CampaignStats(
        total=len(spec_list),
        jobs=requested_jobs,
        backend="serial" if requested_jobs == 1 else "work-stealing",
    )
    tier_before = cache.stats.snapshot() if cache is not None else None
    records: list[CampaignRecord | None] = [None] * len(spec_list)

    # Phase 1: serve cache hits.
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

    # Tier split of the hits just served (cache counters are cumulative
    # per cache object; the delta is this campaign's share).
    if cache is not None and tier_before is not None:
        stats.memory_hits = cache.stats.memory_hits - tier_before.memory_hits
        stats.disk_hits = cache.stats.disk_hits - tier_before.disk_hits

    # Phase 2: plan the misses into work units (lockstep batch groups +
    # scalar remainder) and run them, inline or over the fabric.
    stats.misses = len(miss_indices)

    def consume(unit: WorkUnit, result: UnitResult) -> None:
        if result.batched:
            stats.batched += len(unit.indices)
        elif unit.batched:
            stats.fallback_runtime += len(unit.indices)
        for j, metrics, elapsed in zip(unit.indices, result.payloads, result.elapsed):
            i = miss_indices[j]
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

    if miss_indices:
        miss_specs = [spec_list[i] for i in miss_indices]
        units, by_algorithm, stats.fallback_small = plan_units(miss_specs)
        stats.fallback_by_algorithm = dict(sorted(by_algorithm.items()))
        stats.fallback_policy = sum(by_algorithm.values())
        counters: dict[str, int] = {}
        # Closed on every exit: when consume raises (a failed cache
        # write, an interrupt), the exception's traceback would
        # otherwise keep the suspended generator — and the fabric's
        # workers — alive.
        with contextlib.closing(
            run_work_stealing(
                units,
                jobs=requested_jobs,
                store_root=None if cache is None else str(cache.root / "graphs"),
                store_salt="" if cache is None else cache.salt,
                counters=counters,
            )
        ) as results:
            for result in results:
                consume(units[result.unit_id], result)
        stats.steals = counters.get("steals", 0)

    stats.wall_s = time.perf_counter() - started_wall
    if cache is not None:
        write_manifest(cache, spec_list, stats, started_at=started_at)
    return CampaignOutcome(records=[r for r in records if r is not None], stats=stats)
