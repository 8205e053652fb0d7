# repro-lint: disable=float-equality -- the batch cases assert bitwise
# makespan equality against the scalar loops on purpose: the batch
# engine's contract is bit-identity, not closeness.
"""The ``repro bench`` perf-regression harness.

Benchmarks the simulator hot path on the paper's figure workloads and
emits a machine-readable report (``BENCH_simcore.json``):

* **fig7 cases** run one factorization DAG (cholesky N=20, qr N=14,
  lu N=14 — all >= 1000 tasks) through :class:`RuntimeSimulator` under
  the HeteroPrio, bucketed-HeteroPrio and HEFT policies, reading the
  hot-loop counters from :attr:`RuntimeSimulator.last_stats`;
* **fig6 cases** run the independent-task HeteroPrio core
  (:func:`repro.core.heteroprio.heteroprio_schedule`) on a 2000-task
  random instance.

Each case reports events/sec, pick-calls/sec, wall time and the
makespan (a cheap sanity check that the schedule did not change).  The
fig7 cases additionally break the end-to-end pipeline into phases —
``build_s`` (compiled graph construction), ``priorities_s`` (vectorized
bottom levels) and the simulate-phase ``wall_s`` — summed into
``end_to_end_s``, alongside the dict-path reference walls for the first
two phases (``dict_build_s``/``dict_priorities_s``) measured in the
same run, so the compiled pipeline's ``end_to_end_speedup`` is
self-contained and machine-independent.  ``end_to_end_vs_pre_pr``
extends the ``speedup_vs_pre_pr`` convention to the whole pipeline:
in-run dict-path build/priorities plus the recorded pre-overhaul
simulate wall, over the compiled pipeline's end-to-end.  ``wall_s`` and
``events_per_sec`` keep their historical simulate-only meaning, so old
baseline reports stay comparable.  The
report also embeds the wall times of the pre-optimization
implementation measured on the development machine
(:data:`PRE_PR_WALL_S`) — since the optimized loop produces the exact
same schedule event-for-event, the events/sec ratio equals the
wall-time ratio, so ``speedup_vs_pre_pr`` is meaningful on that
machine and indicative elsewhere.

With ``--batch``, the suite additionally runs the **batch cases**: the
fig6 seed sweep advanced in lockstep — HeteroPrio on the lockstep
engine (:mod:`repro.simulator.batch`), DualHP on the offline batch
schedulers (:mod:`repro.schedulers.batch`) — hundreds of instances per
call.  Each batch case reports the aggregate ``batch_events_per_sec``
next to a scalar reference measured on a sample of the same rows
(whose makespans the runner asserts bitwise-equal to the batch result;
DualHP cases also pin the accepted λ), plus the derived
``batch_speedup``.  The offline HEFT/DualHP cases have no event loop;
their unit of work is one placement per task on both sides of the
ratio.  The regression gate covers ``batch_events_per_sec`` with the
same calibration-normalized threshold; a baseline key absent from the
current run is skipped with a note naming that key.

The **cache case** times the tiered result cache itself: one lookup
sweep over warm entries per tier, reported as
``cache_hit_memory_per_sec`` and ``cache_hit_disk_per_sec`` (both
gated) plus their ratio ``memory_over_disk`` — the speedup the
in-process LRU tier buys over re-reading the disk tier.

The **analyze case** times ``repro analyze`` over the repo's own tree,
cold (parse memo dropped) and warm (memo hit), reporting the gated
``analyze_modules_per_sec`` on the warm pass plus ``warm_over_cold`` —
the amortisation the per-module memo buys the CI lint job.

For CI regression checks, absolute events/sec is useless across
runners of different speeds.  Every report therefore includes a
*calibration* measurement (a fixed pure-Python heap workload timed at
report creation); :func:`compare` normalizes the current events/sec by
the calibration ratio before applying the regression threshold, which
absorbs runner-speed differences.
"""

from __future__ import annotations

import heapq
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from repro.core.heteroprio import heteroprio_schedule
from repro.core.platform import Platform
from repro.core.task import Instance, Task
from repro.dag.priorities import assign_priorities
from repro.experiments.workloads import PAPER_PLATFORM, build_compiled, build_graph
from repro.schedulers.batch import batch_dualhp_schedule, batch_heft_schedule
from repro.schedulers.dualhp import dualhp_schedule
from repro.schedulers.heft import heft_schedule
from repro.schedulers.online import make_policy
from repro.simulator.batch import batch_heteroprio_schedule
from repro.simulator.runtime import RuntimeSimulator

__all__ = [
    "BenchCase",
    "BENCH_CASES",
    "BATCH_CASES",
    "QUICK_CASES",
    "QUICK_BATCH_CASES",
    "PRE_PR_WALL_S",
    "run_bench",
    "compare",
    "main",
]

#: Current report layout version.
SCHEMA = 1

#: Wall times of the pre-optimization simulator/core on the same cases,
#: measured (best of 3) on the development machine before the hot-path
#: overhaul.  Kept verbatim so the report can state the speedup the
#: overhaul delivered; not used by the CI regression check.
PRE_PR_WALL_S: dict[str, float] = {
    "fig7:cholesky:n20:heteroprio": 0.1348,
    "fig7:cholesky:n20:buckets": 0.1522,
    "fig7:cholesky:n20:heft": 0.3913,
    "fig7:qr:n14:heteroprio": 0.1473,
    "fig7:qr:n14:buckets": 0.1540,
    "fig7:qr:n14:heft": 0.2675,
    "fig7:lu:n14:heteroprio": 0.0927,
    "fig7:lu:n14:buckets": 0.1112,
    "fig7:lu:n14:heft": 0.1715,
    "fig6:independent:n2000:heteroprio": 0.0194,
    # Derived, not measured: the n2000 measurement scaled by task count
    # (the pre-optimization core was linear in n on these instances).
    # Backfilled so the baseline gate has a pre_pr_wall_s for every
    # fig6 case instead of skipping this one.
    "fig6:independent:n500:heteroprio": 0.0049,
}

#: Policy short names used in case ids -> ``make_policy`` names.
_POLICIES = {
    "heteroprio": "heteroprio-avg",
    "buckets": "buckets",
    "heft": "heft-avg",
}

#: Offline batch schedulers for the fig6 independent cases, by algorithm
#: short name (``heteroprio`` runs the lockstep simulator engine instead).
_INDEPENDENT_BATCH = {
    "dualhp": batch_dualhp_schedule,
    "heft": batch_heft_schedule,
}


@dataclass(frozen=True)
class BenchCase:
    """One benchmark case: a workload plus the policy that schedules it."""

    case_id: str
    runner: Callable[[int], dict]
    repeats: int = 3


def _dag_case(kernel: str, n_tiles: int, policy_key: str, repeats: int = 3) -> BenchCase:
    case_id = f"fig7:{kernel}:n{n_tiles}:{policy_key}"

    def runner(reps: int) -> dict:
        # Phase 1+2, compiled pipeline: struct-of-arrays graph build and
        # the vectorized priority sweep, each best-of-reps.
        build_s = float("inf")
        priorities_s = float("inf")
        graph = None
        for _ in range(reps):
            started = time.perf_counter()
            candidate = build_compiled(kernel, n_tiles)
            build_s = min(build_s, time.perf_counter() - started)
            started = time.perf_counter()
            assign_priorities(candidate, PAPER_PLATFORM, "avg")
            priorities_s = min(priorities_s, time.perf_counter() - started)
            graph = candidate
        # The dict-path reference for the same two phases, measured in
        # the same run so the end-to-end speedup is machine-independent.
        dict_build_s = float("inf")
        dict_priorities_s = float("inf")
        for _ in range(reps):
            started = time.perf_counter()
            dict_graph = build_graph(kernel, n_tiles)
            dict_build_s = min(dict_build_s, time.perf_counter() - started)
            started = time.perf_counter()
            assign_priorities(dict_graph, PAPER_PLATFORM, "avg")
            dict_priorities_s = min(dict_priorities_s, time.perf_counter() - started)
        # Phase 3: the simulator, on the compiled graph (event-for-event
        # identical to the dict path; ``wall_s`` keeps its historical
        # simulate-only meaning so old baselines stay comparable).
        best = None
        makespan = None
        for _ in range(reps):
            sim = RuntimeSimulator(graph, PAPER_PLATFORM, make_policy(_POLICIES[policy_key]))
            schedule = sim.run()
            stats = sim.last_stats
            assert stats is not None
            if best is None or stats.wall_s < best.wall_s:
                best = stats
                makespan = schedule.makespan
        payload = best.to_dict()
        payload["makespan"] = makespan
        payload["build_s"] = build_s
        payload["priorities_s"] = priorities_s
        payload["end_to_end_s"] = build_s + priorities_s + payload["wall_s"]
        payload["dict_build_s"] = dict_build_s
        payload["dict_priorities_s"] = dict_priorities_s
        payload["end_to_end_speedup"] = (
            (dict_build_s + dict_priorities_s + payload["wall_s"])
            / payload["end_to_end_s"]
        )
        return payload

    return BenchCase(case_id, runner, repeats)


def _independent_case(n_tasks: int, seed: int = 42, repeats: int = 3) -> BenchCase:
    case_id = f"fig6:independent:n{n_tasks}:heteroprio"

    def runner(reps: int) -> dict:
        # Phase 1: instance construction, best-of-reps — the fig6
        # analogue of the fig7 ``build_s`` phase, so ``end_to_end_s``
        # is present on every case in the report.
        build_s = float("inf")
        instance = None
        for _ in range(reps):
            rng = random.Random(seed)
            started = time.perf_counter()
            instance = Instance(
                [
                    Task(name=f"t{i}", cpu_time=rng.uniform(1.0, 50.0),
                         gpu_time=rng.uniform(0.5, 10.0))
                    for i in range(n_tasks)
                ]
            )
            build_s = min(build_s, time.perf_counter() - started)
        best = None
        for _ in range(reps):
            started = time.perf_counter()
            result = heteroprio_schedule(instance, PAPER_PLATFORM, compute_ns=False)
            wall = time.perf_counter() - started
            if best is None or wall < best["wall_s"]:
                spoliations = len(result.spoliations)
                # Every execution start pushes one completion event and
                # every event pops exactly once; a spoliation leaves one
                # stale event behind.
                events = n_tasks + spoliations
                best = {
                    "events": events,
                    "stale_events": spoliations,
                    "picks": 0,
                    "tasks": n_tasks,
                    "aborts": spoliations,
                    "wall_s": wall,
                    "events_per_sec": events / wall if wall > 0 else float("inf"),
                    "picks_per_sec": 0.0,
                    "makespan": result.makespan,
                }
        assert best is not None
        best["build_s"] = build_s
        best["end_to_end_s"] = build_s + best["wall_s"]
        return best

    return BenchCase(case_id, runner, repeats)


def _sample_rows(batch: int, sample: int) -> list[int]:
    """Evenly spread row indices to scalar-verify (first/middle/last)."""
    sample = max(1, min(sample, batch))
    if sample == 1:
        return [0]
    step = (batch - 1) / (sample - 1)
    return sorted({round(i * step) for i in range(sample)})


def _batch_independent_case(
    n_tasks: int,
    batch: int,
    algorithm: str = "heteroprio",
    seed: int = 42,
    sample: int = 4,
    repeats: int = 2,
) -> BenchCase:
    """The fig6 grid as one lockstep call: *batch* seeded instances.

    ``heteroprio`` runs the lockstep simulator engine; ``heft`` and
    ``dualhp`` run the offline batch schedulers
    (:mod:`repro.schedulers.batch`), whose unit of work is one placement
    per task on both sides of the speedup.
    """
    case_id = f"batch:fig6:independent:n{n_tasks}:{algorithm}:b{batch}"

    def runner(reps: int) -> dict:
        cpu = np.empty((batch, n_tasks))
        gpu = np.empty((batch, n_tasks))
        for row in range(batch):
            rng = random.Random(seed + row)
            for i in range(n_tasks):
                cpu[row, i] = rng.uniform(1.0, 50.0)
                gpu[row, i] = rng.uniform(0.5, 10.0)
        batch_fn = _INDEPENDENT_BATCH.get(algorithm, batch_heteroprio_schedule)
        result = None
        wall = float("inf")
        for _ in range(reps):
            started = time.perf_counter()
            candidate = batch_fn(cpu, gpu, PAPER_PLATFORM)
            elapsed = time.perf_counter() - started
            if elapsed < wall:
                result, wall = candidate, elapsed
        assert result is not None
        scalar_events = 0
        scalar_wall = 0.0
        for row in _sample_rows(batch, sample):
            instance = Instance(
                [
                    Task(name=f"t{i}", cpu_time=float(cpu[row, i]),
                         gpu_time=float(gpu[row, i]))
                    for i in range(n_tasks)
                ]
            )
            started = time.perf_counter()
            if algorithm == "heteroprio":
                scalar = heteroprio_schedule(
                    instance, PAPER_PLATFORM, compute_ns=False
                )
                scalar_wall += time.perf_counter() - started
                # Same counting convention as the fig6 scalar case.
                scalar_events += n_tasks + len(scalar.spoliations)
                makespan = scalar.makespan
            elif algorithm == "dualhp":
                dual = dualhp_schedule(instance, PAPER_PLATFORM)
                scalar_wall += time.perf_counter() - started
                scalar_events += n_tasks
                makespan = dual.schedule.makespan
                assert dual.lam == float(result.lams[row]), (
                    f"{case_id}: batch row {row} lambda diverged"
                )
            else:
                schedule = heft_schedule(instance, PAPER_PLATFORM)
                scalar_wall += time.perf_counter() - started
                scalar_events += n_tasks
                makespan = schedule.makespan
            assert makespan == float(result.makespans[row]), (
                f"{case_id}: batch row {row} diverged from the scalar core"
            )
        return _batch_payload(
            result, wall, batch, scalar_events, scalar_wall, sample
        )

    return BenchCase(case_id, runner, repeats)


def _batch_payload(
    result,
    wall: float,
    batch: int,
    scalar_events: int,
    scalar_wall: float,
    sample: int,
) -> dict:
    """Assemble one batch case's report payload."""
    stats = getattr(result, "stats", None)
    if stats is not None:
        # Count like the scalar core does: it leaves one stale heap event
        # per spoliation behind, which the batch engine (no event heap)
        # never materializes — add aborts so scalar and batch events/sec
        # measure the same work.
        events = stats.events + stats.aborts
        payload = stats.to_dict()
    else:
        # Offline batch schedulers (HEFT/DualHP) have no event loop; the
        # unit of work is one placement per task, mirroring the per-task
        # counting of their scalar references.
        events = len(result) * result.n_tasks
        payload = {
            "events": events,
            "stale_events": 0,
            "picks": 0,
            "tasks": events,
            "aborts": 0,
            "wall_s": wall,
            "events_per_sec": 0.0,
            "picks_per_sec": 0.0,
        }
    payload["events"] = events
    payload["wall_s"] = wall
    payload["events_per_sec"] = events / wall if wall > 0 else float("inf")
    payload["batch"] = batch
    payload["batch_events_per_sec"] = payload["events_per_sec"]
    payload["makespan"] = float(result.makespans.sum())
    payload["scalar_sample"] = sample
    payload["scalar_wall_s"] = scalar_wall
    payload["scalar_events_per_sec"] = (
        scalar_events / scalar_wall if scalar_wall > 0 else float("inf")
    )
    payload["batch_speedup"] = (
        payload["batch_events_per_sec"] / payload["scalar_events_per_sec"]
    )
    return payload


def _cache_case(n_specs: int, repeats: int = 3) -> BenchCase:
    """Result-cache hit throughput, per tier, on *n_specs* warm entries.

    Seeds a throwaway on-disk cache with synthetic payloads (the cache
    never looks inside ``metrics``), then times two full lookup sweeps:
    one on a fresh :class:`ResultCache` object (every hit is a disk
    read that feeds the memory tier) and one on an already-warm object
    (every hit is served from the in-process LRU).  The seeding pass
    warms the spec-hash memo, so both sweeps time tier access rather
    than hashing.  ``memory_over_disk`` is the headline number: how
    much the memory tier buys over re-reading the disk tier.
    """
    case_id = f"cache:result:n{n_specs}:tiers"

    def runner(reps: int) -> dict:
        import tempfile

        from repro.campaign.cache import ResultCache
        from repro.campaign.spec import InstanceSpec

        specs = [
            InstanceSpec(
                workload="cholesky",
                size=4 + i,
                algorithm="heteroprio",
                mode="dag",
                num_cpus=20,
                num_gpus=4,
                bound="auto",
            )
            for i in range(n_specs)
        ]
        metrics = {"ratio": 1.0, "makespan": 123.456, "lower_bound": 100.0}
        with tempfile.TemporaryDirectory() as tmp:
            seed = ResultCache(tmp)
            for spec in specs:
                seed.put(spec, metrics, elapsed_s=0.001)
            disk_wall = float("inf")
            for _ in range(reps):
                cold = ResultCache(tmp)  # fresh object: empty memory tier
                started = time.perf_counter()
                for spec in specs:
                    assert cold.get(spec) is not None
                disk_wall = min(disk_wall, time.perf_counter() - started)
                assert cold.stats.disk_hits == n_specs
            warm = ResultCache(tmp)
            for spec in specs:
                warm.get(spec)  # feed the memory tier
            # A single memory sweep is ~1 ms — below timer noise — so
            # each timed measurement runs several full passes.
            mem_passes = 8
            mem_wall = float("inf")
            for _ in range(reps):
                before = warm.stats.memory_hits
                started = time.perf_counter()
                for _ in range(mem_passes):
                    for spec in specs:
                        assert warm.get(spec) is not None
                mem_wall = min(mem_wall, time.perf_counter() - started)
                assert warm.stats.memory_hits - before == n_specs * mem_passes
            # Sanity: the memory tier hands back the payload bit-exactly.
            entry = warm.get(specs[0])
            assert entry is not None and entry["metrics"] == metrics
            makespan = float(entry["metrics"]["makespan"])
        mem_rate = (
            n_specs * mem_passes / mem_wall if mem_wall > 0 else float("inf")
        )
        disk_rate = n_specs / disk_wall if disk_wall > 0 else float("inf")
        return {
            "events": n_specs,
            "stale_events": 0,
            "picks": 0,
            "tasks": n_specs,
            "aborts": 0,
            "wall_s": mem_wall,
            "events_per_sec": mem_rate,
            "picks_per_sec": 0.0,
            "makespan": makespan,
            "cache_hit_memory_per_sec": mem_rate,
            "cache_hit_disk_per_sec": disk_rate,
            "memory_over_disk": mem_rate / disk_rate,
        }

    return BenchCase(case_id, runner, repeats)


def _analyze_case(repeats: int = 3) -> BenchCase:
    """Whole-program flow analysis throughput over the repo's own tree.

    Times two full ``repro analyze`` passes: a *cold* one after
    :func:`~repro.analysis.callgraph.clear_model_caches` (every module
    is re-read, re-parsed and re-normalized) and a *warm* one that hits
    the per-module parse memo (summaries and the checks re-run either
    way — the memo only amortises the AST work).  The gated number is
    ``analyze_modules_per_sec`` on the warm pass: it is what CI pays on
    every lint job after the first.  ``warm_over_cold`` reports what
    the memo buys.
    """
    case_id = "analyze:tree"

    def runner(reps: int) -> dict:
        from repro.analysis.callgraph import clear_model_caches
        from repro.analysis.flow import analyze_tree

        root = Path(__file__).resolve().parents[2]
        if not (root / "src" / "repro").is_dir():  # installed wheel, no tree
            return {
                "events": 0,
                "stale_events": 0,
                "picks": 0,
                "tasks": 0,
                "aborts": 0,
                "wall_s": 0.0,
                "events_per_sec": 0.0,
                "picks_per_sec": 0.0,
                "makespan": 0.0,
            }
        cold_wall = float("inf")
        modules = 0
        for _ in range(reps):
            clear_model_caches()
            started = time.perf_counter()
            report = analyze_tree(root)
            cold_wall = min(cold_wall, time.perf_counter() - started)
            modules = report.modules_checked
        warm_wall = float("inf")
        for _ in range(reps):
            started = time.perf_counter()
            warm = analyze_tree(root)
            warm_wall = min(warm_wall, time.perf_counter() - started)
            # The memo must not change the verdict, only the wall time.
            assert warm.modules_checked == modules
        warm_rate = modules / warm_wall if warm_wall > 0 else float("inf")
        cold_rate = modules / cold_wall if cold_wall > 0 else float("inf")
        return {
            "events": modules,
            "stale_events": 0,
            "picks": 0,
            "tasks": modules,
            "aborts": 0,
            "wall_s": warm_wall,
            "events_per_sec": warm_rate,
            "picks_per_sec": 0.0,
            "makespan": 0.0,
            "analyze_cold_s": cold_wall,
            "analyze_warm_s": warm_wall,
            "analyze_modules_per_sec": warm_rate,
            "warm_over_cold": cold_wall / warm_wall if warm_wall > 0 else 1.0,
            "analyze_cold_modules_per_sec": cold_rate,
        }

    return BenchCase(case_id, runner, repeats)


#: The full ``repro bench`` suite: the fig7 sweeps at n >= 1000 tasks,
#: plus the ``--quick`` smoke cases so the committed report doubles as
#: the CI regression baseline for ``repro bench --quick``.
BENCH_CASES: tuple[BenchCase, ...] = (
    _dag_case("cholesky", 12, "heteroprio"),
    _dag_case("cholesky", 12, "buckets"),
    _independent_case(500),
    _dag_case("cholesky", 20, "heteroprio"),
    _dag_case("cholesky", 20, "buckets"),
    _dag_case("cholesky", 20, "heft"),
    _dag_case("qr", 14, "heteroprio"),
    _dag_case("qr", 14, "buckets"),
    _dag_case("qr", 14, "heft"),
    _dag_case("lu", 14, "heteroprio"),
    _dag_case("lu", 14, "buckets"),
    _dag_case("lu", 14, "heft"),
    _independent_case(2000),
    _cache_case(256),
    _analyze_case(),
)

#: The ``--quick`` CI smoke subset (a few seconds total).
QUICK_CASES: tuple[BenchCase, ...] = (
    _dag_case("cholesky", 12, "heteroprio", repeats=2),
    _dag_case("cholesky", 12, "buckets", repeats=2),
    _independent_case(500, repeats=2),
    _cache_case(256, repeats=2),
    _analyze_case(repeats=2),
)

#: The lockstep batch grids (``--batch``): the fig6 seed sweep,
#: hundreds of rows per call.
BATCH_CASES: tuple[BenchCase, ...] = (
    _batch_independent_case(2000, batch=256),
    _batch_independent_case(2000, batch=256, algorithm="dualhp"),
)

#: The ``--quick --batch`` CI smoke subset.
QUICK_BATCH_CASES: tuple[BenchCase, ...] = (
    _batch_independent_case(500, batch=64, sample=2, repeats=2),
    _batch_independent_case(
        500, batch=64, algorithm="dualhp", sample=2, repeats=2
    ),
)


def _calibrate(reps: int = 5) -> float:
    """Wall time of a fixed pure-Python heap workload (runner speed probe).

    Best of *reps* runs: the minimum measures the runner's steady-state
    speed, insulated from scheduler noise that a single run would pick up.
    """
    rng = random.Random(0)
    values = [rng.random() for _ in range(50_000)]
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        heap: list[float] = []
        for v in values:
            heapq.heappush(heap, v)
        while heap:
            heapq.heappop(heap)
        best = min(best, time.perf_counter() - started)
    return best


def run_bench(
    cases: Iterable[BenchCase] | None = None,
    *,
    quick: bool = False,
    batch: bool = False,
) -> dict:
    """Run the suite and return the report dict (``BENCH_simcore.json``)."""
    if cases is None:
        cases = QUICK_CASES if quick else BENCH_CASES
        if batch:
            cases = tuple(cases) + (QUICK_BATCH_CASES if quick else BATCH_CASES)
    report: dict = {
        "schema": SCHEMA,
        "quick": quick,
        "calibration_s": _calibrate(),
        "cases": {},
    }
    for case in cases:
        payload = case.runner(case.repeats)
        pre = PRE_PR_WALL_S.get(case.case_id)
        if pre is not None:
            payload["pre_pr_wall_s"] = pre
            payload["speedup_vs_pre_pr"] = pre / payload["wall_s"]
            if "dict_build_s" in payload:
                # Pre-optimization pipeline: tracker build + dict
                # priorities (both measured in this run) + the recorded
                # pre-overhaul simulate wall — same convention as
                # ``speedup_vs_pre_pr``.
                payload["end_to_end_vs_pre_pr"] = (
                    payload["dict_build_s"] + payload["dict_priorities_s"] + pre
                ) / payload["end_to_end_s"]
        report["cases"][case.case_id] = payload
    return report


#: Throughput keys the baseline gate covers, in report order.
GATED_KEYS = (
    "events_per_sec",
    "batch_events_per_sec",
    "cache_hit_memory_per_sec",
    "cache_hit_disk_per_sec",
    "analyze_modules_per_sec",
)


def compare(
    current: dict,
    baseline: dict,
    *,
    threshold: float = 0.30,
    notes: list[str] | None = None,
) -> list[str]:
    """Regression check: current vs a committed baseline report.

    Throughput keys (:data:`GATED_KEYS`) are normalized by the
    calibration ratio so a slower CI runner does not read as a code
    regression.  Returns one message per (case, key) whose normalized
    value dropped more than *threshold* below the baseline (empty list
    = pass).  Cases present in only one report are skipped; a gated key
    the baseline carries but the current case lacks is skipped with a
    note naming that key appended to *notes* (when given) — never an
    error, so old and new report layouts stay cross-checkable.
    """
    failures: list[str] = []
    cur_calib = current.get("calibration_s") or 1.0
    base_calib = baseline.get("calibration_s") or 1.0
    scale = cur_calib / base_calib  # >1 when this runner is slower
    for case_id, base in baseline.get("cases", {}).items():
        cur = current.get("cases", {}).get(case_id)
        if cur is None:
            continue
        for key in GATED_KEYS:
            base_eps = base.get(key, 0.0)
            if not base_eps:
                continue
            if key not in cur:
                if notes is not None:
                    notes.append(
                        f"{case_id}: baseline has {key} but this run "
                        f"does not; skipped"
                    )
                continue
            normalized = cur[key] * scale
            ratio = normalized / base_eps
            if ratio < 1.0 - threshold:
                failures.append(
                    f"{case_id}: {key} fell to {ratio:.0%} of baseline "
                    f"({cur[key]:,.0f} vs {base_eps:,.0f}, "
                    f"calibration scale {scale:.2f})"
                )
    return failures


def render(report: dict) -> str:
    """Human-readable table of a bench report."""
    lines = [
        f"{'case':<44} {'tasks':>7} {'events/s':>12} "
        f"{'build (s)':>10} {'prio (s)':>9} {'sim (s)':>9} {'e2e (s)':>9} "
        f"{'e2e gain':>9} {'vs pre-PR':>10} {'e2e pre-PR':>11} "
        f"{'batch gain':>11}",
    ]

    def opt(value: float | None, width: int, fmt: str, suffix: str = "") -> str:
        if value is None:
            return f"{'-':>{width}}"
        return f"{value:>{width - len(suffix)}{fmt}}{suffix}"

    for case_id, payload in report["cases"].items():
        lines.append(
            f"{case_id:<44} {payload['tasks']:>7} "
            f"{payload['events_per_sec']:>12,.0f} "
            + opt(payload.get("build_s"), 10, ".4f") + " "
            + opt(payload.get("priorities_s"), 9, ".4f") + " "
            + f"{payload['wall_s']:>9.4f} "
            + opt(payload.get("end_to_end_s"), 9, ".4f") + " "
            + opt(payload.get("end_to_end_speedup"), 9, ".2f", "x") + " "
            + opt(payload.get("speedup_vs_pre_pr"), 10, ".2f", "x") + " "
            + opt(payload.get("end_to_end_vs_pre_pr"), 11, ".2f", "x") + " "
            + opt(payload.get("batch_speedup"), 11, ".2f", "x")
        )
    lines.append(f"calibration: {report['calibration_s']:.4f}s")
    return "\n".join(lines)


def main(
    *,
    quick: bool = False,
    batch: bool = False,
    out: str | None = None,
    baseline: str | None = None,
    threshold: float = 0.30,
) -> int:
    """The ``repro bench`` subcommand body; returns an exit code."""
    report = run_bench(quick=quick, batch=batch)
    print(render(report))
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[bench] report written to {out}")
    if baseline:
        with open(baseline) as fh:
            base = json.load(fh)
        # A baseline may carry case names this run did not produce (an
        # older suite layout, a renamed case, a full report checked
        # against a --quick run).  Those are warned about and skipped —
        # same convention as missing pre_pr_wall_s below — never an
        # error.
        unknown = sorted(set(base.get("cases", {})) - set(report["cases"]))
        if unknown:
            print(
                f"[bench] note: baseline has {len(unknown)} case(s) not in "
                f"this run ({', '.join(unknown)}); skipped"
            )
        notes: list[str] = []
        failures = compare(report, base, threshold=threshold, notes=notes)
        for note in notes:
            print(f"[bench] note: {note}")
        if failures:
            for message in failures:
                print(f"[bench] REGRESSION {message}")
            return 1
        print(f"[bench] no regression vs {baseline} (threshold {threshold:.0%})")
        # Recap the wall-time gain vs the pre-optimization implementation.
        # Not every baseline case carries a pre-PR measurement (the quick
        # smoke cases never did) — those are skipped with a note, never a
        # KeyError.
        skipped: list[str] = []
        for case_id, cur in report["cases"].items():
            base_case = base.get("cases", {}).get(case_id)
            if base_case is None:
                continue
            pre = base_case.get("pre_pr_wall_s")
            if pre is None:
                skipped.append(case_id)
                continue
            print(
                f"[bench] {case_id}: {pre / cur['wall_s']:.2f}x vs "
                f"pre-PR wall ({pre:.4f}s -> {cur['wall_s']:.4f}s)"
            )
        if skipped:
            print(
                f"[bench] note: no pre_pr_wall_s in baseline for "
                f"{len(skipped)} case(s) ({', '.join(sorted(skipped))}); skipped"
            )
    return 0
