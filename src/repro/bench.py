"""The ``repro bench`` perf-regression harness.

Times the decision loops the paper argues are cheap enough for a
task-based runtime, on the paper's figure workloads, and prints a
report; ``--json FILE`` also writes it as JSON (the committed baseline
is ``BENCH_simcore.json``).  Each case is the only CI timing of its
kernel:

* **fig7 cases** run one factorization DAG (cholesky N=12/20, qr N=14,
  lu N=14) through :class:`RuntimeSimulator` under the HeteroPrio,
  bucketed-HeteroPrio and HEFT policies.  Besides the loop's
  :class:`~repro.simulator.runtime.SimStats` counters they time the
  compiled graph build (``build_s``) and the vectorized priority sweep
  (``priorities_s``), summed with the simulate wall (``wall_s``) into
  ``end_to_end_s``;
* **fig6 cases** run :func:`~repro.core.heteroprio.heteroprio_schedule`
  on one random independent instance;
* **batch cases** advance a Figure 6 seed sweep in lockstep: HeteroPrio
  on :mod:`repro.simulator.batch`, DualHP on
  :mod:`repro.schedulers.batch` (``tests/test_batch_differential.py``
  pins both bit for bit to the scalar loops);
* **cache cases** time :class:`~repro.campaign.cache.ResultCache` hits,
  one tier per case;
* the **analyze case** times a cold ``repro analyze`` over the repo's
  own tree: every CI job that runs it starts a fresh process.

Every case reports ``events`` and ``events_per_sec``, and
:func:`compare` gates that one number.  Absolute events/sec is useless
across runners of different speeds, so every report also carries a
*calibration* time (a fixed pure-Python heap workload timed at report
creation); :func:`compare` normalizes by the calibration ratio before
applying :data:`THRESHOLD`, which absorbs runner-speed differences.
"""

from __future__ import annotations

import heapq
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, TypeVar

import numpy as np

from repro.core.heteroprio import heteroprio_schedule
from repro.core.task import Instance, Task
from repro.dag.priorities import assign_priorities
from repro.experiments.workloads import PAPER_PLATFORM, build_compiled
from repro.schedulers.batch import batch_dualhp_schedule
from repro.schedulers.online import make_policy
from repro.simulator.batch import batch_heteroprio_schedule
from repro.simulator.runtime import RuntimeSimulator

__all__ = [
    "BenchCase",
    "BENCH_CASES",
    "QUICK_CASES",
    "THRESHOLD",
    "run_bench",
    "compare",
    "main",
]

#: Current report layout version.
SCHEMA = 1

#: Largest drop of a case's calibration-normalized ``events_per_sec``
#: below its baseline that :func:`compare` lets pass.
THRESHOLD = 0.30

_T = TypeVar("_T")

#: Policy short names used in case ids -> ``make_policy`` names.
_POLICIES = {
    "heteroprio": "heteroprio-avg",
    "buckets": "buckets",
    "heft": "heft-avg",
}


@dataclass(frozen=True)
class BenchCase:
    """One benchmark case: a workload plus the policy that schedules it."""

    case_id: str
    runner: Callable[[int], dict]
    repeats: int = 3


def _payload(events: int, wall_s: float) -> dict:
    """A case's report entry: *events* units of work in *wall_s* seconds."""
    return {
        "events": events,
        "wall_s": wall_s,
        "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
    }


def _best_of(reps: int, fn: Callable[[], _T]) -> tuple[float, _T]:
    """Best-of-*reps* wall time of ``fn()``, and what that run returned."""
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        candidate = fn()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best, result = elapsed, candidate
    return best, result


def _dag_case(kernel: str, n_tiles: int, policy_key: str, repeats: int = 3) -> BenchCase:
    case_id = f"fig7:{kernel}:n{n_tiles}:{policy_key}"

    def runner(reps: int) -> dict:
        build_s = float("inf")
        priorities_s = float("inf")
        for _ in range(reps):
            started = time.perf_counter()
            graph = build_compiled(kernel, n_tiles)
            build_s = min(build_s, time.perf_counter() - started)
            started = time.perf_counter()
            assign_priorities(graph, PAPER_PLATFORM, "avg")
            priorities_s = min(priorities_s, time.perf_counter() - started)
        best = None
        for _ in range(reps):
            sim = RuntimeSimulator(graph, PAPER_PLATFORM, make_policy(_POLICIES[policy_key]))
            sim.run()
            stats = sim.last_stats
            assert stats is not None
            if best is None or stats.wall_s < best.wall_s:
                best = stats
        payload = best.to_dict()
        payload["build_s"] = build_s
        payload["priorities_s"] = priorities_s
        payload["end_to_end_s"] = build_s + priorities_s + payload["wall_s"]
        return payload

    return BenchCase(case_id, runner, repeats)


def _independent_case(n_tasks: int, seed: int = 42, repeats: int = 3) -> BenchCase:
    case_id = f"fig6:independent:n{n_tasks}:heteroprio"

    def runner(reps: int) -> dict:
        rng = random.Random(seed)
        instance = Instance(
            [
                Task(name=f"t{i}", cpu_time=rng.uniform(1.0, 50.0),
                     gpu_time=rng.uniform(0.5, 10.0))
                for i in range(n_tasks)
            ]
        )
        wall, result = _best_of(
            reps, lambda: heteroprio_schedule(instance, PAPER_PLATFORM, compute_ns=False)
        )
        # Every execution start pushes one completion event and every
        # event pops exactly once; a spoliation leaves one stale event
        # behind.
        return _payload(n_tasks + len(result.spoliations), wall)

    return BenchCase(case_id, runner, repeats)


def _batch_case(
    n_tasks: int, batch: int, algorithm: str, seed: int = 42, repeats: int = 2
) -> BenchCase:
    """The fig6 seed sweep as one lockstep call over *batch* rows.

    ``heteroprio`` runs the lockstep simulator engine, ``dualhp`` the
    offline batch scheduler.
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
        if algorithm == "heteroprio":
            wall, result = _best_of(
                reps, lambda: batch_heteroprio_schedule(cpu, gpu, PAPER_PLATFORM)
            )
            # Count like the scalar loop, which leaves one stale heap
            # event per spoliation behind; the lockstep engine has no
            # event heap, so add the aborts back.
            events = result.stats.events + result.stats.aborts
        else:
            wall, _ = _best_of(
                reps, lambda: batch_dualhp_schedule(cpu, gpu, PAPER_PLATFORM)
            )
            # No event loop: the unit of work is one placement per task.
            events = batch * n_tasks
        return _payload(events, wall)

    return BenchCase(case_id, runner, repeats)


def _cache_case(n_specs: int, tier: str, repeats: int = 3) -> BenchCase:
    """Result-cache hit throughput of one *tier* on *n_specs* warm entries.

    Seeds a throwaway on-disk cache with synthetic payloads (the cache
    never looks inside ``metrics``); seeding warms the spec-hash memo,
    so the sweeps time tier access rather than hashing.  A ``disk``
    sweep reads through a fresh :class:`ResultCache` object, whose
    memory tier is empty; a ``memory`` sweep reads through the seeding
    object, eight passes per sample because one pass (~1 ms) is below
    timer noise.
    """
    case_id = f"cache:result:n{n_specs}:{tier}"

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
        passes = 8 if tier == "memory" else 1
        wall = float("inf")
        with tempfile.TemporaryDirectory() as tmp:
            warm = ResultCache(tmp)
            for spec in specs:
                warm.put(spec, {"makespan": 123.456}, elapsed_s=0.001)
            for _ in range(reps):
                cache = warm if tier == "memory" else ResultCache(tmp)
                before = getattr(cache.stats, f"{tier}_hits")
                started = time.perf_counter()
                for _ in range(passes):
                    for spec in specs:
                        cache.get(spec)
                wall = min(wall, time.perf_counter() - started)
                # Every lookup must be a hit on the tier under test.
                hits = getattr(cache.stats, f"{tier}_hits") - before
                assert hits == passes * n_specs, (case_id, hits)
        return _payload(passes * n_specs, wall)

    return BenchCase(case_id, runner, repeats)


def _analyze_case(repeats: int = 3) -> BenchCase:
    """Cold whole-program flow analysis over the repo's own tree.

    The parse memo is dropped before each pass, so every module is
    re-read, re-parsed and re-normalized, as in the fresh process every
    CI ``repro analyze`` runs in.  ``events`` counts the modules
    checked; an installed package without its source tree checks none.
    """

    def runner(reps: int) -> dict:
        from repro.analysis.callgraph import clear_model_caches
        from repro.analysis.flow import analyze_tree

        root = Path(__file__).resolve().parents[2]

        def cold_pass():
            clear_model_caches()
            return analyze_tree(root)

        wall, report = _best_of(reps, cold_pass)
        return _payload(report.modules_checked, wall)

    return BenchCase("analyze:tree:cold", runner, repeats)


#: The ``--quick`` CI smoke suite (a few seconds total).
QUICK_CASES: tuple[BenchCase, ...] = (
    _dag_case("cholesky", 12, "heteroprio", repeats=2),
    _dag_case("cholesky", 12, "buckets", repeats=2),
    _independent_case(500, repeats=2),
    _batch_case(500, batch=64, algorithm="heteroprio"),
    _batch_case(500, batch=64, algorithm="dualhp"),
    _cache_case(256, "memory", repeats=2),
    _cache_case(256, "disk", repeats=2),
    _analyze_case(repeats=2),
)

#: The full ``repro bench`` suite: the quick cases, so the committed
#: report doubles as the CI baseline for ``repro bench --quick``, plus
#: the fig7 sweeps at n >= 1000 tasks and the large fig6 grids.
BENCH_CASES: tuple[BenchCase, ...] = QUICK_CASES + (
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
    _batch_case(2000, batch=256, algorithm="heteroprio"),
    _batch_case(2000, batch=256, algorithm="dualhp"),
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


def run_bench(cases: Iterable[BenchCase] | None = None, *, quick: bool = False) -> dict:
    """Run the suite and return the report dict (``BENCH_simcore.json``)."""
    if cases is None:
        cases = QUICK_CASES if quick else BENCH_CASES
    return {
        "schema": SCHEMA,
        "quick": quick,
        "calibration_s": _calibrate(),
        "cases": {case.case_id: case.runner(case.repeats) for case in cases},
    }


def compare(current: dict, baseline: dict) -> list[str]:
    """Regression check: current vs a committed baseline report.

    ``events_per_sec`` is normalized by the calibration ratio so a
    slower runner does not read as a code regression.  Returns one
    message per case whose normalized value dropped more than
    :data:`THRESHOLD` below the baseline (empty list = pass).  Cases
    present in only one report are skipped.
    """
    failures: list[str] = []
    cur_calib = current.get("calibration_s") or 1.0
    base_calib = baseline.get("calibration_s") or 1.0
    scale = cur_calib / base_calib  # >1 when this runner is slower
    for case_id, base in baseline.get("cases", {}).items():
        cur = current.get("cases", {}).get(case_id)
        base_eps = base.get("events_per_sec")
        if cur is None or not base_eps:
            continue
        ratio = cur["events_per_sec"] * scale / base_eps
        if ratio < 1.0 - THRESHOLD:
            failures.append(
                f"{case_id}: events_per_sec fell to {ratio:.0%} of baseline "
                f"({cur['events_per_sec']:,.0f} vs {base_eps:,.0f}, "
                f"calibration scale {scale:.2f})"
            )
    return failures


def render(report: dict) -> str:
    """Human-readable table of a bench report."""
    columns = ("build_s", "priorities_s", "wall_s", "end_to_end_s")
    lines = [
        f"{'case':<44} {'events':>8} {'events/s':>12} "
        f"{'build (s)':>10} {'prio (s)':>10} {'wall (s)':>10} {'e2e (s)':>10}",
    ]
    for case_id, payload in report["cases"].items():
        cells = "".join(
            f" {payload[key]:>10.4f}" if key in payload else f" {'-':>10}"
            for key in columns
        )
        lines.append(
            f"{case_id:<44} {payload['events']:>8} "
            f"{payload['events_per_sec']:>12,.0f}{cells}"
        )
    lines.append(f"calibration: {report['calibration_s']:.4f}s")
    return "\n".join(lines)


def main(
    *,
    quick: bool = False,
    out: str | None = None,
    baseline: str | None = None,
) -> int:
    """The ``repro bench`` subcommand body; returns an exit code.

    The baseline is read before anything is written, so a run whose
    ``out`` names the baseline file is still gated against the file's
    previous content, never against its own report.
    """
    base = None
    if baseline:
        with open(baseline) as fh:
            base = json.load(fh)
    report = run_bench(quick=quick)
    print(render(report))
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"[bench] report written to {out}")
    if base is None:
        return 0
    # A case in only one report (an older suite layout, a renamed case,
    # a full report checked against a --quick run) is noted and
    # skipped, never an error.
    base_ids, run_ids = set(base.get("cases", {})), set(report["cases"])
    for ids, note in (
        (base_ids - run_ids, "baseline has {n} case(s) not in this run"),
        (run_ids - base_ids, "this run has {n} case(s) not in the baseline"),
    ):
        if ids:
            print(
                f"[bench] note: {note.format(n=len(ids))} "
                f"({', '.join(sorted(ids))}); skipped"
            )
    failures = compare(report, base)
    for message in failures:
        print(f"[bench] REGRESSION {message}")
    if failures:
        return 1
    print(
        f"[bench] no regression vs {baseline} on {len(base_ids & run_ids)} "
        f"case(s) (threshold {THRESHOLD:.0%})"
    )
    return 0
