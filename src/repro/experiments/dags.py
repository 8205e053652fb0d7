"""Shared DAG-simulation sweep backing Figures 7, 8 and 9.

Each (kernel, N, algorithm) run produces a full
:class:`~repro.simulator.metrics.RunMetrics`; Figures 7-9 are different
projections of the same runs, so the sweep is computed once and cached
per process.

The sweep itself routes through the campaign engine
(:mod:`repro.campaign`): ``jobs`` spreads the (N, algorithm) instances
over worker processes and ``cache`` adds cross-process reuse via the
content-addressed on-disk result cache.  Neither changes any
metric — ``jobs=1`` without a cache is the bit-for-bit serial
reference path.
"""

from __future__ import annotations

from repro.campaign.cache import ResultCache
from repro.campaign.executor import metrics_to_run_metrics, run_campaign
from repro.campaign.spec import InstanceSpec
from repro.campaign.telemetry import CampaignStats
from repro.core.platform import Platform
from repro.experiments.workloads import DEFAULT_N_VALUES, PAPER_PLATFORM
from repro.schedulers.online import PAPER_ALGORITHMS
from repro.simulator.metrics import RunMetrics

__all__ = ["dag_sweep", "sweep_specs", "clear_cache"]

_CACHE: dict[tuple, dict[tuple[str, int], RunMetrics]] = {}


def clear_cache() -> None:
    """Drop memoised sweep results (mainly for tests)."""
    _CACHE.clear()


def sweep_specs(
    kernel: str,
    *,
    n_values: tuple[int, ...] = DEFAULT_N_VALUES,
    algorithms: tuple[str, ...] = PAPER_ALGORITHMS,
    platform: Platform = PAPER_PLATFORM,
    bound_method: str = "auto",
) -> list[InstanceSpec]:
    """The campaign spec set behind one kernel family's DAG sweep."""
    return [
        InstanceSpec(
            workload=kernel,
            size=n_tiles,
            algorithm=name,
            mode="dag",
            num_cpus=platform.num_cpus,
            num_gpus=platform.num_gpus,
            bound=bound_method,
        )
        for n_tiles in n_values
        for name in algorithms
    ]


def dag_sweep(
    kernel: str,
    *,
    n_values: tuple[int, ...] = DEFAULT_N_VALUES,
    algorithms: tuple[str, ...] = PAPER_ALGORITHMS,
    platform: Platform = PAPER_PLATFORM,
    bound_method: str = "auto",
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    telemetry: list[CampaignStats] | None = None,
) -> dict[tuple[str, int], RunMetrics]:
    """Simulate every (algorithm, N) pair for one kernel family.

    Returns a mapping ``(algorithm, N) -> RunMetrics``.  Results are
    memoised per argument combination for the lifetime of the process
    (``jobs`` and ``cache`` only affect how fresh results are computed,
    never their values, so they are not part of the memo key); when *telemetry* is given, the run's :class:`CampaignStats`
    is appended to it.
    """
    key = (kernel, n_values, algorithms, platform, bound_method)
    if key in _CACHE:
        if telemetry is not None:
            telemetry.append(
                CampaignStats(total=len(n_values) * len(algorithms))
            )
        return _CACHE[key]
    specs = sweep_specs(
        kernel,
        n_values=n_values,
        algorithms=algorithms,
        platform=platform,
        bound_method=bound_method,
    )
    outcome = run_campaign(specs, jobs=jobs, cache=cache)
    results: dict[tuple[str, int], RunMetrics] = {
        (spec.algorithm, spec.size): metrics_to_run_metrics(record.metrics)
        for spec, record in zip(specs, outcome.records)
    }
    if telemetry is not None:
        telemetry.append(outcome.stats)
    _CACHE[key] = results
    return results
