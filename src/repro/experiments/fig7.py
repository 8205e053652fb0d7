"""Figure 7 — DAGs: makespan over the dependency-aware lower bound.

The seven online algorithms of Section 6.2 (HeteroPrio, HEFT and DualHP
crossed with the ``avg``/``min``/``fifo`` ranking schemes) simulated on
the tiled factorization DAGs.

Expected shape: everything is close to the bound at both ends of the N
range (critical-path-bound for small N, work-bound for large N); in the
intermediate regime HeteroPrio — especially with ``min`` ranking — is
best and stays within ~30% of the (optimistic) bound, while every other
algorithm degrades visibly on at least one kernel family.
"""

from __future__ import annotations

from repro.campaign.cache import ResultCache
from repro.campaign.telemetry import CampaignStats
from repro.core.platform import Platform
from repro.experiments.dags import dag_sweep
from repro.experiments.report import ExperimentResult, Series
from repro.experiments.workloads import DEFAULT_N_VALUES, PAPER_PLATFORM
from repro.schedulers.online import PAPER_ALGORITHMS

__all__ = ["run"]


def run(
    kernel: str = "cholesky",
    *,
    n_values: tuple[int, ...] = DEFAULT_N_VALUES,
    algorithms: tuple[str, ...] = PAPER_ALGORITHMS,
    platform: Platform = PAPER_PLATFORM,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
) -> ExperimentResult:
    """Reproduce one panel of Figure 7 (one kernel family)."""
    telemetry: list[CampaignStats] = []
    metrics = dag_sweep(
        kernel,
        n_values=n_values,
        algorithms=algorithms,
        platform=platform,
        jobs=jobs,
        cache=cache,
        telemetry=telemetry,
    )
    series = [
        Series(name, [metrics[(name, n)].ratio for n in n_values])
        for name in algorithms
    ]
    result = ExperimentResult(
        experiment="fig7",
        title=f"DAG scheduling ({kernel}): makespan / lower bound",
        x_label="N (tiles)",
        x_values=list(n_values),
        series=series,
        data={
            "kernel": kernel,
            "metrics": metrics,
            "campaign_stats": telemetry[0] if telemetry else None,
        },
    )
    best_mid = min(
        (max(s.values) for s in series if s.label.startswith("heteroprio")),
        default=float("nan"),
    )
    result.notes.append(
        f"worst-case HeteroPrio ratio across this sweep: {best_mid:.3f}"
    )
    return result
