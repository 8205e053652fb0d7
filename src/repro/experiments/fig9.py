"""Figure 9 — normalized idle time of the Figure 7 runs.

Normalized idle time of a class = idle time divided by the amount of
that class the lower-bound solution would use.  Work performed on
executions later aborted by spoliation counts as idle (footnote 1 of the
paper), so HeteroPrio is not advantaged by its wasted work.

Expected shape: DualHP exhibits large CPU idle time (it conservatively
parks CPUs when the ready set is thin); HeteroPrio and HEFT keep both
classes busy.
"""

from __future__ import annotations

from repro.campaign.cache import ResultCache
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
    """Reproduce one panel pair (CPU, GPU) of Figure 9."""
    metrics = dag_sweep(
        kernel,
        n_values=n_values,
        algorithms=algorithms,
        platform=platform,
        jobs=jobs,
        cache=cache,
    )
    series: list[Series] = []
    for name in algorithms:
        series.append(
            Series(
                f"{name} [CPU]",
                [metrics[(name, n)].cpu_normalized_idle for n in n_values],
            )
        )
    for name in algorithms:
        series.append(
            Series(
                f"{name} [GPU]",
                [metrics[(name, n)].gpu_normalized_idle for n in n_values],
            )
        )
    return ExperimentResult(
        experiment="fig9",
        title=f"Normalized idle time ({kernel}; aborted work counts as idle)",
        x_label="N (tiles)",
        x_values=list(n_values),
        series=series,
        data={"kernel": kernel, "metrics": metrics},
    )
