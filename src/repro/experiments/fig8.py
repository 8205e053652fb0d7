"""Figure 8 — equivalent acceleration factors of the Figure 7 runs.

For each run, the *equivalent acceleration factor* of a resource class
is ``sum(p_i) / sum(q_i)`` over the tasks the class completed: high on
the GPUs and low on the CPUs means good task-resource adequacy.

Expected shape: HeteroPrio keeps the CPU-equivalent factor among the
lowest (it explicitly feeds CPUs the least-accelerated tasks); HEFT's is
higher (it ignores acceleration); DualHP sits in between.
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
    """Reproduce one panel pair (CPU, GPU) of Figure 8."""
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
                [metrics[(name, n)].cpu_equivalent_acceleration for n in n_values],
            )
        )
    for name in algorithms:
        series.append(
            Series(
                f"{name} [GPU]",
                [metrics[(name, n)].gpu_equivalent_acceleration for n in n_values],
            )
        )
    return ExperimentResult(
        experiment="fig8",
        title=f"Equivalent acceleration factors ({kernel})",
        x_label="N (tiles)",
        x_values=list(n_values),
        series=series,
        data={"kernel": kernel, "metrics": metrics},
    )
