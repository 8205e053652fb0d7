"""Figure 6 — independent tasks: ratio to the area bound.

The kernels of each factorization are treated as an *independent* task
set (edges dropped), scheduled on the (20 CPU, 4 GPU) platform by
HeteroPrio, DualHP and HEFT, and normalised by the area bound.

Expected shape (paper Section 6.1): HeteroPrio and DualHP converge to 1
for large N; HeteroPrio beats DualHP for small N (below ~20) because
DualHP balances class *loads* while individual CPUs stay unbalanced;
HEFT stays visibly above both because it ignores acceleration factors.

The sweep routes through the campaign engine (:mod:`repro.campaign`):
``jobs`` fans the (N, algorithm) instances out over worker processes
and ``cache`` reuses previously computed instances across invocations.
Both leave every reported number bit-identical to the serial,
cache-less path.
"""

from __future__ import annotations

from repro.campaign.cache import ResultCache
from repro.campaign.executor import run_campaign
from repro.campaign.spec import InstanceSpec
from repro.core.platform import Platform
from repro.experiments.report import ExperimentResult, Series
from repro.experiments.workloads import DEFAULT_N_VALUES, PAPER_PLATFORM

__all__ = ["run", "ALGORITHMS", "sweep_specs"]

ALGORITHMS = ("heteroprio", "dualhp", "heft")


def sweep_specs(
    kernel: str,
    *,
    n_values: tuple[int, ...] = DEFAULT_N_VALUES,
    platform: Platform = PAPER_PLATFORM,
) -> list[InstanceSpec]:
    """The campaign spec set behind one Figure 6 panel."""
    return [
        InstanceSpec(
            workload=kernel,
            size=n_tiles,
            algorithm=algorithm,
            mode="independent",
            num_cpus=platform.num_cpus,
            num_gpus=platform.num_gpus,
            bound="area",
        )
        for n_tiles in n_values
        for algorithm in ALGORITHMS
    ]


def run(
    kernel: str = "cholesky",
    *,
    n_values: tuple[int, ...] = DEFAULT_N_VALUES,
    platform: Platform = PAPER_PLATFORM,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
) -> ExperimentResult:
    """Reproduce one panel of Figure 6 (one kernel family)."""
    specs = sweep_specs(kernel, n_values=n_values, platform=platform)
    outcome = run_campaign(specs, jobs=jobs, cache=cache)
    ratios: dict[str, list[float]] = {name: [] for name in ALGORITHMS}
    for spec, record in zip(specs, outcome.records):
        ratios[spec.algorithm].append(record.metrics["ratio"])

    result = ExperimentResult(
        experiment="fig6",
        title=f"Independent tasks ({kernel}): makespan / area bound",
        x_label="N (tiles)",
        x_values=list(n_values),
        series=[Series(name, ratios[name]) for name in ALGORITHMS],
        data={
            "kernel": kernel,
            "ratios": ratios,
            "campaign_stats": outcome.stats,
        },
    )
    return result
