"""Lockstep vs scalar DualHP at small batch sizes (the planner's crossover).

The campaign planner sends an independent-mode DualHP seed sweep
through the lockstep engine only from ``DUALHP_CROSSOVER`` rows up
(:mod:`repro.campaign.executor`): below it, one scalar search per row
is cheaper than the engine's per-step numpy overhead.  This bench times
both paths on the same rows — seeded ``layered`` instances of 64 and
256 tasks, the sizes the service and the seed sweeps run — at
B in {1, 2, 4, 8, 16, 32, 64} on the paper platform, and reports the
median over interleaved repeats of batch time over scalar time.  Both
paths must agree bit for bit on every makespan and accepted guess.

Run with::

    pytest benchmarks/bench_dualhp_crossover.py --benchmark-only -s
"""

import statistics
import time

import numpy as np
import pytest

from repro.campaign.executor import DUALHP_CROSSOVER
from repro.core.platform import Platform
from repro.core.task import Instance
from repro.dag.random_graphs import layered_random_graph
from repro.schedulers.batch import batch_dualhp_schedule
from repro.schedulers.dualhp import dualhp_schedule

PLATFORM = Platform(num_cpus=20, num_gpus=4)
BATCH_SIZES = (1, 2, 4, 8, 16, 32, 64)
REPEATS = 3


def _rows(width: int, batch: int, seed: int) -> list[Instance]:
    """*batch* independent ``layered`` instances of ``width**2`` tasks."""
    return [
        layered_random_graph(width, width, np.random.default_rng(seed + row)).to_instance()
        for row in range(batch)
    ]


def _batch_over_scalar(width: int, batch: int) -> float:
    ratios = []
    for repeat in range(REPEATS):
        rows = _rows(width, batch, seed=1000 * repeat)
        cpu = np.array([[t.cpu_time for t in row] for row in rows])
        gpu = np.array([[t.gpu_time for t in row] for row in rows])
        started = time.perf_counter()
        scalar = [dualhp_schedule(row, PLATFORM) for row in rows]
        scalar_s = time.perf_counter() - started
        started = time.perf_counter()
        result = batch_dualhp_schedule(cpu, gpu, PLATFORM)
        batch_s = time.perf_counter() - started
        assert [r.lam for r in scalar] == result.lams.tolist()
        assert [r.makespan for r in scalar] == result.makespans.tolist()
        ratios.append(batch_s / scalar_s)
    return statistics.median(ratios)


@pytest.mark.parametrize("width", [8, 16], ids=["n64", "n256"])
def test_dualhp_crossover(benchmark, width):
    def run():
        return {b: _batch_over_scalar(width, b) for b in BATCH_SIZES}

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["batch_over_scalar"] = {
        b: round(r, 2) for b, r in ratios.items()
    }
    print(f"\nn={width * width}: " + "  ".join(
        f"B={b}: {r:.2f}" for b, r in ratios.items()
    ) + f"  (planner crossover: {DUALHP_CROSSOVER})")
