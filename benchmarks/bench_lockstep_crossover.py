"""Lockstep vs scalar execution of independent seed sweeps (the planner's threshold).

The campaign planner sends an independent-mode HeteroPrio, HEFT or
DualHP group through the lockstep engine only from
``LOCKSTEP_MIN_ROWS`` rows up (:mod:`repro.campaign.executor`): below
it, one :func:`~repro.campaign.executor.execute_spec` per row is
cheaper than the engine's per-step numpy overhead.  This bench times
both entry points on the same specs — seeded ``layered`` rows of 64 and
256 tasks (sizes 8 and 16), the shapes the service and the seed sweeps
run — at B in {1, 2, 4, 8, 16, 32, 64} on the paper platform, and
reports the median over interleaved repeats of batch time over scalar
time.  The graph, duration and area-bound memos are cleared before each
timed side, so both pay the same graph builds and bounds a campaign's
misses pay.  Both paths must produce the same payloads, compared as canonical
JSON (a metric may be NaN or inf, which ``==`` would reject).

Run with::

    pytest benchmarks/bench_lockstep_crossover.py --benchmark-only -s
"""

import statistics
import time

import pytest

from repro import io
from repro.campaign import InstanceSpec, executor
from repro.campaign.cache import encode_value
from repro.campaign.executor import (
    LOCKSTEP_MIN_ROWS,
    execute_spec,
    execute_spec_batch,
)

ALGORITHMS = ("heteroprio", "heft", "dualhp")
BATCH_SIZES = (1, 2, 4, 8, 16, 32, 64)
REPEATS = 3


def _specs(algorithm: str, size: int, batch: int, seed: int) -> list[InstanceSpec]:
    """*batch* independent ``layered`` specs of ``size**2`` tasks."""
    return [
        InstanceSpec(
            workload="layered", size=size, algorithm=algorithm,
            mode="independent", bound="area", seed=seed + row,
        )
        for row in range(batch)
    ]


def _canon(payloads: list[dict]) -> list[str]:
    return [io.canonical_dumps(encode_value(p)) for p in payloads]


def _timed(fn, *args):
    executor._random_workload.cache_clear()
    executor._durations.cache_clear()
    executor._area_bound.cache_clear()
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started


def _batch_over_scalar(algorithm: str, size: int, batch: int) -> float:
    ratios = []
    for repeat in range(REPEATS):
        specs = _specs(algorithm, size, batch, seed=1000 * repeat)
        # Alternate which side runs first so drift hits both alike.
        sides = [
            ("batch", execute_spec_batch, specs),
            ("scalar", lambda s: [execute_spec(spec) for spec in s], specs),
        ]
        if repeat % 2:
            sides.reverse()
        payloads, seconds = {}, {}
        for name, fn, arg in sides:
            payloads[name], seconds[name] = _timed(fn, arg)
        assert _canon(payloads["batch"]) == _canon(payloads["scalar"])
        ratios.append(seconds["batch"] / seconds["scalar"])
    return statistics.median(ratios)


@pytest.mark.parametrize("size", [8, 16], ids=["n64", "n256"])
def test_lockstep_crossover(benchmark, size):
    def run():
        return {
            algorithm: {b: _batch_over_scalar(algorithm, size, b) for b in BATCH_SIZES}
            for algorithm in ALGORITHMS
        }

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["batch_over_scalar"] = {
        algorithm: {b: round(r, 2) for b, r in row.items()}
        for algorithm, row in ratios.items()
    }
    print(f"\nn={size * size} batch/scalar (planner threshold: {LOCKSTEP_MIN_ROWS})")
    print(f"{'algorithm':<11}" + "".join(f"{f'B={b}':>8}" for b in BATCH_SIZES))
    for algorithm, row in ratios.items():
        print(f"{algorithm:<11}" + "".join(f"{r:>8.2f}" for r in row.values()))
