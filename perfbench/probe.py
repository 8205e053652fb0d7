# repro-lint: disable=wall-clock -- the probe times a fixed unit of its own work to gauge the host; never a program result
"""Host-speed probe: a fixed piece of CPU work timed all through a run.

Usage (started by :meth:`programs.Programs.start_probe`)::

    python3 perfbench/probe.py --out FILE [--cpus LIST]

The benchmark's shared 2-vCPU host does not run at one speed: the same
cold pass has taken 2.5 times longer in some stretches than in others,
with its CPU time growing as much as its wall time, so no choice of
clock removes it, and the host changes speed within a run.  The probe
times a unit of work that does not depend on the program — a small list
schedule on heaps and dicts, a few numpy reductions, a JSON round trip:
the mix of interpreter, numpy and serialisation work the program does.
Every :data:`PERIOD_S` it runs :data:`WARMUP_UNITS` + :data:`KEPT_UNITS`
units back to back on the CPUs the program runs on (5-8% of one CPU),
and appends each kept unit's CPU time, with the ``CLOCK_MONOTONIC``
time it ended, to ``FILE``.  The mean over the time a pass ran is the
host's speed while it ran; :func:`normalise` scales the pass's CPU time
to a host where a unit takes :data:`REFERENCE_MS`.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import random
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

#: CPU time of one unit on the host the normalised metrics refer to.
REFERENCE_MS = 1.0
#: A burst of units starts this often.
PERIOD_S = 0.1
#: Units at the start of a burst that warm the core and are not kept.
WARMUP_UNITS = 2
#: Units of a burst that are timed and kept.
KEPT_UNITS = 3

_CPUS, _GPUS = 6, 2
_RNG = random.Random(2017)
_TASKS = [(_RNG.uniform(1.0, 20.0), _RNG.uniform(0.5, 10.0)) for _ in range(960)]
_COSTS = np.array(_TASKS)


def unit() -> int:
    """One fixed unit of work (about 1 ms of CPU on the benchmark's host)."""
    ready = [(-cpu / gpu, i) for i, (cpu, gpu) in enumerate(_TASKS)]
    heapq.heapify(ready)
    workers = [(0.0, w) for w in range(_CPUS + _GPUS)]
    finish: dict[int, float] = {}
    while ready:
        _, task = heapq.heappop(ready)
        start, worker = heapq.heappop(workers)
        end = start + _TASKS[task][worker >= _CPUS]
        finish[task] = end
        heapq.heappush(workers, (end, worker))
    ends = np.fromiter(finish.values(), float, len(finish))
    area = float(np.minimum(_COSTS[:, 0], _COSTS[:, 1]).sum()) / (_CPUS + _GPUS)
    order = sorted(finish, key=finish.__getitem__)[:32]
    text = json.dumps({"makespan": float(ends.max()), "area": area, "order": order})
    return len(json.loads(text)["order"])


def burst() -> list[tuple[float, float]]:
    """``(end, unit CPU ms)`` of each kept unit of one burst."""
    kept = []
    for i in range(WARMUP_UNITS + KEPT_UNITS):
        began = time.thread_time()
        unit()
        spent = time.thread_time() - began
        if i >= WARMUP_UNITS:
            kept.append((time.monotonic(), 1000.0 * spent))
    return kept


def read_samples(path: Path) -> list[tuple[float, float]]:
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return []
    return [(float(end), float(ms)) for end, ms in
            (line.split() for line in lines if len(line.split()) == 2)]


Window = tuple[float, float]


def mean_ms(samples: list[tuple[float, float]], windows: list[Window]) -> float | None:
    """Mean unit time of the samples taken inside *windows*, ``None`` if there are none."""
    inside = [ms for end, ms in samples if any(a <= end <= b for a, b in windows)]
    return statistics.fmean(inside) if inside else None


def normalise(cpu_s: list[float], windows: list[Window],
              samples: list[tuple[float, float]]) -> float:
    """Median over passes of each pass's CPU time at :data:`REFERENCE_MS`.

    Pass *i* took ``cpu_s[i]`` of CPU in ``windows[i]``; it is scaled by
    the probe's mean unit time during that window.  The mean, not the
    median, because the pass's CPU time adds up the host's speed over the
    whole window, slow moments and fast ones alike.  A pass too short to
    hold a sample takes the mean over all the windows.
    """
    overall = mean_ms(samples, windows) or statistics.fmean(ms for _, ms in samples)
    return statistics.median(cpu * REFERENCE_MS / (mean_ms(samples, [window]) or overall)
                             for cpu, window in zip(cpu_s, windows))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="probe.py")
    parser.add_argument("--out", required=True)
    parser.add_argument("--cpus", default=None)
    args = parser.parse_args(argv)
    if args.cpus:
        os.sched_setaffinity(0, {int(cpu) for cpu in args.cpus.split(",")})
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    gc.disable()  # a unit's garbage is freed by reference counting alone
    parent = os.getppid()
    try:
        with open(args.out, "a", encoding="utf-8") as out:
            while os.getppid() == parent:  # stop if the benchmark died without reaping us
                time.sleep(PERIOD_S)
                out.write("".join(f"{end:.6f} {ms:.6f}\n" for end, ms in burst()))
                out.flush()
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
