"""The benchmark's workloads: what each runs, checks and measures.

Every workload reports the same end-to-end metrics (see ``README.md``
for their definitions per workload) in an untraced run, and the same
per-layer metrics (:data:`ledger.LAYER_UNITS`) in a traced run.  The
gated end-to-end times are CPU times of the program's processes, which
leave out the time a process waited for a CPU, scaled by the run's
host-speed probe (:mod:`probe`); the raw CPU times, wall times and
request latencies are printed next to them, not gated.  A
traced run alternates untraced and traced rounds of the measurement,
so that the tracing overhead can be reported, with its noise, next to
the per-layer numbers of the first traced round.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import checks as chk
import serve_load
from ledger import SpanSet, layer_metrics, overhead_metrics
from probe import Window, mean_ms, normalise
from programs import Pass, Programs, now, peak_rss_mb

E2E_UNITS = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
}

#: Set-up-only launches per campaign run, on top of the passes' own.
SETUP_LAUNCHES = 5
#: Warm passes after each cold campaign pass, each in a fresh process.
WARM_PASSES = 3
#: Set-up-only server starts per serve run, on top of each pass's own.
SETUP_STARTS = 3
#: Warm replays of the serve stream after its cold pass.
WARM_REPLAYS = 6
#: Untraced + traced rounds a traced campaign run makes at least, so
#: that the tracing overhead has a noise estimate (serve: one round).
TRACE_ROUNDS = 2

FIGURES = ["campaign", "--fast", "--targets", "fig6,fig7", "--jobs", "1",
           "--backend", "serial"]
FIGURES_WS = ["campaign", "--fast", "--targets", "fig6,fig7", "--jobs", "2",
              "--backend", "work-stealing"]
FIGURES_SPECS = 120
SWEEP_FAMILIES = (("layered", 128), ("chains", 64))
SWEEP_SIZE = 16
SWEEP_ALGORITHMS = ("heteroprio", "dualhp", "heft")
SWEEP_SPECS = sum(count for _, count in SWEEP_FAMILIES) * len(SWEEP_ALGORITHMS)


@dataclass
class Context:
    """Inputs and accumulators of one benchmark run."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    programs: Programs
    refs: dict
    checks: chk.Checks = field(default_factory=chk.Checks)
    report: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)  # sample counts behind the metrics


@dataclass
class Outcome:
    metrics: dict[str, float]
    calls: dict[str, int] | None = None
    #: Printed but not part of the result line: name -> (value, unit).
    info: dict[str, tuple[float, str]] = field(default_factory=dict)


def end_to_end(ctx: Context, cpu: dict[str, tuple[list[float], list[Window]]],
               info: dict[str, tuple[float, str]]) -> Outcome:
    """The gated metrics from CPU times and the windows they were measured in.

    ``cpu`` maps ``setup``, ``cold`` and ``warm`` to the CPU times of
    their passes and the monotonic windows those passes ran in; each
    metric is :func:`probe.normalise` of them.  The median raw CPU time
    and the probe's mean unit time over the windows go to *info*, the
    probe's samples and the passes to the run's report.
    """
    samples = ctx.programs.probe_samples()
    ctx.report["host_probe"] = {"samples": samples, "passes": cpu}
    metrics, raw = {}, {}
    for name, (times, windows) in cpu.items():
        metrics[f"{name}_s"] = normalise(times, windows, samples)
        raw[f"{name}_cpu_s"] = (statistics.median(times), "s")
        raw[f"{name}_probe_ms"] = (mean_ms(samples, windows) or 0.0, "ms")
    metrics["peak_rss_mb"] = peak_rss_mb()
    return Outcome(metrics, info={**raw, **info})


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def repeat(ctx: Context, one: Callable[[], Any], minimum: int = 1) -> list[Any]:
    """Run *one* at least *minimum* times, and again while the budget fits another."""
    results, start = [], now()
    while True:
        began = now()
        results.append(one())
        if len(results) >= minimum and now() - start + (now() - began) > ctx.seconds:
            return results


# -- campaign workloads -------------------------------------------------------


@dataclass
class Pair:
    """A cold pass on a fresh cache and warm passes on the filled one."""

    cold: Pass
    warm: list[Pass]
    cold_stats: list[dict]
    warm_stats: list[dict]
    spec_elapsed_s: list[float]
    unit_s: list[float]  # execution time of each work unit of the cold pass

    @property
    def passes(self) -> list[Pass]:
        return [self.cold, *self.warm]


def _manifest_stats(cache: Path) -> list[dict]:
    manifests = [json.loads(p.read_text()) for p in (cache / "manifests").glob("*.json")]
    return [m["stats"] for m in sorted(manifests, key=lambda m: m["started_at"])]


def _unit_times(entries: list[dict]) -> list[float]:
    """Execution time of each work unit, from the cold pass's cache entries.

    The rows of a lockstep group share its time (``elapsed_s`` is the
    group's time over its rows), so rows of one spec shape with the same
    ``elapsed_s`` form one unit; a scalar spec is a unit of its own.
    """
    units: dict[tuple, float] = {}
    for entry in entries:
        spec, elapsed = entry["spec"], entry["elapsed_s"]
        shape = (spec["workload"], spec["size"], spec["algorithm"], spec["mode"], elapsed)
        units[shape] = units.get(shape, 0.0) + elapsed
    return list(units.values())


def campaign_pair(ctx: Context, command: list[str],
                  check: Callable[[Context, Pair, Path], None],
                  traced: bool = False) -> Pair:
    cache = ctx.programs.path("cache")
    argv = [*command, "--cache-dir", str(cache)]
    cold = ctx.programs.run(argv, traced=traced)
    cold_stats = _manifest_stats(cache)
    entries = [json.loads(p.read_text()) for p in cache.glob("??/*.json")]
    warm = [ctx.programs.run(argv, traced=traced) for _ in range(WARM_PASSES)]
    pair = Pair(cold, warm, cold_stats, _manifest_stats(cache),
                [e["elapsed_s"] for e in entries], _unit_times(entries))
    check(ctx, pair, cache)
    return pair


def _check_figures(ctx: Context, pair: Pair, cache: Path) -> None:
    refs = ctx.refs.get("figures", {})
    chk.check_figures(ctx.checks, pair.cold.stdout, refs, f"{ctx.workload} cold")
    for warm in pair.warm:
        ctx.checks.expect(warm.stdout == pair.cold.stdout,
                          f"{ctx.workload}: warm stdout differs from cold")
    chk.check_cache_payloads(ctx.checks, cache, FIGURES_SPECS)


def sweep_request(seed: int) -> dict:
    """The seed-sweep ``BatchRequest``: spec seeds from ``derive_seeds``."""
    from repro.campaign import derive_seeds

    total = sum(count for _, count in SWEEP_FAMILIES)
    seeds = iter(derive_seeds(seed, total))
    requests = []
    for family, count in SWEEP_FAMILIES:
        for _ in range(count):
            spec_seed = next(seeds)
            requests += [
                serve_load.request(family, SWEEP_SIZE, algorithm, "independent",
                                   seed=spec_seed)
                for algorithm in SWEEP_ALGORITHMS
            ]
    return {"kind": "batch", "requests": requests}


def _sweep_checker(request: dict) -> Callable[[Context, Pair, Path], None]:
    def check(ctx: Context, pair: Pair, cache: Path) -> None:
        records = chk.sweep_records(pair.cold.stdout)
        ctx.checks.expect(len(records) == SWEEP_SPECS,
                          f"seed-sweep: {len(records)} records, expected {SWEEP_SPECS}")
        for label, metrics in records:
            ctx.checks.oracle(metrics, label)
        for warm in pair.warm:
            ctx.checks.expect(warm.stdout == pair.cold.stdout,
                              "seed-sweep: warm stdout differs from cold")
        reference = ctx.refs.get("seed-sweep", {}).get(str(ctx.seed))
        if reference is not None:
            ctx.checks.expect(chk.digest(pair.cold.stdout) == reference,
                              f"seed-sweep: records differ from the seed-{ctx.seed} reference")
            return
        # No recorded digest for this seed: re-execute one spec of each
        # lockstep group on the scalar path and compare the payloads.
        first_chains = SWEEP_FAMILIES[0][1] * len(SWEEP_ALGORITHMS)
        for i in [*range(3), *range(first_chains, first_chains + 3)]:
            if i < len(records):
                label, metrics = records[i]
                chk.scalar_matches(ctx.checks, request["requests"][i], metrics, label)
    return check


def _panel_walls(pair: Pair) -> list[float]:
    """Wall time of each ``run_campaign`` call (figure panel) of the cold pass."""
    return [stats["wall_s"] for stats in pair.cold_stats]


def _group_walls(pair: Pair) -> list[float]:
    """Execution time of each lockstep group of the cold pass."""
    return pair.unit_s


def _campaign_workload(ctx: Context, command: list[str],
                       check: Callable[[Context, Pair, Path], None],
                       specs: int, batches: Callable[[Pair], list[float]],
                       serial: bool = True) -> Outcome:
    if serial:
        ctx.programs.place()
    if ctx.trace:
        rounds = repeat(ctx, lambda: (campaign_pair(ctx, command, check),
                                      campaign_pair(ctx, command, check, traced=True)),
                        minimum=TRACE_ROUNDS)
        untraced, traced = rounds[0]
        span_sets = [SpanSet(p.spans, [(p.ready, p.done)]) for p in traced.passes]
        metrics, calls = layer_metrics(
            span_sets, cold_stats=untraced.cold_stats, cold_wall=untraced.cold.wall_s)
        metrics.update(overhead_metrics(
            *([sum(p.wall_s for p in pair.passes) for pair in side] for side in zip(*rounds))))
        ctx.report["ledger"] = {"cold": traced.cold_stats, "warm": traced.warm_stats}
        return Outcome(metrics, calls)

    ctx.programs.start_probe()
    setups = [ctx.programs.run(["campaign"], setup_only=True) for _ in range(SETUP_LAUNCHES)]
    pairs = repeat(ctx, lambda: campaign_pair(ctx, command, check))
    setups += [p for pair in pairs for p in pair.passes]
    ctx.counts.update({"setup_s": len(setups), "cold_passes": len(pairs),
                       "warm_passes": len(pairs) * WARM_PASSES, "specs_per_pass": specs,
                       "batches_per_pass": len(batches(pairs[0]))})
    ctx.report["ledger"] = {"cold": pairs[-1].cold_stats, "warm": pairs[-1].warm_stats}

    def per_pass(metric: Callable[[Pair], float]) -> float:
        return statistics.median(metric(pair) for pair in pairs)

    warm = [w for pair in pairs for w in pair.warm]
    return end_to_end(
        ctx,
        {"setup": ([p.setup_cpu_s for p in setups], [(p.spawn, p.ready) for p in setups]),
         "cold": ([p.cold.cpu_s for p in pairs], [(p.cold.ready, p.cold.done) for p in pairs]),
         "warm": ([w.cpu_s for w in warm], [(w.ready, w.done) for w in warm])},
        info={
            "setup_wall_s": (statistics.median(p.setup_s for p in setups), "s"),
            "cold_wall_s": (per_pass(lambda p: p.cold.wall_s), "s"),
            "warm_wall_s": (statistics.median(w.wall_s for w in warm), "s"),
            "req_p50_ms": (per_pass(lambda p: 1000.0 * percentile(p.spec_elapsed_s, 50)), "ms"),
            "req_p99_ms": (per_pass(lambda p: 1000.0 * percentile(p.spec_elapsed_s, 99)), "ms"),
            "batch_p50_ms": (per_pass(lambda p: 1000.0 * statistics.median(batches(p))), "ms"),
            "req_per_s": (per_pass(lambda p: specs / p.cold.wall_s), "1/s"),
        })


def figures(ctx: Context) -> Outcome:
    return _campaign_workload(ctx, FIGURES, _check_figures, FIGURES_SPECS, _panel_walls)


def figures_ws(ctx: Context) -> Outcome:
    return _campaign_workload(ctx, FIGURES_WS, _check_figures, FIGURES_SPECS, _panel_walls,
                              serial=False)


def seed_sweep(ctx: Context) -> Outcome:
    request = sweep_request(ctx.seed)
    spec_file = ctx.programs.path("sweep.json")
    spec_file.write_text(json.dumps(request))
    command = ["campaign", "--spec", str(spec_file), "--jobs", "1", "--backend", "serial"]
    return _campaign_workload(ctx, command, _sweep_checker(request), SWEEP_SPECS,
                              _group_walls)


# -- the service --------------------------------------------------------------


def _op_label(op: serve_load.Op) -> str:
    first = op.payload if op.kind == "single" else op.payload["requests"][0]
    return f"{op.kind} {serve_load.key(first)}"


def _check_serve(ctx: Context, cold: list, replays: list[list]) -> None:
    """Every op of the cold stream, and each warm replay equal to it."""
    refs = ctx.refs.get("serve", {})
    for r in cold:
        label = f"serve {_op_label(r.op)}"
        items = r.results()
        expected = 1 if r.op.kind == "single" else len(r.op.payload["requests"])
        if not ctx.checks.expect(
            r.status == 200 and r.finished is not None and len(items) == expected,
            f"{label}: HTTP {r.status}, {len(items)}/{expected} results",
        ):
            continue
        for item in items:
            ctx.checks.oracle(item["metrics"], label)
        if r.op.kind == "single":
            ctx.checks.expect(
                chk.digest(chk.canonical(items[0]["metrics"]))
                == refs.get(serve_load.key(r.op.payload)),
                f"{label}: metrics differ from the reference")
    for warm in replays:
        for c, w in zip(cold, warm, strict=True):
            ctx.checks.expect(
                w.status == 200 and [e["metrics"] for e in c.results()]
                == [e["metrics"] for e in w.results()],
                f"serve warm replay of {_op_label(c.op)} differs from the cold stream")
    batches = [r for r in cold if r.op.kind == "batch" and r.results()]
    for r in batches[:3]:  # lockstep prefetch vs the scalar path
        chk.scalar_matches(ctx.checks, r.op.payload["requests"][0],
                           r.results()[0]["metrics"], f"serve {_op_label(r.op)}")


def _start_warm(ctx: Context, traced: bool = False):
    """Start a server and run the warm-up.

    Returns the server, its set-up window (spawn to warm-up done, on the
    monotonic clock) and the CPU time the server used in that set-up.
    """
    server = ctx.programs.start_server(traced=traced)
    warmup, _, _ = serve_load.closed_loop(server.port, serve_load.warmup_ops(), connections=1)
    ready, ready_cpu = now(), server.cpu_s()
    for r in warmup:
        ctx.checks.expect(r.status == 200 and r.finished is not None,
                          f"serve warm-up {_op_label(r.op)}: HTTP {r.status}")
    return server, (server.spawn, ready), ready_cpu


def _delta(after: dict, before: dict) -> dict:
    d_after, d_before = after["dispatcher"], before["dispatcher"]
    delta = {k: d_after[k] - d_before[k] for k in
             ("requests", "cache_hits", "executed", "coalesced", "prefetched", "errors")}
    delta["rejected"] = after["queue"]["rejected"] - before["queue"]["rejected"]
    return delta


def _serve_pass(ctx: Context, ops: list, traced: bool = False) -> dict:
    """Cold stream on a fresh server, then :data:`WARM_REPLAYS` warm replays.

    ``cpu`` holds the server's CPU time over the cold stream, then over
    each warm replay.
    """
    server, setup, setup_cpu = _start_warm(ctx, traced)
    before = serve_load.server_stats(server.port)
    start_cpu = server.cpu_s()
    cold, cold_start, cold_end = serve_load.closed_loop(server.port, ops)
    cpu = [server.cpu_s() - start_cpu]
    middle = serve_load.server_stats(server.port)
    replays, windows = [], [(cold_start, cold_end)]
    for _ in range(WARM_REPLAYS):
        start_cpu = server.cpu_s()
        warm, warm_start, warm_end = serve_load.closed_loop(server.port, ops)
        cpu.append(server.cpu_s() - start_cpu)
        replays.append(warm)
        windows.append((warm_start, warm_end))
    after = serve_load.server_stats(server.port)
    stopped = ctx.programs.stop_server(server)
    _check_serve(ctx, cold, replays)
    return {
        "setup": setup, "setup_cpu": setup_cpu, "cold": cold, "replays": replays,
        "stopped": stopped, "windows": windows, "cpu": cpu,
        "delta": _delta(after, before), "cold_delta": _delta(middle, before),
        "stats": after,
    }


def serve(ctx: Context) -> Outcome:
    ops = serve_load.stream(ctx.seed)
    ctx.programs.place()  # the load generator on one CPU, the server on the rest
    if ctx.trace:
        rounds = repeat(ctx, lambda: (_serve_pass(ctx, ops), _serve_pass(ctx, ops, traced=True)))
        traced = rounds[0][1]
        metrics, calls = layer_metrics(
            [SpanSet(traced["stopped"].spans, traced["windows"])],
            cold_stats=[], cold_wall=0.0,
            service=traced["delta"],
            accept_ms=[r.accept_ms for r in traced["cold"] if r.accept_ms is not None],
        )
        metrics.update(overhead_metrics(
            *([sum(b - a for a, b in run["windows"]) for run in side] for side in zip(*rounds))))
        ctx.report["ledger"] = {"v1_stats": traced["stats"]}
        return Outcome(metrics, calls)

    ctx.programs.start_probe()
    setups = []  # (window, cpu) of each server's set-up
    for _ in range(SETUP_STARTS):
        server, setup, setup_cpu = _start_warm(ctx)
        ctx.programs.stop_server(server)
        setups.append((setup, setup_cpu))
    runs = repeat(ctx, lambda: _serve_pass(ctx, ops))
    setups += [(run["setup"], run["setup_cpu"]) for run in runs]
    cold = [r for run in runs for r in run["cold"]]
    singles = [r.latency_ms for r in cold if r.op.kind == "single"]
    batches = [r.latency_ms for r in cold if r.op.kind == "batch"]
    warm_singles = [r.latency_ms for run in runs for replay in run["replays"]
                    for r in replay if r.op.kind == "single"]
    cold_walls = [run["windows"][0][1] - run["windows"][0][0] for run in runs]
    ctx.counts.update({"setup_s": len(setups), "cold_passes": len(runs),
                       "cold_singles": len(singles), "warm_singles": len(warm_singles),
                       "batches": len(batches)})
    ctx.report["ledger"] = {"v1_stats": runs[-1]["stats"], "cold_delta": runs[-1]["cold_delta"]}
    return end_to_end(
        ctx,
        {"setup": ([cpu for _, cpu in setups], [window for window, _ in setups]),
         "cold": ([run["cpu"][0] for run in runs], [run["windows"][0] for run in runs]),
         "warm": ([cpu for run in runs for cpu in run["cpu"][1:]],
                  [window for run in runs for window in run["windows"][1:]])},
        info={
            "setup_wall_s": (statistics.median(b - a for (a, b), _ in setups), "s"),
            "cold_wall_s": (statistics.median(cold_walls), "s"),
            "warm_wall_s": (statistics.median(b - a for run in runs
                                              for a, b in run["windows"][1:]), "s"),
            "req_p50_ms": (percentile(warm_singles, 50), "ms"),
            "req_p99_ms": (percentile(singles, 99), "ms"),
            "batch_p50_ms": (statistics.median(batches), "ms"),
            "req_per_s": (statistics.median(len(run["cold"]) / wall
                                            for run, wall in zip(runs, cold_walls)), "1/s"),
        })


WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "figures": figures,
    "seed-sweep": seed_sweep,
    "serve": serve,
    "figures-ws": figures_ws,
}
