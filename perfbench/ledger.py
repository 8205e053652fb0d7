"""Per-layer metrics from the spans of a traced run.

Self time follows the usual definition — a span's duration minus the
part its child spans cover — generalised to concurrent spans (the
service's event loop and executor threads): a sweep over all span
starts and ends charges each instant to the spans that are open and
have no open child, split evenly when several threads have one.  The
self times of all spans should therefore add up to the time during
which any span was open.  The residual is computed on its own, as the
timed windows minus the union of the span intervals, so the balance
Σ self + residual − traced wall is 0 only when the sweep charges every
covered instant exactly once.
"""

from __future__ import annotations

import json
import statistics
from typing import Iterable

from tracer import TRACED_NAMES

#: Per-layer metric name -> unit, in report order.  Every traced run
#: reports all of them, zero where a workload does not reach the layer.
LAYER_UNITS: dict[str, str] = {}


def _declare(names: Iterable[str], unit: str) -> None:
    for name in names:
        LAYER_UNITS[name] = unit


POLICIES = ("heteroprio", "heft", "dualhp", "buckets")
BATCH_KERNELS = (
    "simulator.batch_heteroprio_schedule",
    "schedulers.batch_dualhp_schedule",
    "schedulers.batch_heft_schedule",
    "simulator.batch_simulate_dag",
)
_TIMED = (
    "schedulers.dualhp_schedule", "simulator.simulate", "bounds.dag_lower_bound",
    "bounds.area_bound", "core.heteroprio_schedule", "schedulers.heft_schedule",
    *BATCH_KERNELS, "dag.build_compiled", "dag.random_graph",
    "dag.assign_priorities", "graph_store.get", "graph_store.put",
    "salts.salt_for_spec", "cache.get", "cache.put",
    "executor.execute_spec", "executor.execute_spec_batch",
    "executor.execute_spec_cached", "backends.run_work_stealing",
)
for _name in _TIMED:
    _declare([f"{_name}.calls"], "count")
    _declare([f"{_name}.self_s"], "s")
_declare([f"simulator.simulate.{p}.self_s" for p in POLICIES], "s")
_declare([f"{k}.rows" for k in BATCH_KERNELS], "count")
_declare(["dag.random_graph.distinct", "graph_store.get.hits",
          "cache.memory_hits", "cache.disk_hits"], "count")
_declare(["dag.random_graph.reuse_ratio", "cache.hit_ratio"], "ratio")
_declare(["executor.run_campaign.self_s"], "s")
_declare(["executor.specs_batched", "executor.specs_scalar_small"], "count")
_declare(["executor.batched_share"], "ratio")
_declare(["backends.units", "backends.steals"], "count")
_declare(["backends.parallel_efficiency"], "ratio")
_declare(["service.accept_ms"], "ms")
_declare(["service.dispatch.self_s", "service.prefetch.self_s"], "s")
_declare([f"service.{c}" for c in ("requests", "cache_hits", "executed", "coalesced",
                                   "prefetched", "rejected", "errors")], "count")
_declare(["service.hit_ratio"], "ratio")
_declare(["trace.wall_s", "trace.self_sum_s", "trace.residual_s", "trace.overhead_s",
          "trace.overhead_noise_s"], "s")
_declare(["trace.spans", "trace.overhead_rounds"], "count")

#: Span names recorded once per resumption (coroutines, generators); the
#: spans of one call share its call id as their tag.
_SEGMENTED = ("service.dispatch", "service.prefetch", "backends.run_work_stealing")

#: Span names whose self time a metric other than ``<name>.self_s`` carries.
_SELF_ALIASES = {
    "executor.plan_units": "executor.run_campaign.self_s",
    "executor.run_campaign": "executor.run_campaign.self_s",
    "service.dispatch": "service.dispatch.self_s",
    "service.prefetch": "service.prefetch.self_s",
}


class SpanSet:
    """The spans of one traced process, clipped to the timed windows."""

    def __init__(self, path: str, windows: list[tuple[float, float]]):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        self.spans = data["spans"]
        self.outcomes = data["outcomes"]
        self.units = data["units"]
        self.windows = sorted(windows)

    def inside(self, t: float) -> bool:
        return any(a <= t <= b for a, b in self.windows)

    def _clip(self, a: float, b: float) -> float:
        return sum(max(0.0, min(b, hi) - max(a, lo)) for lo, hi in self.windows)

    def wall(self) -> float:
        return sum(hi - lo for lo, hi in self.windows)

    def covered(self) -> float:
        """Time inside the windows during which at least one span was open."""
        total, lo, hi = 0.0, None, None
        for start, end in sorted((s[3], s[4]) for s in self.spans):
            if hi is not None and start <= hi:
                hi = max(hi, end)
                continue
            if hi is not None:
                total += self._clip(lo, hi)
            lo, hi = start, end
        if hi is not None:
            total += self._clip(lo, hi)
        return total

    def self_times(self) -> dict[int, float]:
        """Self time of every span id (see the module docstring)."""
        parent = {s[0]: s[1] for s in self.spans}
        events = []
        for sid, _, _, start, end, *_ in self.spans:
            events.append((start, 1, sid))
            events.append((end, 0, sid))
        events.sort()
        open_children: dict[int, int] = {}
        leaves: set[int] = set()
        own: dict[int, float] = {sid: 0.0 for sid in parent}
        previous = events[0][0] if events else 0.0
        for t, is_start, sid in events:
            if leaves and t > previous:
                share = self._clip(previous, t) / len(leaves)
                for leaf in leaves:
                    own[leaf] += share
            previous = t
            up = parent[sid]
            if is_start:
                open_children[sid] = 0
                leaves.add(sid)
                if up in open_children:
                    open_children[up] += 1
                    leaves.discard(up)
            else:
                open_children.pop(sid, None)
                leaves.discard(sid)
                if up in open_children:
                    open_children[up] -= 1
                    if open_children[up] == 0:
                        leaves.add(up)
        return own


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    span_sets: list[SpanSet],
    *,
    cold_stats: list[dict],
    cold_wall: float,
    service: dict | None = None,
    accept_ms: list[float] | None = None,
) -> tuple[dict[str, float], dict[str, int]]:
    """Every per-layer metric of one workload, plus calls per traced name.

    *cold_stats* are the ``CampaignStats`` of the untraced cold pass
    (steals, per-spec execution time) and *cold_wall* its wall time;
    *service* holds the ``/v1/stats`` counter deltas over the timed
    stream and *accept_ms* the client's send-to-accepted times.
    """
    metrics = {name: 0.0 for name in LAYER_UNITS}
    calls = {name: 0 for name in TRACED_NAMES}
    self_by_name: dict[str, float] = {}
    distinct_graphs: set = set()
    segmented_calls: dict[str, set] = {}
    rows: dict[str, int] = {}
    for spans in span_sets:
        own = spans.self_times()
        for sid, _, name, start, _, _, corr, tag in spans.spans:
            self_by_name[name] = self_by_name.get(name, 0.0) + own[sid]
            if name == "simulator.simulate" and f"{name}.{tag}.self_s" in metrics:
                metrics[f"{name}.{tag}.self_s"] += own[sid]
            if not spans.inside(start):
                continue
            if name in _SEGMENTED:
                segmented_calls.setdefault(name, set()).add(tag)
                continue
            calls[name] = calls.get(name, 0) + 1
            if name == "dag.random_graph":
                distinct_graphs.add(corr)
            elif name in BATCH_KERNELS:
                rows[name] = rows.get(name, 0) + int(tag)
            elif name == "cache.get" and tag is not None:
                metrics[f"cache.{tag}_hits"] += 1
            elif name == "graph_store.get" and tag is not None:
                metrics["graph_store.get.hits"] += 1
        metrics["trace.spans"] += len(spans.spans)
    for name, call_ids in segmented_calls.items():
        calls[name] = len(call_ids)

    for name, seconds in self_by_name.items():
        key = _SELF_ALIASES.get(name, f"{name}.self_s")
        metrics[key] = metrics.get(key, 0.0) + seconds
    for name in _TIMED:
        metrics[f"{name}.calls"] = calls.get(name, 0)
    for name in BATCH_KERNELS:
        metrics[f"{name}.rows"] = rows.get(name, 0)
    metrics["dag.random_graph.distinct"] = len(distinct_graphs)
    metrics["dag.random_graph.reuse_ratio"] = _ratio(
        len(distinct_graphs), calls["dag.random_graph"])
    metrics["cache.hit_ratio"] = _ratio(
        metrics["cache.memory_hits"] + metrics["cache.disk_hits"], calls["cache.get"])

    outcomes = [o for spans in span_sets for o in spans.outcomes]
    executed = sum(o["executed"] for o in outcomes)
    metrics["executor.specs_batched"] = sum(o["batched"] for o in outcomes)
    metrics["executor.specs_scalar_small"] = sum(o["fallback_small"] for o in outcomes)
    metrics["executor.batched_share"] = _ratio(metrics["executor.specs_batched"], executed)
    metrics["backends.units"] = sum(spans.units for spans in span_sets)
    metrics["backends.steals"] = sum(s["steals"] for s in cold_stats)
    jobs = max((s["jobs"] for s in cold_stats), default=1)
    metrics["backends.parallel_efficiency"] = _ratio(
        sum(s["exec_s"] for s in cold_stats), jobs * cold_wall)

    if service:
        for counter in ("requests", "cache_hits", "executed", "coalesced",
                        "prefetched", "rejected", "errors"):
            metrics[f"service.{counter}"] = service.get(counter, 0)
        metrics["service.hit_ratio"] = _ratio(service["cache_hits"], service["requests"])
    metrics["service.accept_ms"] = _p50(accept_ms or [])

    wall = sum(spans.wall() for spans in span_sets)
    metrics["trace.wall_s"] = wall
    metrics["trace.self_sum_s"] = sum(self_by_name.values())
    metrics["trace.residual_s"] = wall - sum(spans.covered() for spans in span_sets)
    return metrics, calls


def overhead_metrics(untraced: list[float], traced: list[float]) -> dict[str, float]:
    """Tracing overhead from interleaved untraced and traced walls of one workload.

    The overhead is the median traced wall minus the median untraced
    wall; its noise is the larger range (max - min) of the two samples,
    0 when there is only one round.  See :func:`overhead_resolved`.
    """
    noise = max(max(v) - min(v) for v in (untraced, traced))
    return {
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        "trace.overhead_noise_s": noise,
        "trace.overhead_rounds": len(traced),
    }


def overhead_resolved(metrics: dict[str, float]) -> bool:
    """True when two or more rounds put the overhead above the noise.

    Tracing cannot make a pass faster, so a traced median below the
    untraced one is the host's drift, however large.
    """
    return (metrics["trace.overhead_rounds"] >= 2
            and metrics["trace.overhead_s"] > metrics["trace.overhead_noise_s"])


def balance_error(metrics: dict[str, float]) -> float:
    """|Σ per-layer self times + residual − traced wall| (0 when balanced)."""
    total = sum(
        value for name, value in metrics.items()
        if name.endswith(".self_s") and not name.startswith("simulator.simulate.")
        or name == "simulator.simulate.self_s"
    )
    return abs(total + metrics["trace.residual_s"] - metrics["trace.wall_s"])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


_PASS_FIELDS = ("total", "executed", "batched", "fallback_small", "fallback_policy",
                "fallback_runtime", "hits", "memory_hits", "disk_hits", "steals")


def path_summary(ledger: dict) -> dict[str, dict]:
    """One line of path counters per pass (campaign) or per service view."""
    summary: dict[str, dict] = {}
    for key, value in ledger.items():
        if isinstance(value, list):  # CampaignStats of each run_campaign call
            totals: dict = {f: sum(s[f] for s in value) for f in _PASS_FIELDS}
            by_algorithm: dict[str, int] = {}
            for stats in value:
                for alg, count in stats["fallback_by_algorithm"].items():
                    by_algorithm[alg] = by_algorithm.get(alg, 0) + count
            totals["fallback_by_algorithm"] = by_algorithm
            summary[key] = totals
        elif "dispatcher" in value:  # a /v1/stats snapshot
            d = value["dispatcher"]
            summary[key] = {
                **{k: d[k] for k in ("requests", "cache_hits", "executed", "coalesced",
                                     "prefetched", "errors", "prefetch_fallbacks")},
                "cache_tiers": d["cache_tiers"],
                "queue": {k: value["queue"][k] for k in
                          ("submitted", "rejected", "succeeded", "failed", "cancelled")},
            }
        else:
            summary[key] = value
    return summary
