"""Whole-program flow checks: the engine behind ``repro analyze``.

Three analyses share one :class:`~repro.analysis.callgraph.ProgramModel`
and the per-function summaries of :mod:`repro.analysis.summaries`:

**Determinism taint** (``flow-nondeterminism``) — every function
reachable from the campaign execution entries (``execute_spec`` and
friends — the *cache-keyed cone*) is checked for nondeterminism
escaping into results: global-RNG calls anywhere in the cone (they
mutate process-wide state, so mere presence fires), and wall-clock /
``id()``/``hash()`` / ``os.environ`` / set-order values that the taint
fixpoint proves flow to a return value or into a ``.put()`` cache
store.  Findings anchor at the *source* (that is where the fix — or
the justification — lives) and carry the interprocedural trace.

**Salt-closure verification** (``flow-salt-coverage``) — every salted
module that hosts functions reachable from the execution entries must
lie inside the dependency closure of the salt roots the executor
derives from its own dispatch
(:func:`repro.campaign.executor.dispatch_roots`), so no scheduler
slips into execution without salt coverage.

**Concurrency lint pack** — ``async-blocking`` (blocking calls on the
event loop, directly in an ``async def`` or through a bounded chain of
sync callees), ``fork-unsafe-state`` (module globals rebound by code
reachable from multiprocessing worker entries) and ``mp-shared-sync``
(module-level thread-sync primitives in worker-reachable modules).

Findings reuse the per-file ``# repro-lint: disable=RULE -- reason``
contract of :mod:`repro.analysis.lint`; the rule catalog lives in
:data:`repro.analysis.rules.FLOW_RULES` so ``repro lint`` accepts the
ids in suppressions and ``--list-rules`` shows one unified set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.analysis.callgraph import ProgramModel, Reachability, build_model, reach
from repro.analysis.fingerprint import SALTED_PACKAGES
from repro.analysis.lint import Suppression, parse_suppressions
from repro.analysis.rules import FLOW_RULES, FlowRuleInfo
from repro.analysis.summaries import (
    FunctionSummary,
    PRESENCE_KINDS,
    SourceEvent,
    TaintWitness,
    build_summaries,
    module_level_mp_sync,
)

__all__ = [
    "AnalysisReport",
    "DETERMINISM_ENTRIES",
    "Finding",
    "WORKER_ENTRIES",
    "analyze_tree",
]

#: Cache-keyed execution entries: everything these reach produces (or
#: transforms) payloads that end up under a ResultCache key.
DETERMINISM_ENTRIES: Tuple[str, ...] = (
    "repro/campaign/executor.py::execute_spec",
    "repro/campaign/executor.py::execute_spec_batch",
    "repro/campaign/executor.py::execute_spec_cached",
    "repro/campaign/executor.py::execute_unit",
)

#: Multiprocessing worker entry points: the work-stealing fabric's
#: worker loop and the mp-pool map function.
WORKER_ENTRIES: Tuple[str, ...] = (
    "repro/campaign/backends.py::_ws_worker",
    "repro/campaign/executor.py::_timed_execute",
)

#: Files whose wall-clock reads are sanctioned instrumentation (same
#: policy as the per-statement ``wall-clock`` rule).
_WALL_CLOCK_ALLOWED = ("bench.py", "telemetry.py")

#: Interprocedural depth for the async-blocking walk: an async def
#: calling sync helpers is checked this many call hops deep.
_ASYNC_DEPTH = 4

_RULE_INFO: Dict[str, FlowRuleInfo] = {info.rule_id: info for info in FLOW_RULES}


@dataclass(frozen=True)
class Finding:
    """One whole-program finding, with its interprocedural trace."""

    rule_id: str
    severity: str
    path: str  # repo-relative ("src/repro/...")
    line: int
    message: str
    trace: Tuple[str, ...] = ()
    fix_hint: str = ""

    def render(self) -> str:
        lines = [
            f"{self.path}:{self.line}: {self.severity} "
            f"[{self.rule_id}] {self.message}"
        ]
        lines.extend(f"    {step}" for step in self.trace)
        if self.fix_hint:
            lines.append(f"    [hint: {self.fix_hint}]")
        return "\n".join(lines)

    def payload(self) -> Dict[str, object]:
        """JSON-ready record (stable key set, CI annotation contract)."""
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "trace": list(self.trace),
            "fix_hint": self.fix_hint,
        }


@dataclass
class AnalysisReport:
    """Outcome of one ``repro analyze`` run."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Tuple[Finding, Suppression]] = field(default_factory=list)
    modules_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def render(self, *, show_suppressed: bool = False) -> str:
        lines = [
            finding.render()
            for finding in sorted(
                self.findings,
                key=lambda f: (f.path, f.line, f.rule_id, f.message),
            )
        ]
        if show_suppressed:
            for finding, sup in self.suppressed:
                lines.append(
                    f"{finding.path}:{finding.line}: suppressed "
                    f"[{finding.rule_id}] ({sup.reason})"
                )
        lines.append(
            f"{len(self.findings)} finding(s), "
            f"{len(self.suppressed)} suppressed, "
            f"{self.modules_checked} module(s) analyzed"
        )
        return "\n".join(lines)

    def to_payload(self) -> Dict[str, object]:
        """Canonical JSON payload: sorted findings, stable key sets."""
        key = lambda f: (f.path, f.line, f.rule_id, f.message)  # noqa: E731
        return {
            "ok": self.ok,
            "modules_checked": self.modules_checked,
            "findings": [f.payload() for f in sorted(self.findings, key=key)],
            "suppressed": [
                {**finding.payload(), "reason": sup.reason}
                for finding, sup in sorted(
                    self.suppressed, key=lambda pair: key(pair[0])
                )
            ],
        }


class _Collector:
    """Accumulates findings, applying per-file suppressions and dedup."""

    def __init__(self, model: ProgramModel):
        self._model = model
        self._suppressions: Dict[str, Dict[str, Suppression]] = {}
        self._seen: Set[Tuple[str, str, int, str]] = set()
        self.report = AnalysisReport(modules_checked=len(model.modules))

    def _file_suppressions(self, rel: str) -> Dict[str, Suppression]:
        cached = self._suppressions.get(rel)
        if cached is None:
            module = self._model.modules.get(rel)
            source = module.source if module is not None else ""
            cached, _ = parse_suppressions(source)
            self._suppressions[rel] = cached
        return cached

    def emit(
        self,
        rule_id: str,
        rel: str,
        line: int,
        message: str,
        trace: Sequence[str] = (),
    ) -> None:
        key = (rule_id, rel, line, message)
        if key in self._seen:
            return
        self._seen.add(key)
        info = _RULE_INFO[rule_id]
        finding = Finding(
            rule_id=rule_id,
            severity=info.severity,
            path=f"src/{rel}",
            line=line,
            message=message,
            trace=tuple(trace),
            fix_hint=info.fix_hint,
        )
        sup = self._file_suppressions(rel).get(rule_id)
        if sup is not None:
            self.report.suppressed.append((finding, sup))
        else:
            self.report.findings.append(finding)


# -- trace rendering ----------------------------------------------------------


def _qualname(model: ProgramModel, fid: str) -> str:
    info = model.function(fid)
    if info is not None:
        return info.qualname
    return fid.split("::", 1)[-1]


def _loc(model: ProgramModel, fid: str) -> str:
    info = model.function(fid)
    rel = fid.split("::", 1)[0]
    line = info.lineno if info is not None else 1
    return f"src/{rel}:{line}"


def _entry_trace(
    model: ProgramModel, cone: Reachability, fid: str
) -> List[str]:
    """Human-readable witness chain entry → ... → *fid*."""
    chain = cone.chain_to(fid)
    steps: List[str] = []
    if chain:
        entry = chain[0][0]
        steps.append(f"entry {_qualname(model, entry)} ({_loc(model, entry)})")
        for caller, lineno in chain[1:]:
            steps.append(
                f"→ {_qualname(model, caller)} ({_loc(model, caller)}), "
                f"called at line {lineno}"
            )
        rel = fid.split("::", 1)[0]
        last_line = chain[-1][1]
        steps.append(
            f"→ {_qualname(model, fid)} (src/{rel}), called at line {last_line}"
        )
    else:
        steps.append(f"entry {_qualname(model, fid)} ({_loc(model, fid)})")
    return steps


def _witness_trace(model: ProgramModel, witness: TaintWitness) -> List[str]:
    steps = [
        "source "
        f"{witness.source.detail} at src/{witness.source.module}:"
        f"{witness.source.lineno}"
    ]
    for callee, lineno in witness.via:
        steps.append(
            f"→ value returned by {_qualname(model, callee)}, "
            f"call at line {lineno}"
        )
    return steps


def _wall_clock_sanctioned(event: SourceEvent) -> bool:
    return (
        event.kind == "wall-clock"
        and event.module.rsplit("/", 1)[-1] in _WALL_CLOCK_ALLOWED
    )


# -- determinism taint --------------------------------------------------------


def _check_determinism(
    model: ProgramModel,
    summaries: Mapping[str, FunctionSummary],
    cone: Reachability,
    collector: _Collector,
) -> None:
    for fid in sorted(cone.fids):
        summary = summaries.get(fid)
        if summary is None:
            continue
        qual = _qualname(model, fid)
        entry_steps = _entry_trace(model, cone, fid)
        for event in summary.local_sources:
            if event.kind in PRESENCE_KINDS:
                collector.emit(
                    "flow-nondeterminism",
                    event.module,
                    event.lineno,
                    f"global RNG call {event.detail} inside cache-keyed "
                    f"execution ({qual})",
                    entry_steps,
                )
        if summary.returns_nondet:
            for witness in summary.return_witnesses:
                if witness.source.kind in PRESENCE_KINDS:
                    continue  # already reported by presence above
                if _wall_clock_sanctioned(witness.source):
                    continue
                collector.emit(
                    "flow-nondeterminism",
                    witness.source.module,
                    witness.source.lineno,
                    f"nondeterministic value ({witness.source.kind}: "
                    f"{witness.source.detail}) flows into the return value "
                    f"of cache-keyed {qual}",
                    entry_steps + _witness_trace(model, witness),
                )
        for sink in summary.sink_hits:
            for witness in sink.witnesses:
                if _wall_clock_sanctioned(witness.source):
                    continue
                collector.emit(
                    "flow-nondeterminism",
                    witness.source.module,
                    witness.source.lineno,
                    f"nondeterministic value ({witness.source.kind}: "
                    f"{witness.source.detail}) is stored via .put() in "
                    f"{qual} (line {sink.lineno})",
                    entry_steps + _witness_trace(model, witness),
                )


# -- salt-closure verification ------------------------------------------------


def _check_salt_closure(
    cone: Reachability,
    collector: _Collector,
    roots: Iterable[str] | None,
) -> None:
    # Imported lazily: the campaign package has no business loading for
    # the pure lint paths.
    from repro.campaign import salts
    from repro.campaign.executor import dispatch_roots

    covered = set(
        salts.dependency_closure(dispatch_roots() if roots is None else roots)
    )
    salted_prefixes = tuple(f"repro/{pkg}/" for pkg in SALTED_PACKAGES)
    executed = {rel for rel in cone.modules() if rel.startswith(salted_prefixes)}
    for rel in sorted(executed - covered):
        collector.emit(
            "flow-salt-coverage",
            "repro/campaign/executor.py",
            1,
            f"module {rel} hosts functions reachable from the campaign "
            "execution entries but lies outside the salt closure of "
            "every spec the executor dispatches — edits to it would not "
            "re-key affected cache entries",
        )


# -- concurrency lint pack ----------------------------------------------------


def _check_async_blocking(
    model: ProgramModel,
    summaries: Mapping[str, FunctionSummary],
    collector: _Collector,
) -> None:
    for fid, summary in sorted(summaries.items()):
        if not summary.is_async:
            continue
        rel = fid.split("::", 1)[0]
        qual = _qualname(model, fid)
        for blocking in summary.blocking_calls:
            collector.emit(
                "async-blocking",
                rel,
                blocking.lineno,
                f"blocking call {blocking.dotted}() on the event loop "
                f"inside async {qual}",
            )
        # Bounded walk through synchronous callees: the event loop is
        # equally blocked by a helper three frames down.
        frontier: List[Tuple[str, int, Tuple[Tuple[str, int], ...]]] = [
            (edge.callee, edge.lineno, ())
            for edge in model.calls_of(fid)
        ]
        visited: Set[str] = {fid}
        while frontier:
            callee, first_line, chain = frontier.pop()
            if callee in visited:
                continue
            visited.add(callee)
            callee_summary = summaries.get(callee)
            if callee_summary is None or callee_summary.is_async:
                continue  # awaited coroutines schedule, they don't block
            for blocking in callee_summary.blocking_calls:
                trace = [f"async {qual} ({_loc(model, fid)})"]
                for hop, hop_line in chain + ((callee, first_line),):
                    trace.append(
                        f"→ {_qualname(model, hop)} ({_loc(model, hop)}), "
                        f"called at line {hop_line}"
                    )
                trace.append(
                    f"blocking {blocking.dotted}() at "
                    f"src/{callee.split('::', 1)[0]}:{blocking.lineno}"
                )
                collector.emit(
                    "async-blocking",
                    rel,
                    first_line,
                    f"async {qual} reaches blocking call "
                    f"{blocking.dotted}() in {_qualname(model, callee)}",
                    trace,
                )
            if len(chain) + 1 < _ASYNC_DEPTH:
                frontier.extend(
                    (edge.callee, first_line, chain + ((callee, edge.lineno),))
                    for edge in model.calls_of(callee)
                )


def _check_fork_safety(
    model: ProgramModel,
    summaries: Mapping[str, FunctionSummary],
    worker_cone: Reachability,
    collector: _Collector,
) -> None:
    for fid in sorted(worker_cone.fids):
        summary = summaries.get(fid)
        if summary is None:
            continue
        rel = fid.split("::", 1)[0]
        for name, lineno in summary.global_writes:
            collector.emit(
                "fork-unsafe-state",
                rel,
                lineno,
                f"module-global {name!r} rebound in "
                f"{_qualname(model, fid)}, which multiprocessing workers "
                "execute — each forked worker mutates its own copy",
                _entry_trace(model, worker_cone, fid),
            )


def _check_mp_shared_sync(
    model: ProgramModel,
    worker_cone: Reachability,
    collector: _Collector,
) -> None:
    for rel in sorted(worker_cone.modules()):
        module = model.modules.get(rel)
        if module is None:
            continue
        for dotted, lineno in module_level_mp_sync(module):
            collector.emit(
                "mp-shared-sync",
                rel,
                lineno,
                f"module-level {dotted}() in a module multiprocessing "
                "workers execute — after fork each process holds an "
                "independent copy, so it synchronises nothing across "
                "workers",
            )


# -- driver -------------------------------------------------------------------


def analyze_tree(
    root: str | Path,
    *,
    roots: Iterable[str] | None = None,
    determinism_entries: Iterable[str] = DETERMINISM_ENTRIES,
    worker_entries: Iterable[str] = WORKER_ENTRIES,
) -> AnalysisReport:
    """Run every whole-program check over ``<root>/src/repro``.

    *roots* overrides the executor's salt roots (tripwire-test seam);
    the entry tuples are overridable for the same reason.  Entries
    absent from the tree are ignored — an analysis of a fixture package
    simply has an empty cone for that check.
    """
    root = Path(root)
    model = build_model(root / "src")
    summaries = build_summaries(model)
    collector = _Collector(model)

    cone = reach(model, tuple(determinism_entries))
    _check_determinism(model, summaries, cone, collector)
    if cone.fids:
        _check_salt_closure(cone, collector, roots)

    _check_async_blocking(model, summaries, collector)

    worker_cone = reach(model, tuple(worker_entries))
    _check_fork_safety(model, summaries, worker_cone, collector)
    _check_mp_shared_sync(model, worker_cone, collector)

    return collector.report
