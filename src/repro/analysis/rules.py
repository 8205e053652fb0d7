"""The shipped determinism ruleset.

Each rule targets a failure mode this codebase has actually had to
defend against (see docs/architecture.md, "Static analysis & cache
integrity"): global RNG state escaping the ``derive_seeds`` discipline,
wall-clock reads leaking into cached results, unordered iteration
feeding scheduler decisions, raw float equality on task times, and
mutable default arguments.

Rule ids are stable; suppress per file with::

    # repro-lint: disable=<rule-id> -- <reason>
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.analysis.lint import (
    LintedFile,
    Rule,
    Violation,
    register_rule,
    register_rule_ids,
)

__all__ = [
    "UnseededRandomRule",
    "WallClockRule",
    "UnorderedIterationRule",
    "FloatEqualityRule",
    "MutableDefaultRule",
    "FlowRuleInfo",
    "FLOW_RULES",
]

#: Module-level functions of :mod:`random` that mutate/read the hidden
#: global Mersenne-Twister state.  ``random.Random(seed)`` instances
#: and ``random.SystemRandom`` are fine — the rule targets the global.
_GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)

#: Legacy ``numpy.random`` module-level API (global ``RandomState``).
#: ``numpy.random.default_rng``/``Generator``/``SeedSequence`` are the
#: sanctioned spellings and are not flagged.
_GLOBAL_NP_RANDOM_FUNCS = frozenset(
    {
        "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
        "exponential", "f", "gamma", "geometric", "get_state", "gumbel",
        "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
        "multinomial", "multivariate_normal", "negative_binomial",
        "noncentral_chisquare", "noncentral_f", "normal", "pareto",
        "permutation", "poisson", "power", "rand", "randint", "randn",
        "random", "random_integers", "random_sample", "ranf", "rayleigh",
        "sample", "seed", "set_state", "shuffle", "standard_cauchy",
        "standard_exponential", "standard_gamma", "standard_normal",
        "standard_t", "triangular", "uniform", "vonmises", "wald",
        "weibull", "zipf",
    }
)

#: Wall-clock reads.  ``time.perf_counter`` and friends are fine in the
#: bench/telemetry layers but have no business inside result-producing
#: modules: any value they influence is irreproducible by construction.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns", "time.thread_time", "time.thread_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

#: Packages whose semantics feed ResultCache/GraphStore keys (the
#: cache-salt set; kept in sync with
#: :data:`repro.analysis.fingerprint.SALTED_PACKAGES`) plus the service
#: layer, which hands clients cached results and must never let wall
#: clocks leak into them — its telemetry-only reads carry per-file
#: suppressions with reasons.
_RESULT_PRODUCING_PREFIXES = (
    "src/repro/core/",
    "src/repro/simulator/",
    "src/repro/schedulers/",
    "src/repro/dag/",
    "src/repro/bounds/",
    "src/repro/timing/",
    "src/repro/service/",
)

#: Files where wall-clock reads are the whole point.
_WALL_CLOCK_ALLOWED = ("bench.py", "telemetry.py")

#: Attribute/name spellings that denote simulated-time quantities.
_TIME_LIKE_EXACT = frozenset(
    {"start", "end", "makespan", "finish", "cpu_time", "gpu_time", "eft", "est"}
)
_TIME_LIKE_RE = re.compile(r"(^|_)(time|start|end|makespan|finish|eft|est)s?$")


# -- whole-program (flow) rule catalog ----------------------------------------
#
# The interprocedural checks in :mod:`repro.analysis.flow` are not
# per-statement :class:`Rule` subclasses — they need the whole-program
# model — but they share the finding format and the per-file
# suppression contract.  Their catalog lives here as data so ``repro
# lint --list-rules`` can show one unified rule set and the lint engine
# accepts their ids in ``disable=`` comments.


@dataclass(frozen=True)
class FlowRuleInfo:
    """Catalog entry of one whole-program rule (see ``repro analyze``)."""

    rule_id: str
    severity: str
    description: str
    fix_hint: str


FLOW_RULES: Tuple[FlowRuleInfo, ...] = (
    FlowRuleInfo(
        rule_id="flow-nondeterminism",
        severity="error",
        description=(
            "a nondeterminism source (RNG/wall-clock/id()/os.environ/"
            "set order) flows through calls and containers into a "
            "cache-keyed result (reachable from execute_spec)"
        ),
        fix_hint=(
            "derive the value from the spec/seed instead, keep it out of "
            "returned results, or suppress with a reason explaining why the "
            "value never reaches a cached payload comparison"
        ),
    ),
    FlowRuleInfo(
        rule_id="flow-salt-coverage",
        severity="error",
        description=(
            "a salted module hosts functions reachable from the campaign "
            "execution entries but lies outside every salt closure the "
            "executor derives from its dispatch (campaign/executor.py "
            "spec_roots)"
        ),
        fix_hint=(
            "call the code through a callable spec_roots reads (an "
            "executor dispatch table or entry), or import its module from "
            "a module that defines one"
        ),
    ),
    FlowRuleInfo(
        rule_id="async-blocking",
        severity="error",
        description=(
            "blocking call (time.sleep, subprocess, synchronous file I/O) "
            "executed on the event loop inside or beneath an async def"
        ),
        fix_hint=(
            "await an async equivalent or move the call into "
            "run_in_executor; suppress with a reason if the call is "
            "provably bounded and loop-safe"
        ),
    ),
    FlowRuleInfo(
        rule_id="fork-unsafe-state",
        severity="error",
        description=(
            "module-global state rebound by code reachable from a "
            "multiprocessing worker entry (each forked worker mutates its "
            "own copy — the processes silently diverge)"
        ),
        fix_hint=(
            "pass the state through worker arguments or derive it "
            "per-process; suppress with a reason if per-process state is "
            "the design"
        ),
    ),
    FlowRuleInfo(
        rule_id="mp-shared-sync",
        severity="error",
        description=(
            "thread-synchronisation primitive at module level of a module "
            "reachable from multiprocessing workers (after fork it is "
            "per-process, not shared)"
        ),
        fix_hint=(
            "use multiprocessing primitives created by the parent and "
            "passed to workers explicitly"
        ),
    ),
)

register_rule_ids(info.rule_id for info in FLOW_RULES)


def _terminal_name(expr: ast.expr) -> str | None:
    """The trailing identifier of a name/attribute chain, else ``None``."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


@register_rule
class UnseededRandomRule(Rule):
    """Global RNG state breaks the ``derive_seeds`` reproducibility chain."""

    rule_id = "unseeded-random"
    severity = "error"
    description = (
        "call into the global random/numpy.random state (unseeded, "
        "process-wide, unreproducible under parallel campaign execution)"
    )
    fix_hint = (
        "use an explicit random.Random(seed) / numpy.random.default_rng(seed) "
        "instance; campaign code derives seeds via derive_seeds()"
    )

    def check(self, file: LintedFile) -> Iterator[Violation]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = file.imports.dotted(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if (
                len(parts) == 2
                and parts[0] == "random"
                and parts[1] in _GLOBAL_RANDOM_FUNCS
            ):
                yield self.violation(
                    file, node, f"global-state RNG call {dotted}()"
                )
            elif (
                len(parts) == 3
                and parts[0] == "numpy"
                and parts[1] == "random"
                and parts[2] in _GLOBAL_NP_RANDOM_FUNCS
            ):
                yield self.violation(
                    file, node, f"legacy global numpy RNG call {dotted}()"
                )


@register_rule
class WallClockRule(Rule):
    """Wall-clock reads inside result-producing (cache-salted) modules."""

    rule_id = "wall-clock"
    severity = "error"
    description = (
        "wall-clock read inside a result-producing module (values derived "
        "from it can never be reproduced bit-for-bit)"
    )
    fix_hint = (
        "move timing to bench.py/telemetry.py, or suppress with a reason if "
        "the value is instrumentation that provably never reaches results"
    )

    def applies_to(self, rel: str) -> bool:
        if rel.rsplit("/", 1)[-1] in _WALL_CLOCK_ALLOWED:
            return False
        return rel.startswith(_RESULT_PRODUCING_PREFIXES)

    def check(self, file: LintedFile) -> Iterator[Violation]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = file.imports.dotted(node.func)
            if dotted in _WALL_CLOCK_CALLS:
                yield self.violation(file, node, f"wall-clock call {dotted}()")


@register_rule
class UnorderedIterationRule(Rule):
    """Set/dict-view iteration feeding scheduler decisions.

    ``set`` iteration order depends on insertion history *and* the
    per-process string-hash seed; ``dict.values()`` is insertion-ordered
    but couples decision order to bookkeeping order, which the
    differential tests pin only by accident.  Inside ``schedulers/``,
    ``simulator/`` and ``core/``, either sort with an explicit total key
    or suppress with an argument for why order cannot matter.
    """

    rule_id = "unordered-iteration"
    severity = "error"
    description = (
        "iteration over a set or dict view in scheduler/simulator decision "
        "code (order is not an explicit total key)"
    )
    fix_hint = (
        "iterate sorted(..., key=<total key>) or justify via suppression "
        "why the iteration order cannot affect any decision"
    )

    _SCOPES = ("src/repro/schedulers/", "src/repro/simulator/", "src/repro/core/")

    def applies_to(self, rel: str) -> bool:
        return rel.startswith(self._SCOPES)

    def _flag_iter(self, expr: ast.expr) -> str | None:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "set literal/comprehension"
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"{func.id}(...)"
            if isinstance(func, ast.Attribute) and func.attr == "values":
                return ".values() view"
        return None

    def check(self, file: LintedFile) -> Iterator[Violation]:
        for node in ast.walk(file.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                kind = self._flag_iter(it)
                if kind is not None:
                    yield self.violation(
                        file, it, f"iteration over {kind} in decision code"
                    )


@register_rule
class FloatEqualityRule(Rule):
    """Raw ``==``/``!=`` on simulated-time quantities.

    Simulated times are sums of float durations; exact equality is a
    latent platform/order dependence.  Compare through the ``TIME_EPS``
    helpers (``abs(a - b) <= TIME_EPS`` / the batching idiom) instead.
    """

    rule_id = "float-equality"
    severity = "warning"
    description = (
        "raw ==/!= comparison on a time-like quantity (start/end/makespan/"
        "*_time); exact float equality is order- and platform-fragile"
    )
    fix_hint = "compare via TIME_EPS (repro.core.schedule) or suppress with a reason"

    def applies_to(self, rel: str) -> bool:
        return rel.startswith("src/repro/")

    @staticmethod
    def _time_like(expr: ast.expr) -> bool:
        name = _terminal_name(expr)
        if name is None:
            return False
        lowered = name.lower()
        return lowered in _TIME_LIKE_EXACT or bool(_TIME_LIKE_RE.search(lowered))

    def check(self, file: LintedFile) -> Iterator[Violation]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(self._time_like(operand) for operand in operands):
                names = sorted(
                    {n for n in map(_terminal_name, operands) if n is not None}
                )
                yield self.violation(
                    file,
                    node,
                    "exact float comparison on time-like value(s) "
                    + ", ".join(names),
                )


@register_rule
class MutableDefaultRule(Rule):
    """Mutable default arguments (shared across calls, order-dependent)."""

    rule_id = "mutable-default"
    severity = "error"
    description = "mutable default argument (list/dict/set evaluated once at def time)"
    fix_hint = "default to None (or a frozen value) and materialise inside the body"

    _MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter"}
    )

    def _is_mutable(self, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            name = _terminal_name(expr.func)
            return name in self._MUTABLE_CALLS
        return False

    def check(self, file: LintedFile) -> Iterator[Violation]:
        for node in ast.walk(file.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            defaults = list(args.defaults) + [
                d for d in args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    name = getattr(node, "name", "<lambda>")
                    yield self.violation(
                        file, default, f"mutable default argument in {name}()"
                    )
