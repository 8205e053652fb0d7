"""The whole-program model behind ``repro analyze``.

One :class:`ProgramModel` describes every module under ``src/repro`` at
once: the parsed (position-carrying) ASTs, a per-module name table, a
resolved **call graph** between known functions and methods, the
**address-taken** references that make dispatch-table indirection
(``FACTORIZATIONS[workload](size)``, ``make_policy`` → policy classes)
visible to reachability, and the full **module import graph** including
``__init__`` re-export hubs.

The model never imports the code it describes — everything is ``ast``
over source text, same contract as :mod:`repro.analysis.lint` — and it
is deliberately an *over*-approximation: an unresolved call simply adds
no edge, a reference to a known class marks every method of that class
callable (class-hierarchy-analysis lite), and nested functions and
lambdas are folded into their enclosing top-level scope.  The flow
analyses built on top (:mod:`repro.analysis.flow`) are therefore
conservative in the direction that matters for a CI gate: a *resolved*
path is really there, and reachability errs toward including code.

Model construction is memoised per module on ``(mtime_ns, size)`` so a
warm rebuild (the ``analyze:tree`` bench case, repeated CLI runs in one
process) re-parses only files that changed; :func:`clear_model_caches`
drops the memo for cold timing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.analysis.lint import ImportMap

__all__ = [
    "CallEdge",
    "ExternalCall",
    "FunctionInfo",
    "ModuleModel",
    "ProgramModel",
    "Reachability",
    "build_model",
    "clear_model_caches",
]

#: Scope id of a module's top-level code (imports, constant tables,
#: module-level lambdas) in the per-scope call/ref maps.
MODULE_SCOPE = "<module>"


@dataclass(frozen=True)
class FunctionInfo:
    """One known function or method: ``fid`` is ``<module rel>::<qualname>``."""

    fid: str
    module: str
    qualname: str  # "execute_spec" or "Dispatcher.run"
    lineno: int
    is_async: bool
    class_name: str | None = None

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass(frozen=True)
class CallEdge:
    """A resolved call site: *caller scope* invokes *callee* at *lineno*."""

    callee: str  # fid
    lineno: int


@dataclass(frozen=True)
class ExternalCall:
    """A call whose target is outside the model (stdlib, numpy, ...).

    *dotted* is the canonical dotted spelling (aliases resolved by the
    module's :class:`~repro.analysis.lint.ImportMap`); *terminal* the
    trailing attribute (``sleep`` for both ``time.sleep`` and
    ``self._clock.sleep``) so method-style blocking calls stay visible
    even when the receiver's type is unknown.
    """

    dotted: str
    terminal: str
    lineno: int


@dataclass
class ModuleModel:
    """Everything the analyses need to know about one module."""

    rel: str  # src-relative posix path ("repro/campaign/executor.py")
    tree: ast.Module
    source: str
    imports: ImportMap
    #: Local name -> absolute dotted target ("repro.dag.cholesky" or
    #: "repro.schedulers.online.make_policy"), from import statements.
    bindings: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Class name -> method qualnames defined on it.
    classes: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: scope id (fid or MODULE_SCOPE) -> resolved call edges.
    calls: Dict[str, Tuple[CallEdge, ...]] = field(default_factory=dict)
    #: scope id -> unresolved external calls.
    external_calls: Dict[str, Tuple[ExternalCall, ...]] = field(default_factory=dict)
    #: scope id -> address-taken targets ("fn:<fid>" / "cls:<rel>::<name>").
    refs: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: ``id(ast.Call node)`` -> resolved callee fid.  The trees in this
    #: model stay alive for its lifetime, so node ids are stable — the
    #: taint pass walks the same trees and reuses these resolutions.
    call_targets: Dict[int, str] = field(default_factory=dict)
    #: ``id(ast.Call node)`` -> unresolved external call.
    external_targets: Dict[int, ExternalCall] = field(default_factory=dict)


@dataclass
class ProgramModel:
    """The whole-program view: modules, functions, resolved call graph."""

    src_root: Path
    modules: Dict[str, ModuleModel]
    functions: Dict[str, FunctionInfo]

    def module_of(self, fid: str) -> str:
        return fid.split("::", 1)[0]

    def function(self, fid: str) -> FunctionInfo | None:
        return self.functions.get(fid)

    def calls_of(self, fid: str) -> Tuple[CallEdge, ...]:
        module = self.modules.get(self.module_of(fid))
        if module is None:
            return ()
        scope = fid.split("::", 1)[1] if "::" in fid else MODULE_SCOPE
        return module.calls.get(scope, ())

    def external_calls_of(self, fid: str) -> Tuple[ExternalCall, ...]:
        module = self.modules.get(self.module_of(fid))
        if module is None:
            return ()
        scope = fid.split("::", 1)[1] if "::" in fid else MODULE_SCOPE
        return module.external_calls.get(scope, ())


# -- module discovery and parsing (memoised) ----------------------------------

_module_memo: Dict[str, Tuple[Tuple[int, int], "_ParsedModule"]] = {}


def clear_model_caches() -> None:
    """Drop the per-module parse/extraction memo (cold-timing seam)."""
    _module_memo.clear()


@dataclass
class _ParsedModule:
    """Stage-1 output: everything derivable from one file in isolation."""

    rel: str
    tree: ast.Module
    source: str
    imports: ImportMap
    bindings: Dict[str, str]
    functions: Dict[str, FunctionInfo]
    classes: Dict[str, Tuple[str, ...]]


def _iter_module_files(src_root: Path) -> Iterable[Path]:
    base = src_root / "repro"
    for path in sorted(base.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        yield path


def _dotted_of(rel: str) -> str:
    """Module dotted name of a src-relative path."""
    trimmed = rel[: -len(".py")]
    if trimmed.endswith("/__init__"):
        trimmed = trimmed[: -len("/__init__")]
    return trimmed.replace("/", ".")


def _collect_imports(tree: ast.Module, rel: str) -> Dict[str, str]:
    """Local bindings of one module's imports.

    Bindings map local names to absolute dotted targets.  Relative
    imports resolve against *rel*'s package, matching runtime semantics.
    """
    bindings: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    bindings[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                package_parts = rel.split("/")[:-1]
                anchor = package_parts[: len(package_parts) - (node.level - 1)]
                prefix = ".".join(anchor)
                dotted = f"{prefix}.{node.module}" if node.module else prefix
            else:
                dotted = node.module or ""
            if not dotted:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bindings[alias.asname or alias.name] = f"{dotted}.{alias.name}"
    return bindings


def _collect_defs(
    tree: ast.Module, rel: str
) -> Tuple[Dict[str, FunctionInfo], Dict[str, Tuple[str, ...]]]:
    functions: Dict[str, FunctionInfo] = {}
    classes: Dict[str, Tuple[str, ...]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = FunctionInfo(
                fid=f"{rel}::{node.name}",
                module=rel,
                qualname=node.name,
                lineno=node.lineno,
                is_async=isinstance(node, ast.AsyncFunctionDef),
            )
        elif isinstance(node, ast.ClassDef):
            methods: List[str] = []
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{node.name}.{item.name}"
                    methods.append(qualname)
                    functions[qualname] = FunctionInfo(
                        fid=f"{rel}::{qualname}",
                        module=rel,
                        qualname=qualname,
                        lineno=item.lineno,
                        is_async=isinstance(item, ast.AsyncFunctionDef),
                        class_name=node.name,
                    )
            classes[node.name] = tuple(methods)
    return functions, classes


def _parse_module(path: Path, rel: str) -> _ParsedModule | None:
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=rel)
    except (OSError, SyntaxError):
        return None
    bindings = _collect_imports(tree, rel)
    functions, classes = _collect_defs(tree, rel)
    return _ParsedModule(
        rel=rel,
        tree=tree,
        source=source,
        imports=ImportMap.from_tree(tree),
        bindings=bindings,
        functions=functions,
        classes=classes,
    )


# -- cross-module name resolution ---------------------------------------------


class _Resolver:
    """Resolves dotted names to model entities, chasing re-exports."""

    #: Re-export chains longer than this are abandoned (cycle guard).
    MAX_DEPTH = 8

    def __init__(self, parsed: Mapping[str, _ParsedModule]):
        self._parsed = parsed
        self._by_dotted: Dict[str, str] = {}
        for rel in parsed:
            self._by_dotted[_dotted_of(rel)] = rel
        # Packages with an __init__ shadow the bare dotted name; a
        # plain directory without __init__ still anchors submodules.

    def resolve(self, dotted: str, depth: int = 0) -> str | None:
        """Entity of *dotted*: ``"mod:<rel>"``, ``"fn:<fid>"``,
        ``"cls:<rel>::<name>"`` or ``None`` when outside the model."""
        if depth > self.MAX_DEPTH:
            return None
        rel = self._by_dotted.get(dotted)
        if rel is not None:
            return f"mod:{rel}"
        if "." not in dotted:
            return None
        head, attr = dotted.rsplit(".", 1)
        owner = self._by_dotted.get(head)
        if owner is None:
            # The head itself may be a re-exported class: Class.method.
            resolved_head = self.resolve(head, depth + 1)
            if resolved_head is not None and resolved_head.startswith("cls:"):
                rel_cls = resolved_head[len("cls:"):]
                owner_rel, cls_name = rel_cls.split("::", 1)
                parsed = self._parsed[owner_rel]
                qual = f"{cls_name}.{attr}"
                if qual in parsed.functions:
                    return f"fn:{parsed.functions[qual].fid}"
            return None
        parsed = self._parsed[owner]
        if attr in parsed.functions:
            return f"fn:{parsed.functions[attr].fid}"
        if attr in parsed.classes:
            return f"cls:{owner}::{attr}"
        bound = parsed.bindings.get(attr)
        if bound is not None:
            return self.resolve(bound, depth + 1)
        return None


# -- per-scope call/ref extraction --------------------------------------------


class _ScopeVisitor(ast.NodeVisitor):
    """Collects calls and address-taken references for one scope unit.

    Nested functions and lambdas are folded into the enclosing scope —
    defining them is not calling them, but attributing their bodies to
    the parent keeps dispatch-table closures visible without modelling
    closure invocation.
    """

    def __init__(
        self,
        parsed: _ParsedModule,
        resolver: _Resolver,
        class_name: str | None,
    ):
        self._parsed = parsed
        self._resolver = resolver
        self._class_name = class_name
        self.calls: List[CallEdge] = []
        self.external: List[ExternalCall] = []
        self.refs: List[str] = []
        self.call_targets: Dict[int, str] = {}
        self.external_targets: Dict[int, ExternalCall] = {}
        self._call_funcs: Set[int] = set()

    # -- resolution helpers ---------------------------------------------------

    def _dotted(self, expr: ast.expr) -> str | None:
        """Absolute dotted chain of *expr* through the local bindings."""
        parts: List[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = self._parsed.bindings.get(node.id, node.id)
        parts.append(head)
        return ".".join(reversed(parts))

    def _resolve_expr(self, expr: ast.expr) -> str | None:
        # self.method inside a class resolves to the enclosing class.
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id in ("self", "cls")
            and self._class_name is not None
        ):
            qual = f"{self._class_name}.{expr.attr}"
            info = self._parsed.functions.get(qual)
            if info is not None:
                return f"fn:{info.fid}"
            return None
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in self._parsed.functions:
                return f"fn:{self._parsed.functions[name].fid}"
            if name in self._parsed.classes:
                return f"cls:{self._parsed.rel}::{name}"
            bound = self._parsed.bindings.get(name)
            if bound is not None:
                return self._resolver.resolve(bound)
            return None
        dotted = self._dotted(expr)
        if dotted is None:
            return None
        return self._resolver.resolve(dotted)

    def _record_call_target(self, entity: str, lineno: int) -> None:
        if entity.startswith("fn:"):
            self.calls.append(CallEdge(callee=entity[len("fn:"):], lineno=lineno))
        elif entity.startswith("cls:"):
            # Instantiation: the class's __init__ runs, and (CHA-lite)
            # its methods become callable on the instance.
            self.refs.append(entity)

    # -- visitor --------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._call_funcs.add(id(node.func))
        entity = self._resolve_expr(node.func)
        if entity is not None:
            if entity.startswith("fn:"):
                self.call_targets[id(node)] = entity[len("fn:"):]
            self._record_call_target(entity, node.lineno)
        else:
            dotted = self._parsed.imports.dotted(node.func)
            terminal = (
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else node.func.id if isinstance(node.func, ast.Name) else ""
            )
            if dotted or terminal:
                call = ExternalCall(
                    dotted=dotted or terminal,
                    terminal=terminal,
                    lineno=node.lineno,
                )
                self.external.append(call)
                self.external_targets[id(node)] = call
        self.generic_visit(node)

    def _visit_reference(self, node: ast.expr) -> bool:
        """Record *node* as address-taken; True when it resolved."""
        if id(node) in self._call_funcs:
            return False
        entity = self._resolve_expr(node)
        if entity is not None and (
            entity.startswith("fn:") or entity.startswith("cls:")
        ):
            self.refs.append(entity)
            return True
        return False

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._visit_reference(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load) and self._visit_reference(node):
            return  # resolved whole chain; don't re-resolve the tail
        self.generic_visit(node)


def _scope_bodies(
    tree: ast.Module,
) -> Iterable[Tuple[str, str | None, Sequence[ast.stmt]]]:
    """Yield ``(scope id, class name, statements)`` per scope unit."""
    module_level: List[ast.stmt] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, None, node.body
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", node.name, item.body
                else:
                    module_level.append(item)
        else:
            module_level.append(node)
    yield MODULE_SCOPE, None, module_level


def _extract_scopes(
    parsed: _ParsedModule, resolver: _Resolver
) -> Tuple[
    Dict[str, Tuple[CallEdge, ...]],
    Dict[str, Tuple[ExternalCall, ...]],
    Dict[str, Tuple[str, ...]],
    Dict[int, str],
    Dict[int, ExternalCall],
]:
    calls: Dict[str, Tuple[CallEdge, ...]] = {}
    external: Dict[str, Tuple[ExternalCall, ...]] = {}
    refs: Dict[str, Tuple[str, ...]] = {}
    call_targets: Dict[int, str] = {}
    external_targets: Dict[int, ExternalCall] = {}
    for scope, class_name, body in _scope_bodies(parsed.tree):
        visitor = _ScopeVisitor(parsed, resolver, class_name)
        for stmt in body:
            visitor.visit(stmt)
        calls[scope] = tuple(visitor.calls)
        external[scope] = tuple(visitor.external)
        refs[scope] = tuple(dict.fromkeys(visitor.refs))
        call_targets.update(visitor.call_targets)
        external_targets.update(visitor.external_targets)
    return calls, external, refs, call_targets, external_targets


# -- model assembly -----------------------------------------------------------


def build_model(src_root: str | Path) -> ProgramModel:
    """Parse every module under ``<src_root>/repro`` into one model.

    Per-module stage-1 parses are memoised on ``(mtime_ns, size)``;
    cross-module resolution re-runs every call (it is cheap relative to
    parsing, and correctness depends on the full module set).
    """
    src_root = Path(src_root)
    parsed: Dict[str, _ParsedModule] = {}
    for path in _iter_module_files(src_root):
        rel = path.relative_to(src_root).as_posix()
        try:
            stat = path.stat()
            key = (stat.st_mtime_ns, stat.st_size)
        except OSError:
            continue
        memo = _module_memo.get(str(path))
        if memo is not None and memo[0] == key:
            parsed[rel] = memo[1]
            continue
        module = _parse_module(path, rel)
        if module is None:
            continue
        _module_memo[str(path)] = (key, module)
        parsed[rel] = module

    resolver = _Resolver(parsed)
    modules: Dict[str, ModuleModel] = {}
    functions: Dict[str, FunctionInfo] = {}
    for rel, stage1 in parsed.items():
        calls, external, refs, call_targets, external_targets = _extract_scopes(
            stage1, resolver
        )
        modules[rel] = ModuleModel(
            rel=rel,
            tree=stage1.tree,
            source=stage1.source,
            imports=stage1.imports,
            bindings=stage1.bindings,
            functions=stage1.functions,
            classes=stage1.classes,
            calls=calls,
            external_calls=external,
            refs=refs,
            call_targets=call_targets,
            external_targets=external_targets,
        )
        for info in stage1.functions.values():
            functions[info.fid] = info
    return ProgramModel(src_root=src_root, modules=modules, functions=functions)


# -- reachability -------------------------------------------------------------


@dataclass
class Reachability:
    """Functions reachable from a set of entry fids, with predecessors.

    ``preds[fid]`` is the ``(caller fid, call lineno)`` that first
    discovered *fid* — enough to rebuild one witness call chain back to
    an entry for human-readable traces.
    """

    entries: Tuple[str, ...]
    fids: FrozenSet[str]
    preds: Dict[str, Tuple[str, int]]

    def modules(self) -> FrozenSet[str]:
        return frozenset(fid.split("::", 1)[0] for fid in self.fids)

    def chain_to(self, fid: str) -> List[Tuple[str, int]]:
        """Witness call chain entry -> ... -> *fid* as (caller, lineno)."""
        chain: List[Tuple[str, int]] = []
        cursor = fid
        seen: Set[str] = set()
        while cursor in self.preds and cursor not in seen:
            seen.add(cursor)
            caller, lineno = self.preds[cursor]
            chain.append((caller, lineno))
            cursor = caller
        chain.reverse()
        return chain


def reach(
    model: ProgramModel,
    entries: Sequence[str],
    *,
    follow_module_level: bool = True,
) -> Reachability:
    """Functions reachable from *entries* over calls + taken references.

    A reference to a class makes every method of that class reachable
    (CHA-lite: the policy objects handed to the simulator are exactly
    this shape).  When *follow_module_level* is set, the first time a
    module contributes a reachable function its module-level scope is
    processed too — constant dispatch tables (``FACTORIZATIONS``)
    reference their targets there.
    """
    fids: Set[str] = set()
    preds: Dict[str, Tuple[str, int]] = {}
    active_modules: Set[str] = set()
    stack: List[str] = [fid for fid in entries if fid in model.functions]

    def enqueue(callee: str, caller: str, lineno: int) -> None:
        if callee in model.functions and callee not in fids:
            if callee not in preds and caller:
                preds[callee] = (caller, lineno)
            stack.append(callee)

    def expand_entity(entity: str, caller: str, lineno: int) -> None:
        if entity.startswith("fn:"):
            enqueue(entity[len("fn:"):], caller, lineno)
        elif entity.startswith("cls:"):
            rel_cls = entity[len("cls:"):]
            owner, cls_name = rel_cls.split("::", 1)
            module = model.modules.get(owner)
            if module is None:
                return
            for qual in module.classes.get(cls_name, ()):
                enqueue(f"{owner}::{qual}", caller, lineno)

    def process_scope(rel: str, scope: str, as_fid: str) -> None:
        module = model.modules[rel]
        for edge in module.calls.get(scope, ()):
            enqueue(edge.callee, as_fid, edge.lineno)
        for entity in module.refs.get(scope, ()):
            expand_entity(entity, as_fid, 0)

    while stack:
        fid = stack.pop()
        if fid in fids:
            continue
        fids.add(fid)
        rel, scope = fid.split("::", 1)
        if rel not in model.modules:
            continue
        process_scope(rel, scope, fid)
        if follow_module_level and rel not in active_modules:
            active_modules.add(rel)
            process_scope(rel, MODULE_SCOPE, fid)
    return Reachability(entries=tuple(entries), fids=frozenset(fids), preds=preds)
