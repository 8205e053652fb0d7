"""Per-module cache salts: selective invalidation from AST fingerprints.

A single global salt would make any semantic edit to any salted module
invalidate the *entire* campaign cache — every scheduler tweak would
recompute the world.  This module makes invalidation proportional to
the diff instead:

* every salted module (the packages in
  :data:`repro.analysis.fingerprint.SALTED_PACKAGES`) gets a
  normalized-AST fingerprint (:func:`live_fingerprints`) — the same
  docstring-stripped, position-free hash the cache gate commits to
  ``analysis/fingerprints.json``;
* a static import graph over those modules (:func:`import_graph`,
  from the same single parse per module) turns a spec's *root*
  modules into the **dependency closure** of everything its execution
  can reach (:func:`dependency_closure`);
* the roots come from the executor's own dispatch
  (:func:`repro.campaign.executor.spec_roots` — the modules defining
  the workload generator, scheduler or policy, bound and simulator
  entries it calls for that spec), so no table here restates it;
* the spec's cache salt (:func:`salt_for_spec`) digests the closure's
  ``(module, fingerprint)`` pairs together with the base
  ``CODE_VERSION`` — so editing ``schedulers/online/heft.py`` re-keys
  only the specs whose closure contains it, and every other entry
  keeps hitting.

Edges *out of* ``__init__.py`` modules are dropped from the import
graph (re-export hubs; see
:func:`repro.analysis.fingerprint.scan_salted_modules`).  An
``__init__`` that carries real logic (``make_policy`` dispatch) is a
root whenever the executor calls into it, so its own fingerprint is in
the digest without fanning out.

Unknown workloads or algorithms fall back to the closure over *all*
salted modules — maximally conservative, never wrong.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Dict, Iterable, Mapping, Tuple

from repro.analysis.fingerprint import scan_salted_modules
from repro.campaign.spec import InstanceSpec
from repro.io import canonical_dumps

__all__ = [
    "closure_salt",
    "dependency_closure",
    "import_graph",
    "live_fingerprints",
    "reset_salt_caches",
    "salt_for_spec",
    "set_fingerprint_override",
    "workload_salt",
]

# repro-lint: disable=fork-unsafe-state -- fingerprint/graph/closure memos are per-process caches
# Every process (parent or forked worker) derives bit-identical values
# from the same committed tree, so divergence between copies is
# impossible; the memos exist only to amortise the AST walk.
_live: Dict[str, str] | None = None
_override: Dict[str, str] | None = None
_graph: Dict[str, Tuple[str, ...]] | None = None
_closure_memo: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
_salt_memo: Dict[Tuple[Tuple[str, ...], str], str] = {}
_spec_roots_memo: Dict[InstanceSpec, Tuple[str, ...]] = {}


def _src_root() -> Path:
    """The ``src/`` directory the live ``repro`` package is imported from."""
    import repro

    return Path(repro.__file__).resolve().parent.parent


def reset_salt_caches() -> None:
    """Drop every memo (fingerprints, graph, closures, salts).

    Test seam: call after monkeypatching fingerprints (or editing
    modules on disk) so salts are re-derived from the new state.
    """
    global _live, _graph
    _live = None
    _graph = None
    _closure_memo.clear()
    _salt_memo.clear()
    _spec_roots_memo.clear()


def set_fingerprint_override(overrides: Mapping[str, str] | None) -> None:
    """Overlay *overrides* onto the live fingerprint table (tests only).

    Simulates a semantic edit of the named modules without touching the
    working tree; ``None`` removes the overlay.  Clears all memos.
    """
    global _override
    _override = None if overrides is None else dict(overrides)
    reset_salt_caches()


def _scan() -> Tuple[Dict[str, str], Dict[str, Tuple[str, ...]]]:
    """The memoised single-parse scan of the live tree (plus override)."""
    global _live, _graph
    if _live is None or _graph is None:
        fingerprints, graph = scan_salted_modules(_src_root())
        if _override:
            fingerprints.update(_override)
        _live, _graph = fingerprints, graph
    return _live, _graph


def live_fingerprints() -> Dict[str, str]:
    """Normalized-AST fingerprints of every salted module, as imported.

    Computed once per process from the live source tree (plus any test
    override) and memoised; :func:`reset_salt_caches` recomputes.
    """
    return _scan()[0]


def import_graph() -> Dict[str, Tuple[str, ...]]:
    """Static import edges between salted modules (memoised).

    ``graph[rel]`` lists the salted modules *rel* imports anywhere in
    its body; ``__init__.py`` modules have no outgoing edges.
    """
    return _scan()[1]


def dependency_closure(roots: Iterable[str]) -> Tuple[str, ...]:
    """The sorted transitive import closure of *roots* (salted modules).

    Roots not present in the fingerprint table are kept in the result
    (prefixed into the salt digest as absent) so a missing module still
    perturbs the salt rather than silently vanishing.
    """
    key = tuple(sorted(set(roots)))
    cached = _closure_memo.get(key)
    if cached is not None:
        return cached
    graph = import_graph()
    seen: set[str] = set()
    stack = list(key)
    while stack:
        rel = stack.pop()
        if rel in seen:
            continue
        seen.add(rel)
        stack.extend(graph.get(rel, ()))
    closure = tuple(sorted(seen))
    _closure_memo[key] = closure
    return closure


# -- spec -> roots -> salt ----------------------------------------------------


def _spec_roots(spec: InstanceSpec) -> Tuple[str, ...]:
    """The executor's roots for *spec* (memoised), or every salted module."""
    cached = _spec_roots_memo.get(spec)
    if cached is None:
        # Imported here: the executor imports the cache, which imports us.
        from repro.campaign.executor import spec_roots

        cached = spec_roots(spec) or tuple(sorted(live_fingerprints()))
        _spec_roots_memo[spec] = cached
    return cached


def _closure_digest(roots: Tuple[str, ...]) -> str:
    table = live_fingerprints()
    closure = dependency_closure(roots)
    material = canonical_dumps(
        {rel: table.get(rel, "!absent") for rel in closure}
    )
    return hashlib.sha256(material.encode("ascii")).hexdigest()[:16]


def closure_salt(roots: Iterable[str], *, base: str) -> str:
    """The cache salt for the dependency closure of *roots* over *base*.

    The format ``<base>+m<digest16>`` keeps the base version visible in
    cache payloads while the digest carries the per-module state.
    """
    key = (tuple(sorted(set(roots))), base)
    cached = _salt_memo.get(key)
    if cached is None:
        cached = f"{base}+m{_closure_digest(key[0])}"
        _salt_memo[key] = cached
    return cached


def salt_for_spec(spec: InstanceSpec, *, base: str) -> str:
    """The selective cache salt of *spec*: base x closure fingerprints."""
    return closure_salt(_spec_roots(spec), base=base)


def workload_salt(workload: str, *, base: str) -> str:
    """The selective salt of one workload's *generator* closure.

    The :class:`~repro.campaign.graph_store.GraphStore` keys compiled
    graphs with this: an edited generator must re-key its graphs even
    when ``CODE_VERSION`` stands still, or selective result recomputes
    would rebuild from a stale graph.
    """
    from repro.campaign.executor import workload_root

    root = workload_root(workload)
    roots = (root,) if root is not None else tuple(sorted(live_fingerprints()))
    return closure_salt(roots, base=base)
