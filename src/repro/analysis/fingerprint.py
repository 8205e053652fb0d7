"""Cache-salt fingerprint gate: normalized-AST hashes of salted modules.

The campaign :class:`~repro.campaign.cache.ResultCache` and
:class:`~repro.campaign.graph_store.GraphStore` key every entry with a
per-spec closure salt (:mod:`repro.campaign.salts`): the base
:data:`~repro.campaign.spec.CODE_VERSION` digested together with the
fingerprints of the modules that spec's execution can reach.  This
module supplies those fingerprints and keeps the committed record of
them honest:

* :func:`normalized_fingerprint` hashes one module's AST with
  docstrings dropped and line/column attributes excluded — comment
  edits, reformatting, docstring rewrites and moved code keep the same
  fingerprint; any change visible to the interpreter changes it;
* :func:`scan_salted_modules` parses every module under the salted
  packages (:data:`SALTED_PACKAGES`) once and returns both its
  fingerprint and its salted import edges — the closure salts and the
  gate share this one walker (:func:`compute_fingerprints` is its
  fingerprint half);
* the committed manifest ``analysis/fingerprints.json`` records the
  fingerprints the tree currently ships;
* :func:`check_gate` fails when fingerprints drift without the
  manifest being regenerated, when ``CODE_VERSION`` moved but the
  manifest was not re-minted, when modules appeared/disappeared
  unrecorded, or when a :data:`SALTED_PACKAGES` entry has no modules
  at all (a renamed package that nothing would salt).

A semantic edit re-keys exactly the affected cache entries on its own —
no ``CODE_VERSION`` bump required; the gate's job is bookkeeping: the
committed manifest must always match the tree (drift fails CI until
regenerated, so reviewers see which modules' entries were re-keyed).

Regenerate the manifest with ``repro lint --write-fingerprints``; bump
``CODE_VERSION`` only to invalidate the whole cache deliberately (e.g.
a change below the fingerprinted surface, like a numpy pin).

Note the gate is deliberately conservative: type-annotation changes are
part of the AST (annotations can carry runtime semantics, e.g. in
dataclasses), so a pure-annotation edit still requires regeneration —
with a bump only if it changes behaviour.
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path
from typing import AbstractSet, Dict, Iterator, List, Set, Tuple

from repro.io import canonical_dumps

__all__ = [
    "SALTED_PACKAGES",
    "MANIFEST_PATH",
    "normalized_fingerprint",
    "scan_salted_modules",
    "compute_fingerprints",
    "load_manifest",
    "write_manifest",
    "check_gate",
]

#: Packages (under ``src/repro``) whose semantics feed cache keys.
SALTED_PACKAGES = ("bounds", "core", "dag", "schedulers", "simulator", "timing")

#: Repo-relative location of the committed manifest.
MANIFEST_PATH = "analysis/fingerprints.json"

#: Manifest layout version.
MANIFEST_FORMAT = 1


def _strip_docstrings(tree: ast.Module) -> ast.Module:
    """Drop the docstring expression of the module and every def/class."""
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            del body[0]
    return tree


def _tree_fingerprint(tree: ast.Module) -> str:
    dump = ast.dump(
        _strip_docstrings(tree), annotate_fields=True, include_attributes=False
    )
    return hashlib.sha256(dump.encode("utf-8")).hexdigest()


def normalized_fingerprint(source: str) -> str:
    """SHA-256 of the docstring-stripped, position-free AST of *source*.

    Two sources get the same fingerprint iff they compile to the same
    abstract syntax once docstrings are removed — whitespace, comments,
    line numbers and string quoting style never matter.
    """
    return _tree_fingerprint(ast.parse(source))


def _resolve_import(
    node: ast.Import | ast.ImportFrom, rel: str, modules: AbstractSet[str]
) -> Iterator[str]:
    """Salted-module targets of one import statement in module *rel*."""

    def candidates(dotted: str) -> Iterator[str]:
        base = dotted.replace(".", "/")
        for target in (f"{base}.py", f"{base}/__init__.py"):
            if target in modules:
                yield target

    if isinstance(node, ast.Import):
        for alias in node.names:
            yield from candidates(alias.name)
        return
    if node.level:  # relative import: resolve against rel's package
        package_parts = rel.split("/")[:-1]
        anchor = package_parts[: len(package_parts) - (node.level - 1)]
        prefix = ".".join(anchor)
        dotted = f"{prefix}.{node.module}" if node.module else prefix
    else:
        dotted = node.module or ""
    if not dotted:
        return
    yield from candidates(dotted)
    # `from repro.x import y` may bind the submodule y, not an attribute.
    for alias in node.names:
        yield from candidates(f"{dotted}.{alias.name}")


def scan_salted_modules(
    src_root: str | Path,
) -> Tuple[Dict[str, str], Dict[str, Tuple[str, ...]]]:
    """``(fingerprints, import_edges)`` of every salted module, one parse each.

    Keys are ``src``-relative posix paths (``repro/core/task.py``), so
    the manifest is stable against checkout location.
    ``import_edges[rel]`` lists the salted modules *rel* imports anywhere
    in its body — including function-local imports (``ast.walk`` sees
    nested statements), so lazily imported dependencies like
    ``core/heteroprio.py``'s ready-queue import are captured.  Edges
    out of ``__init__.py`` modules are dropped: package inits are
    re-export hubs (``schedulers/online/__init__`` imports all four
    policies), and following them would put every policy in every
    closure.
    """
    src_root = Path(src_root)
    paths: Dict[str, Path] = {}
    for package in SALTED_PACKAGES:
        base = src_root / "repro" / package
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            if "__pycache__" not in path.parts:
                paths[path.relative_to(src_root).as_posix()] = path
    fingerprints: Dict[str, str] = {}
    edges: Dict[str, Tuple[str, ...]] = {}
    for rel, path in paths.items():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        targets: Set[str] = set()
        if not rel.endswith("__init__.py"):
            for node in ast.walk(tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    targets.update(_resolve_import(node, rel, paths.keys()))
            targets.discard(rel)
        edges[rel] = tuple(sorted(targets))
        fingerprints[rel] = _tree_fingerprint(tree)
    return fingerprints, edges


def compute_fingerprints(src_root: str | Path) -> Dict[str, str]:
    """Fingerprints of every salted module under *src_root* (``src/``)."""
    return scan_salted_modules(src_root)[0]


def load_manifest(path: str | Path) -> Dict[str, object] | None:
    """The parsed manifest at *path*, or ``None`` if absent/corrupt."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or "fingerprints" not in payload:
        return None
    return payload


def write_manifest(
    path: str | Path, fingerprints: Dict[str, str], *, code_version: str
) -> Path:
    """Write the manifest (canonical JSON, trailing newline); returns *path*."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": MANIFEST_FORMAT,
        "code_version": code_version,
        "generated_by": "repro lint --write-fingerprints",
        "fingerprints": dict(sorted(fingerprints.items())),
    }
    path.write_text(canonical_dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


def check_gate(
    manifest: Dict[str, object] | None,
    current: Dict[str, str],
    *,
    code_version: str,
) -> List[str]:
    """Gate verdict: a list of failure messages (empty = pass).

    Failure modes:

    * fingerprints drifted from the committed manifest — per-module
      closure salts already re-keyed the affected cache entries, but
      the manifest must be regenerated so it keeps describing the tree
      (and so reviewers see which modules' entries were re-keyed);
    * ``CODE_VERSION`` moved but the manifest still records the old
      version — regeneration was forgotten;
    * salted modules added/removed without regenerating;
    * a :data:`SALTED_PACKAGES` entry with no modules in the tree (a
      renamed package would otherwise go unsalted, silently).
    """
    if manifest is None:
        return [
            f"no fingerprint manifest at {MANIFEST_PATH}; "
            "run 'repro lint --write-fingerprints' and commit it"
        ]
    recorded_version = str(manifest.get("code_version", ""))
    recorded = manifest.get("fingerprints")
    if not isinstance(recorded, dict):
        return [f"manifest at {MANIFEST_PATH} is malformed; regenerate it"]

    failures: List[str] = []
    changed = sorted(
        rel
        for rel in set(recorded) & set(current)
        if recorded[rel] != current[rel]
    )
    added = sorted(set(current) - set(recorded))
    removed = sorted(set(recorded) - set(current))

    if changed and recorded_version == code_version:
        failures.append(
            "salted module(s) changed semantically: "
            f"{', '.join(changed)} — per-module closure salts re-key the "
            "affected cache entries automatically (no CODE_VERSION bump "
            "needed), but the committed manifest no longer describes the "
            "tree.  Run 'repro lint --write-fingerprints' and commit the "
            "result."
        )
    if recorded_version != code_version:
        failures.append(
            f"CODE_VERSION is {code_version!r} but the manifest was generated "
            f"for {recorded_version!r}; run 'repro lint --write-fingerprints' "
            "to re-mint it."
        )
    if (added or removed) and not failures:
        details = []
        if added:
            details.append(f"added: {', '.join(added)}")
        if removed:
            details.append(f"removed: {', '.join(removed)}")
        failures.append(
            "salted module set changed ("
            + "; ".join(details)
            + ") — run 'repro lint --write-fingerprints' to record it "
            "(no CODE_VERSION bump needed unless behaviour changed)."
        )
    failures.extend(
        f"salted package {package!r} has no modules under src — "
        "SALTED_PACKAGES and the tree disagree, so nothing salts it."
        for package in SALTED_PACKAGES
        if not any(rel.startswith(f"repro/{package}/") for rel in current)
    )
    return failures
