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
  fingerprint; any change visible to the interpreter changes it.  The
  AST is rendered by :func:`_dump`, which spells Python 3.11's
  ``ast.dump`` text on every interpreter, so a module's fingerprint
  (and every cache key) is the same on 3.10 through 3.13;
* :func:`scan_salted_modules` parses every module under the salted
  packages (:data:`SALTED_PACKAGES`) and returns a :class:`SaltedTree`:
  each module's fingerprint, its salted import edges and the SHA-256
  of its raw bytes.  The gate and the manifest writer use it; it never
  reads the manifest;
* the committed manifest ``analysis/fingerprints.json`` (format 2)
  records all three maps — ``fingerprints``, ``imports`` and ``raw``;
* :func:`scan_with_manifest` is the closure salts' path: it hashes
  every live module and takes the fingerprint and edges of each module
  whose bytes match its ``raw`` entry from the manifest, parsing only
  the others.  A missing, malformed or foreign-format manifest, or a
  live module set that differs from the recorded one, makes it a full
  scan.  Both paths run one per-module walker (:func:`_scan_module`);
* :func:`check_gate` fails when fingerprints drift without the
  manifest being regenerated, when ``CODE_VERSION`` moved but the
  manifest was not re-minted, when modules appeared/disappeared
  unrecorded, when a :data:`SALTED_PACKAGES` entry has no modules at
  all (a renamed package that nothing would salt), when the manifest
  lacks the ``raw``/``imports`` maps, or when its recorded import
  edges differ from the tree's (the warm path would trust them).  A
  stale ``raw`` hash alone passes: it costs that module a parse per
  process, never a wrong salt (:func:`stale_raw_hashes` names them).

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
from typing import AbstractSet, Dict, Iterator, List, Mapping, NamedTuple, Set, Tuple

from repro.io import canonical_dumps

__all__ = [
    "SALTED_PACKAGES",
    "MANIFEST_PATH",
    "SaltedTree",
    "normalized_fingerprint",
    "scan_salted_modules",
    "scan_with_manifest",
    "load_manifest",
    "write_manifest",
    "check_gate",
    "stale_raw_hashes",
]

#: Packages (under ``src/repro``) whose semantics feed cache keys.
SALTED_PACKAGES = ("bounds", "core", "dag", "schedulers", "simulator", "timing")

#: Repo-relative location of the committed manifest.
MANIFEST_PATH = "analysis/fingerprints.json"

#: Manifest layout version: 2 adds the ``raw`` and ``imports`` maps.
MANIFEST_FORMAT = 2


class SaltedTree(NamedTuple):
    """What the manifest records per salted module (``src``-relative keys)."""

    #: Normalized-AST SHA-256 (:func:`normalized_fingerprint`).
    fingerprints: Dict[str, str]
    #: Sorted salted modules each module imports (see :func:`_scan_module`).
    imports: Dict[str, Tuple[str, ...]]
    #: SHA-256 of each module file's bytes.
    raw: Dict[str, str]


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


def _dump(node: object) -> str:
    """``ast.dump(node)`` as Python 3.11 spells it, on any interpreter.

    ``annotate_fields=True, include_attributes=False``: fields in
    ``_fields`` order as ``name=value``; a ``None`` is left out only
    where the class default of that field is ``None`` (an absent
    optional field), lists are always shown, and the ``type_params``
    field later interpreters add to every def and class is left out
    when empty.  ``ast.dump`` itself changes between minor versions
    (3.12 adds ``type_params=[]``, 3.13 omits empty lists and ``None``
    fields), and hashing its text made fingerprints — and cache keys —
    depend on the interpreter.
    """
    if isinstance(node, ast.AST):
        cls = type(node)
        fields = []
        for name in node._fields:
            try:
                value = getattr(node, name)
            except AttributeError:
                continue
            if value is None and getattr(cls, name, ...) is None:
                continue
            if name == "type_params" and not value:
                continue
            fields.append(f"{name}={_dump(value)}")
        return f"{cls.__name__}({', '.join(fields)})"
    if isinstance(node, list):
        return f"[{', '.join(_dump(item) for item in node)}]"
    return repr(node)


def _tree_fingerprint(tree: ast.Module) -> str:
    dump = _dump(_strip_docstrings(tree))
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


def _scan_module(
    rel: str, source: bytes, modules: AbstractSet[str]
) -> Tuple[str, Tuple[str, ...]]:
    """``(fingerprint, import_edges)`` of salted module *rel*: one parse.

    The edges list the salted *modules* that *rel* imports anywhere in
    its body — including function-local imports (``ast.walk`` sees
    nested statements), so lazily imported dependencies like
    ``core/heteroprio.py``'s ready-queue import are captured.  Edges
    out of ``__init__.py`` modules are dropped: package inits are
    re-export hubs (``schedulers/online/__init__`` imports all four
    policies), and following them would put every policy in every
    closure.
    """
    tree = ast.parse(source)
    targets: Set[str] = set()
    if not rel.endswith("__init__.py"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                targets.update(_resolve_import(node, rel, modules))
        targets.discard(rel)
    return _tree_fingerprint(tree), tuple(sorted(targets))


def _salted_paths(src_root: Path) -> Dict[str, Path]:
    """Every salted module file under *src_root*, by ``src``-relative path."""
    paths: Dict[str, Path] = {}
    for package in SALTED_PACKAGES:
        base = src_root / "repro" / package
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            if "__pycache__" not in path.parts:
                paths[path.relative_to(src_root).as_posix()] = path
    return paths


def _scan(
    paths: Mapping[str, Path],
    recorded: Mapping[str, Tuple[str, str, Tuple[str, ...]]],
) -> SaltedTree:
    """Hash every module; reuse a *recorded* entry whose raw hash matches."""
    fingerprints: Dict[str, str] = {}
    imports: Dict[str, Tuple[str, ...]] = {}
    raw: Dict[str, str] = {}
    for rel, path in paths.items():
        source = path.read_bytes()
        raw[rel] = hashlib.sha256(source).hexdigest()
        entry = recorded.get(rel)
        if entry is not None and entry[0] == raw[rel]:
            fingerprints[rel], imports[rel] = entry[1], entry[2]
        else:
            fingerprints[rel], imports[rel] = _scan_module(rel, source, paths.keys())
    return SaltedTree(fingerprints, imports, raw)


def scan_salted_modules(src_root: str | Path) -> SaltedTree:
    """The :class:`SaltedTree` of every salted module, parsing each one.

    Keys are ``src``-relative posix paths (``repro/core/task.py``), so
    the manifest is stable against checkout location.  The gate and
    ``repro lint --write-fingerprints`` use this full scan: the table
    they check is never an input.
    """
    return _scan(_salted_paths(Path(src_root)), {})


def _recorded_entries(
    manifest: Dict[str, object] | None, modules: AbstractSet[str]
) -> Dict[str, Tuple[str, str, Tuple[str, ...]]]:
    """``{rel: (raw, fingerprint, edges)}`` of a usable manifest, else ``{}``.

    Usable means format :data:`MANIFEST_FORMAT`, well-typed, and
    recording exactly the live module set *modules* — edges are
    resolved against that set, so an added or removed module can change
    the edges of a module whose bytes did not change.
    """
    if manifest is None or manifest.get("format") != MANIFEST_FORMAT:
        return {}
    raw, fingerprints, imports = (
        manifest.get(key) for key in ("raw", "fingerprints", "imports")
    )
    if not (
        isinstance(raw, dict)
        and isinstance(fingerprints, dict)
        and isinstance(imports, dict)
        and raw.keys() == fingerprints.keys() == imports.keys() == modules
    ):
        return {}
    entries: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {}
    for rel in modules:
        digest, fingerprint, edges = raw[rel], fingerprints[rel], imports[rel]
        if not (
            isinstance(digest, str)
            and isinstance(fingerprint, str)
            and isinstance(edges, list)
            and all(isinstance(edge, str) for edge in edges)
        ):
            return {}
        entries[rel] = (digest, fingerprint, tuple(edges))
    return entries


def scan_with_manifest(src_root: str | Path) -> SaltedTree:
    """:func:`scan_salted_modules`' result, parsing only what changed.

    Reads the manifest committed next to *src_root*
    (``<src_root>/../analysis/fingerprints.json``) and hashes every live
    module: a module whose bytes match its recorded ``raw`` hash takes
    its fingerprint and edges from the manifest, every other module is
    parsed.  Without a usable manifest (see :func:`_recorded_entries`)
    every module is parsed — the result is the full scan's either way,
    as long as the manifest passes :func:`check_gate`.
    """
    src_root = Path(src_root)
    paths = _salted_paths(src_root)
    manifest = load_manifest(src_root.parent / MANIFEST_PATH)
    return _scan(paths, _recorded_entries(manifest, paths.keys()))


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
    path: str | Path, tree: SaltedTree, *, code_version: str
) -> Path:
    """Write the manifest (canonical JSON, trailing newline); returns *path*."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": MANIFEST_FORMAT,
        "code_version": code_version,
        "generated_by": "repro lint --write-fingerprints",
        "fingerprints": tree.fingerprints,
        "imports": tree.imports,
        "raw": tree.raw,
    }
    path.write_text(canonical_dumps(payload, indent=1) + "\n", encoding="utf-8")
    return path


def check_gate(
    manifest: Dict[str, object] | None,
    current: SaltedTree,
    *,
    code_version: str,
) -> List[str]:
    """Gate verdict on the full scan *current*: failure messages (empty = pass).

    Failure modes:

    * fingerprints drifted from the committed manifest — per-module
      closure salts already re-keyed the affected cache entries, but
      the manifest must be regenerated so it keeps describing the tree
      (and so reviewers see which modules' entries were re-keyed);
    * ``CODE_VERSION`` moved but the manifest still records the old
      version — regeneration was forgotten;
    * salted modules added/removed without regenerating;
    * a :data:`SALTED_PACKAGES` entry with no modules in the tree (a
      renamed package would otherwise go unsalted, silently);
    * no ``raw``/``imports`` maps (a format-1 manifest);
    * recorded import edges that differ from the tree's — the warm
      path trusts them for every module whose bytes match.

    A stale ``raw`` hash is not a failure (:func:`stale_raw_hashes`).
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
    live = current.fingerprints
    changed = sorted(
        rel for rel in set(recorded) & set(live) if recorded[rel] != live[rel]
    )
    added = sorted(set(live) - set(recorded))
    removed = sorted(set(recorded) - set(live))

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
        if not any(rel.startswith(f"repro/{package}/") for rel in live)
    )
    imports = manifest.get("imports")
    if not (isinstance(imports, dict) and isinstance(manifest.get("raw"), dict)):
        failures.append(
            f"manifest at {MANIFEST_PATH} records no raw hashes or import "
            "edges (format 1); run 'repro lint --write-fingerprints' to "
            f"write format {MANIFEST_FORMAT}."
        )
        return failures
    # A drifted module's own edges are part of its reported drift.
    misleading = sorted(
        rel
        for rel, edges in current.imports.items()
        if rel in recorded and rel not in changed and imports.get(rel) != list(edges)
    )
    if misleading:
        failures.append(
            "recorded import edges differ from the tree for "
            f"{', '.join(misleading)} — closure salts trust them wherever "
            "the raw hash matches; run 'repro lint --write-fingerprints'."
        )
    return failures


def stale_raw_hashes(
    manifest: Dict[str, object] | None, current: SaltedTree
) -> List[str]:
    """Live modules whose recorded ``raw`` hash is missing or out of date.

    Not a gate failure — after a comment-only edit the fingerprint still
    matches — but each such module is parsed by every fresh process
    until the manifest is regenerated.
    """
    raw = manifest.get("raw") if manifest is not None else None
    if not isinstance(raw, dict):
        return []
    return sorted(rel for rel, digest in current.raw.items() if raw.get(rel) != digest)
