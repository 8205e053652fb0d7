"""Tests for the cache-salt fingerprint gate (:mod:`repro.analysis.fingerprint`).

Covers the normalization contract (formatting never matters, semantics
always do), every gate verdict, the committed manifest, and the CI
tripwire: a salted-module edit in a temp copy of the repo without a
``CODE_VERSION`` bump must make ``repro lint --cache-gate`` exit
non-zero.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.fingerprint import (
    MANIFEST_PATH,
    SALTED_PACKAGES,
    check_gate,
    compute_fingerprints,
    load_manifest,
    normalized_fingerprint,
    scan_salted_modules,
    write_manifest,
)
from repro.campaign.spec import CODE_VERSION

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_fingerprint_ignores_comments_whitespace_and_docstrings():
    bare = "def f(x):\n    return x + 1\n"
    dressed = (
        '"""Module docstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        '    """Adds one."""\n'
        "    # another comment\n"
        "    return x + 1\n"
    )
    assert normalized_fingerprint(bare) == normalized_fingerprint(dressed)


def test_fingerprint_ignores_line_numbers():
    a = "x = 1\ndef f():\n    return x\n"
    b = "\n\n\n\nx = 1\n\n\ndef f():\n    return x\n"
    assert normalized_fingerprint(a) == normalized_fingerprint(b)


def test_fingerprint_changes_on_semantic_edit():
    base = "def f(x):\n    return x + 1\n"
    assert normalized_fingerprint(base) != normalized_fingerprint(
        "def f(x):\n    return x + 2\n"
    )
    # Renames, new statements and changed defaults are all semantic.
    assert normalized_fingerprint(base) != normalized_fingerprint(
        "def g(x):\n    return x + 1\n"
    )
    assert normalized_fingerprint(base) != normalized_fingerprint(
        "def f(x=0):\n    return x + 1\n"
    )


def test_fingerprint_nested_docstrings_stripped():
    with_doc = (
        "class C:\n"
        '    """Doc."""\n'
        "    def m(self):\n"
        '        """Doc."""\n'
        "        return 1\n"
    )
    without = "class C:\n    def m(self):\n        return 1\n"
    assert normalized_fingerprint(with_doc) == normalized_fingerprint(without)


# ---------------------------------------------------------------------------
# manifest + gate verdicts
# ---------------------------------------------------------------------------


def _fake_tree(tmp_path: Path) -> Path:
    """A minimal src tree: every salted package with one module."""
    src = tmp_path / "src"
    for package in SALTED_PACKAGES:
        pkg = src / "repro" / package
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text(f"VALUE = '{package}'\n")
    return src


def test_compute_fingerprints_covers_salted_packages_only(tmp_path):
    src = _fake_tree(tmp_path)
    extra = src / "repro" / "viz"
    extra.mkdir(parents=True)
    (extra / "mod.py").write_text("X = 1\n")
    prints = compute_fingerprints(src)
    assert set(prints) == {
        f"repro/{package}/{name}"
        for package in SALTED_PACKAGES
        for name in ("__init__.py", "mod.py")
    }


def test_manifest_round_trip(tmp_path):
    src = _fake_tree(tmp_path)
    prints = compute_fingerprints(src)
    path = write_manifest(tmp_path / "analysis" / "f.json", prints, code_version="v1")
    manifest = load_manifest(path)
    assert manifest is not None
    assert manifest["code_version"] == "v1"
    assert manifest["fingerprints"] == prints
    assert check_gate(manifest, prints, code_version="v1") == []


def test_gate_missing_or_corrupt_manifest(tmp_path):
    assert check_gate(None, {}, code_version="v1")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert load_manifest(bad) is None
    bad.write_text('{"no": "fingerprints"}')
    assert load_manifest(bad) is None


def test_gate_fails_on_drift_without_bump(tmp_path):
    src = _fake_tree(tmp_path)
    prints = compute_fingerprints(src)
    manifest_path = write_manifest(tmp_path / "f.json", prints, code_version="v1")
    (src / "repro" / "core" / "mod.py").write_text("VALUE = 'changed'\n")
    failures = check_gate(
        load_manifest(manifest_path), compute_fingerprints(src), code_version="v1"
    )
    assert len(failures) == 1
    assert "changed semantically" in failures[0]
    assert "no CODE_VERSION bump needed" in failures[0]
    assert "repro/core/mod.py" in failures[0]


def test_gate_fails_on_stale_manifest_after_bump(tmp_path):
    src = _fake_tree(tmp_path)
    prints = compute_fingerprints(src)
    manifest_path = write_manifest(tmp_path / "f.json", prints, code_version="v1")
    # Version moved on (with or without an edit): manifest must be re-minted.
    failures = check_gate(load_manifest(manifest_path), prints, code_version="v2")
    assert failures and "re-mint" in failures[0]
    # And a drift + bump reports only the stale manifest, not poisoning.
    (src / "repro" / "core" / "mod.py").write_text("VALUE = 2\n")
    failures = check_gate(
        load_manifest(manifest_path), compute_fingerprints(src), code_version="v2"
    )
    assert len(failures) == 1
    assert "CODE_VERSION bump" not in failures[0]


def test_gate_fails_on_added_or_removed_modules(tmp_path):
    src = _fake_tree(tmp_path)
    prints = compute_fingerprints(src)
    manifest = load_manifest(write_manifest(tmp_path / "f.json", prints, code_version="v1"))
    (src / "repro" / "core" / "new_mod.py").write_text("Y = 1\n")
    failures = check_gate(manifest, compute_fingerprints(src), code_version="v1")
    assert len(failures) == 1
    assert "added: repro/core/new_mod.py" in failures[0]
    (src / "repro" / "core" / "new_mod.py").unlink()
    (src / "repro" / "core" / "mod.py").unlink()
    failures = check_gate(manifest, compute_fingerprints(src), code_version="v1")
    assert failures and "removed: repro/core/mod.py" in failures[0]


def test_gate_fails_on_salted_package_with_no_modules(tmp_path):
    # Rename a salted package and regenerate the manifest: the module
    # set matches again, but nothing salts the renamed package.
    src = _fake_tree(tmp_path)
    (src / "repro" / "timing").rename(src / "repro" / "timing_models")
    prints = compute_fingerprints(src)
    manifest = load_manifest(write_manifest(tmp_path / "f.json", prints, code_version="v1"))
    failures = check_gate(manifest, prints, code_version="v1")
    assert len(failures) == 1
    assert "salted package 'timing' has no modules" in failures[0]


def test_scan_returns_fingerprints_and_salted_edges_in_one_pass(tmp_path):
    src = _fake_tree(tmp_path)
    (src / "repro" / "core" / "mod.py").write_text(
        '"""Doc."""\nfrom repro.dag import mod\n\ndef f():\n    import repro.timing.mod\n'
    )
    (src / "repro" / "core" / "__init__.py").write_text("from repro.core import mod\n")
    prints, edges = scan_salted_modules(src)
    assert prints == compute_fingerprints(src)
    for rel, fingerprint in prints.items():
        assert fingerprint == normalized_fingerprint((src / rel).read_text())
    # `from repro.dag import mod` binds the package and the submodule;
    # function-local imports count too.
    assert edges["repro/core/mod.py"] == (
        "repro/dag/__init__.py",
        "repro/dag/mod.py",
        "repro/timing/mod.py",
    )
    assert edges["repro/core/__init__.py"] == ()  # re-export hubs: no edges


# ---------------------------------------------------------------------------
# the committed manifest
# ---------------------------------------------------------------------------


def test_committed_manifest_matches_tree():
    """Tier-1 enforcement: editing a salted module without regenerating
    analysis/fingerprints.json (and bumping CODE_VERSION when semantic)
    fails right here, before CI."""
    manifest = load_manifest(REPO_ROOT / MANIFEST_PATH)
    assert manifest is not None, "analysis/fingerprints.json missing"
    current = compute_fingerprints(REPO_ROOT / "src")
    failures = check_gate(manifest, current, code_version=CODE_VERSION)
    assert failures == [], "\n".join(failures)


def test_committed_manifest_covers_every_salted_package():
    manifest = load_manifest(REPO_ROOT / MANIFEST_PATH)
    assert manifest is not None
    tops = {rel.split("/")[1] for rel in manifest["fingerprints"]}
    assert tops == set(SALTED_PACKAGES)


# ---------------------------------------------------------------------------
# CI tripwire: mutate a salted module in a temp copy -> gate exits non-zero
# ---------------------------------------------------------------------------


@pytest.fixture()
def repo_copy(tmp_path: Path) -> Path:
    """A minimal copy of the repo: salted sources + the real manifest."""
    copy = tmp_path / "repo"
    shutil.copytree(
        REPO_ROOT / "src" / "repro",
        copy / "src" / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    (copy / "analysis").mkdir()
    shutil.copy(REPO_ROOT / MANIFEST_PATH, copy / MANIFEST_PATH)
    return copy


def _run_gate(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--cache-gate", "--paths", ""],
        cwd=root,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_tripwire_gate_passes_on_unmodified_copy(repo_copy):
    proc = _run_gate(repo_copy)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tripwire_salted_edit_without_bump_fails_gate(repo_copy):
    target = repo_copy / "src" / "repro" / "core" / "task.py"
    target.write_text(target.read_text() + "\n_TRIPWIRE_SENTINEL = 1\n")
    proc = _run_gate(repo_copy)
    assert proc.returncode != 0, proc.stdout + proc.stderr
    assert "CODE_VERSION" in proc.stderr
    assert "repro/core/task.py" in proc.stderr


def test_tripwire_comment_only_edit_keeps_gate_green(repo_copy):
    target = repo_copy / "src" / "repro" / "core" / "task.py"
    target.write_text(target.read_text() + "\n# a trailing comment, no semantics\n")
    proc = _run_gate(repo_copy)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_tripwire_manifest_edit_detected(repo_copy):
    manifest_path = repo_copy / MANIFEST_PATH
    manifest = json.loads(manifest_path.read_text())
    first = sorted(manifest["fingerprints"])[0]
    manifest["fingerprints"][first] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    proc = _run_gate(repo_copy)
    assert proc.returncode != 0
