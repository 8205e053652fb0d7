"""The ``repro lint`` and ``repro analyze`` subcommand bodies.

Kept separate from :mod:`repro.cli` (argument plumbing) so both
pipelines are importable and unit-testable without a parser::

    repro lint                      # determinism rules over src/examples/benchmarks
    repro lint --cache-gate         # + verify analysis/fingerprints.json
    repro lint --write-fingerprints # regenerate the manifest (after a bump)
    repro lint --list-rules         # the rule catalog (statement + flow rules)
    repro lint --paths src/repro/simulator,examples
    repro lint --format json        # canonical JSON for CI annotations

    repro analyze                   # whole-program flow checks over src/repro
    repro analyze --format json     # canonical JSON (sorted findings)
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Sequence, TextIO

from repro.analysis.fingerprint import (
    MANIFEST_PATH,
    check_gate,
    load_manifest,
    scan_salted_modules,
    stale_raw_hashes,
    write_manifest,
)
from repro.analysis.lint import all_rules, lint_paths
from repro.analysis.rules import FLOW_RULES

__all__ = ["run_analyze", "run_lint"]


def _rule_catalog() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.rule_id:22s} {rule.severity:8s} {rule.description}")
        if rule.fix_hint:
            lines.append(f"{'':22s} {'':8s} fix: {rule.fix_hint}")
    lines.append("")
    lines.append("whole-program rules (repro analyze):")
    for info in FLOW_RULES:
        lines.append(f"{info.rule_id:22s} {info.severity:8s} {info.description}")
        lines.append(f"{'':22s} {'':8s} fix: {info.fix_hint}")
    lines.append(
        "\nsuppress per file with: # repro-lint: disable=<rule-id> -- <reason>"
    )
    return "\n".join(lines)


def _dump_json(payload: object, out: TextIO) -> None:
    # Canonical form (sorted keys, tight separators, trailing newline)
    # so CI can diff reports byte-for-byte.
    from repro.io import canonical_dumps

    out.write(canonical_dumps(payload))
    out.write("\n")


def run_lint(
    *,
    root: str | Path = ".",
    paths: Sequence[str] | None = None,
    cache_gate: bool = False,
    write_fingerprints: bool = False,
    list_rules: bool = False,
    show_suppressed: bool = False,
    output_format: str = "text",
    stdout: TextIO | None = None,
    stderr: TextIO | None = None,
) -> int:
    """Run the lint pipeline; returns a process exit code (0 = clean)."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    root = Path(root)

    if list_rules:
        print(_rule_catalog(), file=out)
        return 0

    # CODE_VERSION is imported lazily so `--list-rules` works even in a
    # checkout whose campaign package is broken.
    from repro.campaign.spec import CODE_VERSION

    manifest_path = root / MANIFEST_PATH
    if write_fingerprints:
        tree = scan_salted_modules(root / "src")
        if not tree.fingerprints:
            print(f"[lint] no salted modules found under {root / 'src'}", file=err)
            return 2
        write_manifest(manifest_path, tree, code_version=CODE_VERSION)
        print(
            f"[lint] wrote {len(tree.fingerprints)} fingerprint(s) to {manifest_path} "
            f"(CODE_VERSION {CODE_VERSION})",
            file=out,
        )
        return 0

    exit_code = 0
    report = lint_paths(root, paths)
    if output_format == "json":
        _dump_json(report.to_payload(), out)
    else:
        print(report.render(show_suppressed=show_suppressed), file=out)
    if not report.ok:
        exit_code = 1

    if cache_gate:
        # Always the full scan: the gate never reads the table it checks.
        current = scan_salted_modules(root / "src")
        manifest = load_manifest(manifest_path)
        failures = check_gate(manifest, current, code_version=CODE_VERSION)
        if failures:
            for message in failures:
                print(f"[cache-gate] FAIL: {message}", file=err)
            exit_code = 1
        else:
            print(
                f"[cache-gate] OK: {len(current.fingerprints)} salted module(s) "
                f"match {MANIFEST_PATH} under CODE_VERSION {CODE_VERSION}; "
                "every salted package has modules",
                file=out,
            )
        stale = stale_raw_hashes(manifest, current)
        if stale:
            print(
                f"[cache-gate] note: stale raw hash for {len(stale)} module(s), "
                f"each parsed by every fresh process until regenerated: "
                f"{', '.join(stale)}",
                file=out,
            )
    return exit_code


def run_analyze(
    *,
    root: str | Path = ".",
    show_suppressed: bool = False,
    output_format: str = "text",
    stdout: TextIO | None = None,
    stderr: TextIO | None = None,
) -> int:
    """Run the whole-program flow checks; returns a process exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    root = Path(root)
    if not (root / "src" / "repro").is_dir():
        print(f"[analyze] no src/repro package under {root}", file=err)
        return 2

    from repro.analysis.flow import analyze_tree

    report = analyze_tree(root)
    if output_format == "json":
        _dump_json(report.to_payload(), out)
    else:
        print(report.render(show_suppressed=show_suppressed), file=out)
    return 0 if report.ok else 1
