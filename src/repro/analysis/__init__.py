"""Static analysis for the repro tree: determinism lint + cache-salt gate.

The package machine-checks the two conventions the repo's correctness
story rests on:

* **Bit-determinism** — every result-producing path must produce
  identical output on identical input (the campaign
  :class:`~repro.campaign.cache.ResultCache` and the differential tests
  assume it).  :mod:`repro.analysis.rules` encodes the known ways this
  codebase can lose determinism (unseeded global RNG state, wall-clock
  reads, unordered-collection iteration, raw float equality) as lint
  rules over the AST.
* **Cache-salt discipline** — :class:`ResultCache`/:class:`GraphStore`
  keys digest the normalized-AST fingerprints of the modules each spec
  can reach, so a semantic change re-keys exactly the affected entries.
  :mod:`repro.analysis.fingerprint` computes those fingerprints and
  records them, with each module's import edges and raw-byte hash, in a
  committed manifest (``analysis/fingerprints.json``) that the salts
  read at start-up; ``repro lint --cache-gate`` fails when the manifest
  no longer describes the tree.
* **Whole-program flow invariants** — the per-statement rules cannot
  see nondeterminism laundered through helpers or containers, salt
  tables drifting out of sync with the call graph, or concurrency
  hazards that only exist across function boundaries.
  :mod:`repro.analysis.flow` runs interprocedural checks over one
  shared program model (:mod:`repro.analysis.callgraph` +
  :mod:`repro.analysis.summaries`), surfaced as ``repro analyze``.

Entry points: ``repro lint`` and ``repro analyze`` (see
:mod:`repro.analysis.cli`).
"""

from __future__ import annotations

from repro.analysis.fingerprint import (
    MANIFEST_PATH,
    SALTED_PACKAGES,
    check_gate,
    load_manifest,
    normalized_fingerprint,
    write_manifest,
)
from repro.analysis.flow import AnalysisReport, Finding, analyze_tree
from repro.analysis.lint import (
    LintReport,
    Rule,
    Suppression,
    Violation,
    all_rules,
    lint_paths,
    register_rule,
)

__all__ = [
    "AnalysisReport",
    "Finding",
    "LintReport",
    "MANIFEST_PATH",
    "Rule",
    "SALTED_PACKAGES",
    "Suppression",
    "Violation",
    "all_rules",
    "analyze_tree",
    "check_gate",
    "lint_paths",
    "load_manifest",
    "normalized_fingerprint",
    "register_rule",
    "write_manifest",
]

# Importing the ruleset registers the shipped rules with the registry.
from repro.analysis import rules as _rules  # noqa: E402  (registration import)

del _rules
