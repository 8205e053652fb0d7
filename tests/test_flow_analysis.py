"""Tripwire tests for the whole-program flow checks (``repro analyze``).

Each rule in the flow pack gets a fixture tree that *should* trip it —
taint laundered through helpers and containers, a blocking call on the
event loop, fork-hostile globals — plus the matching suppression test
proving ``# repro-lint: disable=RULE -- reason`` silences exactly that
finding.  The salt-closure tripwire runs against the real tree with
doctored executor roots, which is the acceptance criterion: a module
executed outside every derived closure must fail the gate.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.analysis.callgraph import build_model, clear_model_caches, reach
from repro.analysis.cli import run_analyze, run_lint
from repro.analysis.flow import (
    DETERMINISM_ENTRIES,
    WORKER_ENTRIES,
    analyze_tree,
)
from repro.analysis.rules import FLOW_RULES
from repro.analysis.summaries import build_summaries

REPO_ROOT = Path(__file__).resolve().parents[1]


def _write_tree(root: Path, files: dict) -> Path:
    """Materialise a fixture package under root/src/repro/fx/."""
    for rel, source in files.items():
        path = root / "src" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    pkg = root / "src" / "repro" / "fx" / "__init__.py"
    pkg.parent.mkdir(parents=True, exist_ok=True)
    if not pkg.exists():
        pkg.write_text("")
    (root / "src" / "repro" / "__init__.py").write_text("")
    return root


def _findings(report, rule_id):
    return [f for f in report.findings if f.rule_id == rule_id]


# ---------------------------------------------------------------------------
# determinism taint
# ---------------------------------------------------------------------------

LAUNDERED = """\
import time


def _stamp():
    return time.time()


def _wrap(value):
    return {"v": value}


def _unwrap(payload):
    return payload["v"]


def run():
    payload = _wrap(_stamp())
    return _unwrap(payload)
"""


def test_taint_survives_helpers_and_dict_round_trip(tmp_path):
    """Wall-clock taint laundered through two helpers + a dict fires."""
    _write_tree(tmp_path, {"repro/fx/pipeline.py": LAUNDERED})
    report = analyze_tree(
        tmp_path,
        roots=(),
        determinism_entries=("repro/fx/pipeline.py::run",),
        worker_entries=(),
    )
    found = _findings(report, "flow-nondeterminism")
    assert found, report.render()
    finding = found[0]
    # Anchored at the source: the time.time() call inside _stamp.
    assert finding.path == "src/repro/fx/pipeline.py"
    assert finding.line == 5
    assert "wall-clock" in finding.message
    # Interprocedural trace names the entry and the laundering hops.
    trace = "\n".join(finding.trace)
    assert "entry run" in trace
    assert "time.time" in trace


def test_taint_suppression_silences_exactly_one_finding(tmp_path):
    source = (
        "# repro-lint: disable=flow-nondeterminism -- fixture exercises "
        "the suppression path\n" + LAUNDERED
    )
    _write_tree(tmp_path, {"repro/fx/pipeline.py": source})
    report = analyze_tree(
        tmp_path,
        roots=(),
        determinism_entries=("repro/fx/pipeline.py::run",),
        worker_entries=(),
    )
    assert not _findings(report, "flow-nondeterminism"), report.render()
    assert any(
        f.rule_id == "flow-nondeterminism" for f, _sup in report.suppressed
    )
    reasons = {sup.reason for _f, sup in report.suppressed}
    assert any("suppression path" in reason for reason in reasons)


def test_global_rng_presence_fires_without_return_flow(tmp_path):
    source = "import random\n\n\ndef run():\n    random.random()\n    return 0\n"
    _write_tree(tmp_path, {"repro/fx/rng.py": source})
    report = analyze_tree(
        tmp_path,
        roots=(),
        determinism_entries=("repro/fx/rng.py::run",),
        worker_entries=(),
    )
    found = _findings(report, "flow-nondeterminism")
    assert found and "global RNG" in found[0].message


def test_pure_fixture_analyzes_clean(tmp_path):
    source = "def run(x):\n    return [v * 2 for v in sorted(x)]\n"
    _write_tree(tmp_path, {"repro/fx/pure.py": source})
    report = analyze_tree(
        tmp_path,
        roots=(),
        determinism_entries=("repro/fx/pure.py::run",),
        worker_entries=(),
    )
    assert report.ok, report.render()


# ---------------------------------------------------------------------------
# salt-closure verification (real tree, doctored executor roots)
# ---------------------------------------------------------------------------


def test_salt_closure_catches_uncovered_scheduler():
    """Removing the heft policy from the executor's roots must fail the gate."""
    from repro.campaign.executor import dispatch_roots

    roots = dispatch_roots()
    assert "repro/schedulers/online/heft.py" in roots
    report = analyze_tree(
        REPO_ROOT,
        roots=[rel for rel in roots if rel != "repro/schedulers/online/heft.py"],
    )
    found = _findings(report, "flow-salt-coverage")
    assert any(
        "repro/schedulers/online/heft.py" in f.message
        and "outside the salt closure of every spec" in f.message
        for f in found
    ), report.render()


def test_committed_tree_analyzes_clean():
    report = analyze_tree(REPO_ROOT)
    assert report.ok, report.render()
    assert report.modules_checked > 50


# ---------------------------------------------------------------------------
# concurrency lint pack
# ---------------------------------------------------------------------------

ASYNC_BLOCKING = """\
import asyncio
import time


def _work():
    time.sleep(0.5)


async def direct():
    time.sleep(0.1)


async def indirect():
    _work()


async def fine():
    await asyncio.sleep(0.1)
"""


def test_async_blocking_direct_and_interprocedural(tmp_path):
    _write_tree(tmp_path, {"repro/fx/svc.py": ASYNC_BLOCKING})
    report = analyze_tree(
        tmp_path, roots=(), determinism_entries=(), worker_entries=()
    )
    found = _findings(report, "async-blocking")
    messages = [f.message for f in found]
    assert any("async direct" in m for m in messages), report.render()
    assert any(
        "async indirect" in m and "_work" in m for m in messages
    ), report.render()
    # awaited asyncio.sleep never fires
    assert not any("fine" in m for m in messages)


def test_async_blocking_suppression(tmp_path):
    source = (
        "# repro-lint: disable=async-blocking -- fixture\n" + ASYNC_BLOCKING
    )
    _write_tree(tmp_path, {"repro/fx/svc.py": source})
    report = analyze_tree(
        tmp_path, roots=(), determinism_entries=(), worker_entries=()
    )
    assert not _findings(report, "async-blocking")
    assert any(f.rule_id == "async-blocking" for f, _s in report.suppressed)


WORKER_FIXTURE = """\
import threading

_LOCK = threading.Lock()

_cache = None


def _configure():
    global _cache
    _cache = {}


def worker_main():
    _configure()
    return _cache
"""


def test_fork_unsafe_state_and_mp_shared_sync(tmp_path):
    _write_tree(tmp_path, {"repro/fx/worker.py": WORKER_FIXTURE})
    report = analyze_tree(
        tmp_path,
        roots=(),
        determinism_entries=(),
        worker_entries=("repro/fx/worker.py::worker_main",),
    )
    fork = _findings(report, "fork-unsafe-state")
    assert fork and "_cache" in fork[0].message, report.render()
    sync = _findings(report, "mp-shared-sync")
    assert sync and "threading.Lock" in sync[0].message, report.render()


def test_worker_checks_quiet_without_worker_entries(tmp_path):
    _write_tree(tmp_path, {"repro/fx/worker.py": WORKER_FIXTURE})
    report = analyze_tree(
        tmp_path, roots=(), determinism_entries=(), worker_entries=()
    )
    assert not _findings(report, "fork-unsafe-state")
    assert not _findings(report, "mp-shared-sync")


# ---------------------------------------------------------------------------
# reporting, JSON contract, CLI
# ---------------------------------------------------------------------------


def test_payload_is_stable_and_sorted(tmp_path):
    _write_tree(
        tmp_path,
        {
            "repro/fx/pipeline.py": LAUNDERED,
            "repro/fx/svc.py": ASYNC_BLOCKING,
        },
    )
    kwargs = dict(
        roots=(),
        determinism_entries=("repro/fx/pipeline.py::run",),
        worker_entries=(),
    )
    first = analyze_tree(tmp_path, **kwargs).to_payload()
    clear_model_caches()
    second = analyze_tree(tmp_path, **kwargs).to_payload()
    assert first == second
    assert first["ok"] is False
    keys = [(f["path"], f["line"], f["rule"]) for f in first["findings"]]
    assert keys == sorted(keys)
    for record in first["findings"]:
        assert set(record) == {
            "rule",
            "severity",
            "path",
            "line",
            "message",
            "trace",
            "fix_hint",
        }


def test_run_analyze_cli_json(tmp_path):
    _write_tree(tmp_path, {"repro/fx/pure.py": "def run():\n    return 1\n"})
    out, err = io.StringIO(), io.StringIO()
    code = run_analyze(
        root=tmp_path, output_format="json", stdout=out, stderr=err
    )
    assert code == 0
    payload = json.loads(out.getvalue())
    assert payload["ok"] is True
    assert payload["findings"] == []


def test_run_analyze_cli_missing_tree(tmp_path):
    out, err = io.StringIO(), io.StringIO()
    code = run_analyze(root=tmp_path, stdout=out, stderr=err)
    assert code == 2
    assert "no src/repro" in err.getvalue()


def test_run_lint_json_format(tmp_path):
    bad = tmp_path / "src"
    bad.mkdir()
    (bad / "mod.py").write_text("import random\n\nx = random.random()\n")
    out, err = io.StringIO(), io.StringIO()
    code = run_lint(
        root=tmp_path,
        paths=["src/mod.py"],
        output_format="json",
        stdout=out,
        stderr=err,
    )
    assert code == 1
    payload = json.loads(out.getvalue())
    assert payload["ok"] is False
    assert payload["violations"]
    record = payload["violations"][0]
    assert record["rule"] == "unseeded-random"
    assert {"rule", "severity", "path", "line", "col", "message"} <= set(record)


def test_lint_accepts_flow_rule_suppressions(tmp_path):
    """Flow rule ids are registered, so lint never flags them as unknown."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "mod.py").write_text(
        "# repro-lint: disable=async-blocking -- handled by repro analyze\n"
        "x = 1\n"
    )
    out, err = io.StringIO(), io.StringIO()
    code = run_lint(
        root=tmp_path, paths=["src/mod.py"], stdout=out, stderr=err
    )
    assert code == 0, out.getvalue()


def test_flow_rule_catalog_complete():
    ids = sorted(info.rule_id for info in FLOW_RULES)
    assert ids == [
        "async-blocking",
        "flow-nondeterminism",
        "flow-salt-coverage",
        "fork-unsafe-state",
        "mp-shared-sync",
    ]
    for info in FLOW_RULES:
        assert info.severity == "error"
        assert info.description and info.fix_hint


# ---------------------------------------------------------------------------
# model plumbing used by the checks
# ---------------------------------------------------------------------------


def test_reach_follows_calls_and_reports_chain(tmp_path):
    _write_tree(tmp_path, {"repro/fx/pipeline.py": LAUNDERED})
    model = build_model(tmp_path / "src")
    cone = reach(model, ("repro/fx/pipeline.py::run",))
    fids = {fid.split("::", 1)[1] for fid in cone.fids}
    assert {"run", "_stamp", "_wrap", "_unwrap"} <= fids
    chain = cone.chain_to("repro/fx/pipeline.py::_stamp")
    assert chain and chain[0][0].endswith("::run")


def test_summaries_mark_nondet_returns(tmp_path):
    _write_tree(tmp_path, {"repro/fx/pipeline.py": LAUNDERED})
    model = build_model(tmp_path / "src")
    summaries = build_summaries(model)
    stamp = summaries["repro/fx/pipeline.py::_stamp"]
    assert stamp.returns_nondet
    run = summaries["repro/fx/pipeline.py::run"]
    assert run.returns_nondet  # laundered through _wrap/_unwrap survives
