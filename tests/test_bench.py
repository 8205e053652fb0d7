"""Tests for the ``repro bench`` perf harness and its CLI wiring."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro import bench
from repro.cli import main as cli_main

COMMITTED = Path(__file__).resolve().parent.parent / "BENCH_simcore.json"


@pytest.fixture(scope="module")
def quick_report() -> dict:
    return bench.run_bench(quick=True)


def test_quick_report_shape(quick_report):
    assert quick_report["schema"] == bench.SCHEMA
    assert quick_report["quick"] is True
    assert quick_report["calibration_s"] > 0
    assert set(quick_report["cases"]) == {c.case_id for c in bench.QUICK_CASES}
    for payload in quick_report["cases"].values():
        assert payload["events"] > 0
        assert payload["wall_s"] > 0
        assert payload["events_per_sec"] == pytest.approx(
            payload["events"] / payload["wall_s"]
        )
    # The analyze case counts the modules of the repo's own tree.
    assert quick_report["cases"]["analyze:tree:cold"]["events"] > 50


def test_full_suite_contains_quick_cases_and_large_fig7():
    ids = {c.case_id for c in bench.BENCH_CASES}
    # The acceptance-criterion cases: fig7 sweeps at n >= 1000 tasks.
    assert "fig7:cholesky:n20:heteroprio" in ids
    assert "fig7:qr:n14:heteroprio" in ids
    assert "fig7:lu:n14:heteroprio" in ids


def test_every_quick_case_is_in_the_full_suite_and_the_committed_baseline():
    """CI gates ``repro bench --quick`` on the committed full report, and
    a case missing from it is skipped, not compared: the lockstep cases
    of the quick suite must be in both."""
    quick = {c.case_id for c in bench.QUICK_CASES}
    assert {
        "batch:fig6:independent:n500:heteroprio:b64",
        "batch:fig6:independent:n500:dualhp:b64",
    } <= quick
    assert quick <= {c.case_id for c in bench.BENCH_CASES}
    assert quick <= set(json.loads(COMMITTED.read_text())["cases"])


def test_compare_passes_on_identical_reports(quick_report):
    assert bench.compare(quick_report, quick_report) == []


def test_compare_flags_regression(quick_report):
    slower = copy.deepcopy(quick_report)
    case_id = next(iter(slower["cases"]))
    slower["cases"][case_id]["events_per_sec"] *= 0.5  # 50% drop
    failures = bench.compare(slower, quick_report)
    assert len(failures) == 1 and case_id in failures[0]
    # A 20% drop is within THRESHOLD.
    slower["cases"][case_id]["events_per_sec"] *= 1.6
    assert bench.compare(slower, quick_report) == []


def test_compare_normalizes_by_calibration(quick_report):
    # Same code on a uniformly 2x-slower runner: half the events/sec,
    # double the calibration time.  Must NOT read as a regression.
    slower_runner = copy.deepcopy(quick_report)
    slower_runner["calibration_s"] *= 2.0
    for payload in slower_runner["cases"].values():
        payload["events_per_sec"] *= 0.5
    assert bench.compare(slower_runner, quick_report) == []


def test_compare_skips_unknown_cases(quick_report):
    extra = copy.deepcopy(quick_report)
    extra["cases"]["fig7:made-up:n99:heteroprio"] = {"events_per_sec": 1.0}
    assert bench.compare(quick_report, extra) == []


def test_compare_gates_batch_events_per_sec(quick_report):
    slower = copy.deepcopy(quick_report)
    case_id = next(c for c in slower["cases"] if c.startswith("batch:"))
    slower["cases"][case_id]["events_per_sec"] *= 0.5
    failures = bench.compare(slower, quick_report)
    assert len(failures) == 1 and case_id in failures[0]


def test_render_mentions_every_case(quick_report):
    text = bench.render(quick_report)
    for case_id in quick_report["cases"]:
        assert case_id in text


def test_cli_bench_quick_writes_report(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert cli_main(["bench", "--quick", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["quick"] is True
    assert set(report["cases"]) == {c.case_id for c in bench.QUICK_CASES}
    captured = capsys.readouterr().out
    assert "events/s" in captured


def test_cli_bench_baseline_check(tmp_path, capsys, monkeypatch):
    baseline = tmp_path / "baseline.json"
    assert cli_main(["bench", "--quick", "--json", str(baseline)]) == 0
    # Re-run against the just-written baseline: same machine, must pass.
    # A loose threshold keeps run-to-run timing noise (the quick cases
    # finish in milliseconds) out of the assertion — the gate logic is
    # what is under test, and the inflated-baseline check below fails by
    # 100x, far past any threshold.
    monkeypatch.setattr(bench, "THRESHOLD", 0.90)
    assert cli_main(["bench", "--quick", "--json", "-", "--baseline", str(baseline)]) == 0
    # Inflate the baseline beyond reach: the check must fail.
    baseline.write_bytes(_inflated(baseline.read_bytes()))
    capsys.readouterr()
    assert (
        cli_main(["bench", "--quick", "--json", "-", "--baseline", str(baseline)]) == 1
    )
    assert "REGRESSION" in capsys.readouterr().out


def _inflated(report_bytes: bytes) -> bytes:
    """*report_bytes* with every events/sec raised 100x: beyond any run."""
    report = json.loads(report_bytes)
    for payload in report["cases"].values():
        payload["events_per_sec"] *= 100.0
    return json.dumps(report).encode()


def test_cli_bench_baseline_is_never_overwritten_or_self_compared(
    tmp_path, monkeypatch, capsys
):
    """Without ``--json`` no report file is written, so a run gated on a
    baseline -- even one named ``BENCH_simcore.json`` in the working
    directory -- leaves every file as it was and is compared with the
    file's content, never with its own report."""
    monkeypatch.chdir(tmp_path)
    committed = COMMITTED.read_bytes()
    default = tmp_path / "BENCH_simcore.json"
    default.write_bytes(committed)
    doctored = tmp_path / "doctored.json"
    doctored.write_bytes(_inflated(committed))
    assert cli_main(["bench", "--quick", "--baseline", str(doctored)]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert doctored.read_bytes() == _inflated(committed)
    assert default.read_bytes() == committed
    default.write_bytes(_inflated(committed))
    assert cli_main(["bench", "--quick", "--baseline", "BENCH_simcore.json"]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert default.read_bytes() == _inflated(committed)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "BENCH_simcore.json",
        "doctored.json",
    ]


def test_cli_bench_baseline_is_read_before_the_report_is_written(tmp_path, capsys):
    # --json and --baseline naming one file: the run is gated against
    # the file's old content, then the file holds the new report.
    path = tmp_path / "baseline.json"
    assert cli_main(["bench", "--quick", "--json", str(path)]) == 0
    path.write_bytes(_inflated(path.read_bytes()))
    capsys.readouterr()
    assert (
        cli_main(["bench", "--quick", "--json", str(path), "--baseline", str(path)])
        == 1
    )
    assert "REGRESSION" in capsys.readouterr().out
    report = json.loads(path.read_text())
    assert report["quick"] is True
    assert set(report["cases"]) == {c.case_id for c in bench.QUICK_CASES}


def test_cli_bench_baseline_unknown_cases_warn_and_skip(tmp_path, capsys, monkeypatch):
    """A case in only one report (renamed case, full report vs --quick
    run) is noted and skipped — exit 0, no KeyError."""
    baseline = tmp_path / "baseline.json"
    assert cli_main(["bench", "--quick", "--json", str(baseline)]) == 0
    report = json.loads(baseline.read_text())
    report["cases"]["fig7:retired:n99:heteroprio"] = {
        "events_per_sec": 1e12,  # would fail the threshold if not skipped
        "wall_s": 1.0,
    }
    report["cases"]["fig6:also-unknown:n1:x"] = {"events_per_sec": 1e12}
    del report["cases"]["analyze:tree:cold"]
    baseline.write_text(json.dumps(report))
    capsys.readouterr()
    # Loose threshold: run-to-run noise on the known cases must not
    # obscure what is under test (the unknown cases are skipped; the
    # planted 1e12 would fail any threshold if they were not).
    monkeypatch.setattr(bench, "THRESHOLD", 0.90)
    assert cli_main(["bench", "--quick", "--json", "-", "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "baseline has 2 case(s) not in this run" in out
    assert "fig7:retired:n99:heteroprio" in out
    assert "this run has 1 case(s) not in the baseline (analyze:tree:cold)" in out
    assert f"on {len(bench.QUICK_CASES) - 1} case(s)" in out
    assert "REGRESSION" not in out


def test_cli_profile_smoke(capsys):
    assert cli_main(["bench", "--quick", "--json", "-", "--profile",
                     "--profile-top", "5"]) == 0
    captured = capsys.readouterr()
    assert "cumulative" in captured.err or "cumtime" in captured.err


PHASE_KEYS = ("build_s", "priorities_s", "end_to_end_s")


def test_dag_cases_carry_phase_breakdown(quick_report):
    dag_payloads = {
        case_id: payload
        for case_id, payload in quick_report["cases"].items()
        if case_id.startswith("fig7:")
    }
    assert dag_payloads  # the quick subset includes DAG cases
    for payload in dag_payloads.values():
        for key in PHASE_KEYS:
            assert payload[key] > 0, key
        assert payload["end_to_end_s"] == pytest.approx(
            payload["build_s"] + payload["priorities_s"] + payload["wall_s"]
        )


def test_independent_cases_phase_keys(quick_report):
    # fig6 cases time heteroprio_schedule alone: no graph, no priority
    # sweep, and the instance is the bench's own fixture, not product
    # code, so no phase is timed.
    fig6 = {
        case_id: payload
        for case_id, payload in quick_report["cases"].items()
        if case_id.startswith("fig6:")
    }
    assert fig6
    for payload in fig6.values():
        for key in PHASE_KEYS:
            assert key not in payload


def test_batch_report_adds_batch_cases(quick_report):
    # The quick suite runs both lockstep paths, and each counts at least
    # one event per task of every row: exactly one placement per task
    # for offline DualHP, plus one per spoliation for HeteroPrio.
    batch = {
        case_id: payload
        for case_id, payload in quick_report["cases"].items()
        if case_id.startswith("batch:")
    }
    assert set(batch) == {
        "batch:fig6:independent:n500:heteroprio:b64",
        "batch:fig6:independent:n500:dualhp:b64",
    }
    assert batch["batch:fig6:independent:n500:dualhp:b64"]["events"] == 64 * 500
    assert batch["batch:fig6:independent:n500:heteroprio:b64"]["events"] > 64 * 500


def test_render_shows_phase_columns(quick_report):
    text = bench.render(quick_report)
    assert "build" in text and "e2e" in text


def test_committed_report_has_phase_breakdown():
    # The committed BENCH_simcore.json must carry the phase columns for
    # every fig7 case (the CI smoke job asserts the same invariant).
    committed = json.loads(COMMITTED.read_text())
    fig7 = {k: v for k, v in committed["cases"].items() if k.startswith("fig7:")}
    assert fig7
    for payload in fig7.values():
        for key in PHASE_KEYS:
            assert key in payload


def test_committed_report_has_batch_cases():
    # The lockstep roster is covered: independent HeteroPrio and DualHP
    # appear as batch cases in the committed baseline.
    committed = json.loads(COMMITTED.read_text())
    batch_cases = {
        k: v for k, v in committed["cases"].items() if k.startswith("batch:")
    }
    for payload in batch_cases.values():
        assert payload["events_per_sec"] > 0
    for policy in ("heteroprio", "dualhp"):
        assert any(f":{policy}:" in k for k in batch_cases), policy
