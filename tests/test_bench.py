"""Tests for the ``repro bench`` perf harness and its CLI wiring."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro import bench
from repro.cli import main as cli_main


@pytest.fixture(scope="module")
def quick_report() -> dict:
    return bench.run_bench(quick=True)


def test_quick_report_shape(quick_report):
    assert quick_report["schema"] == bench.SCHEMA
    assert quick_report["quick"] is True
    assert quick_report["calibration_s"] > 0
    assert set(quick_report["cases"]) == {c.case_id for c in bench.QUICK_CASES}
    for case_id, payload in quick_report["cases"].items():
        assert payload["tasks"] > 0
        assert payload["wall_s"] > 0
        assert payload["events_per_sec"] > 0
        assert payload["events"] >= payload["tasks"]
        if not case_id.startswith("analyze:"):
            # The analyze case has no schedule, hence no makespan.
            assert payload["makespan"] > 0


def test_full_suite_contains_quick_cases_and_large_fig7():
    ids = {c.case_id for c in bench.BENCH_CASES}
    assert {c.case_id for c in bench.QUICK_CASES} <= ids
    # The acceptance-criterion cases: fig7 sweeps at n >= 1000 tasks.
    assert "fig7:cholesky:n20:heteroprio" in ids
    assert "fig7:qr:n14:heteroprio" in ids
    assert "fig7:lu:n14:heteroprio" in ids


def test_pre_pr_reference_attached_to_known_cases():
    for case_id in bench.PRE_PR_WALL_S:
        assert case_id.startswith(("fig6:", "fig7:"))


def test_analyze_case_reports_cold_and_warm(quick_report):
    payload = quick_report["cases"]["analyze:tree"]
    assert payload["analyze_cold_s"] > 0
    assert payload["analyze_warm_s"] > 0
    assert payload["analyze_modules_per_sec"] > 0
    assert "analyze_modules_per_sec" in bench.GATED_KEYS
    # The warm pass hits the parse memo: never slower than cold by more
    # than timing noise.
    assert payload["warm_over_cold"] > 0.5
    # tasks doubles as the module count the analyzer covered.
    assert payload["tasks"] > 50


def test_compare_passes_on_identical_reports(quick_report):
    assert bench.compare(quick_report, quick_report) == []


def test_compare_flags_regression(quick_report):
    slower = copy.deepcopy(quick_report)
    case_id = next(iter(slower["cases"]))
    slower["cases"][case_id]["events_per_sec"] *= 0.5  # 50% drop
    failures = bench.compare(slower, quick_report, threshold=0.30)
    assert len(failures) == 1 and case_id in failures[0]
    # A 50% drop passes a 60% threshold.
    assert bench.compare(slower, quick_report, threshold=0.60) == []


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


def test_cli_bench_baseline_check(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert cli_main(["bench", "--quick", "--json", str(baseline)]) == 0
    # Re-run against the just-written baseline: same machine, must pass.
    # A loose threshold keeps run-to-run timing noise (the quick cases
    # finish in milliseconds) out of the assertion — the gate logic is
    # what is under test, and the inflated-baseline check below fails by
    # 100x, far past any threshold.
    assert (
        cli_main(
            ["bench", "--quick", "--json", "-",
             "--baseline", str(baseline), "--threshold", "0.90"]
        )
        == 0
    )
    # Inflate the baseline beyond reach: the check must fail.
    report = json.loads(baseline.read_text())
    for payload in report["cases"].values():
        payload["events_per_sec"] *= 100.0
    baseline.write_text(json.dumps(report))
    capsys.readouterr()
    assert (
        cli_main(["bench", "--quick", "--json", "-", "--baseline", str(baseline)]) == 1
    )
    assert "REGRESSION" in capsys.readouterr().out


def _inflated(report_bytes: bytes) -> bytes:
    """*report_bytes* with every events/sec raised 100x: beyond any run."""
    report = json.loads(report_bytes)
    for payload in report["cases"].values():
        if "events_per_sec" in payload:
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
    committed = (
        Path(__file__).resolve().parent.parent / "BENCH_simcore.json"
    ).read_bytes()
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


def test_cli_bench_baseline_unknown_cases_warn_and_skip(tmp_path, capsys):
    """Satellite bugfix: a baseline carrying case names this run does not
    produce (renamed case, full report vs --quick run) is warned about
    and skipped — exit 0, no KeyError."""
    baseline = tmp_path / "baseline.json"
    assert cli_main(["bench", "--quick", "--json", str(baseline)]) == 0
    report = json.loads(baseline.read_text())
    report["cases"]["fig7:retired:n99:heteroprio"] = {
        "events_per_sec": 1e12,  # would fail the threshold if not skipped
        "wall_s": 1.0,
        "pre_pr_wall_s": 5.0,
        "tasks": 1,
    }
    report["cases"]["fig6:also-unknown:n1:x"] = {"events_per_sec": 1e12}
    baseline.write_text(json.dumps(report))
    capsys.readouterr()
    # Loose threshold: run-to-run noise on the known cases must not
    # obscure what is under test (the unknown cases are skipped; the
    # planted 1e12 would fail any threshold if they were not).
    assert (
        cli_main(
            ["bench", "--quick", "--json", "-",
             "--baseline", str(baseline), "--threshold", "0.90"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "2 case(s) not in this run" in out
    assert "fig7:retired:n99:heteroprio" in out
    assert "REGRESSION" not in out


def test_cli_profile_smoke(capsys):
    assert cli_main(["bench", "--quick", "--json", "-", "--profile",
                     "--profile-top", "5"]) == 0
    captured = capsys.readouterr()
    assert "cumulative" in captured.err or "cumtime" in captured.err


PHASE_KEYS = (
    "build_s",
    "priorities_s",
    "end_to_end_s",
    "dict_build_s",
    "dict_priorities_s",
    "end_to_end_speedup",
)


def test_dag_cases_carry_phase_breakdown(quick_report):
    dag_payloads = {
        case_id: payload
        for case_id, payload in quick_report["cases"].items()
        if case_id.startswith("fig7:")
    }
    assert dag_payloads  # the quick subset includes DAG cases
    for payload in dag_payloads.values():
        for key in PHASE_KEYS:
            assert key in payload, key
            assert payload[key] > 0
        assert payload["end_to_end_s"] == pytest.approx(
            payload["build_s"] + payload["priorities_s"] + payload["wall_s"]
        )
        assert payload["end_to_end_speedup"] == pytest.approx(
            (payload["dict_build_s"] + payload["dict_priorities_s"] + payload["wall_s"])
            / payload["end_to_end_s"]
        )


# fig6 cases have no graph/priority phases, so only build + end-to-end
# apply; the dict-path comparison keys are meaningless there.
DAG_ONLY_PHASE_KEYS = (
    "priorities_s",
    "dict_build_s",
    "dict_priorities_s",
    "end_to_end_speedup",
)


def test_independent_cases_phase_keys(quick_report):
    fig6 = {
        case_id: payload
        for case_id, payload in quick_report["cases"].items()
        if case_id.startswith("fig6:")
    }
    assert fig6
    for payload in fig6.values():
        for key in DAG_ONLY_PHASE_KEYS:
            assert key not in payload
        # Satellite: fig6 cases now record instance-construction time so
        # their end-to-end totals are comparable across reports.
        assert payload["build_s"] > 0
        assert payload["end_to_end_s"] == pytest.approx(
            payload["build_s"] + payload["wall_s"]
        )


def test_full_suite_attaches_end_to_end_vs_pre_pr():
    # One fig7 case with a recorded pre-PR wall, run through run_bench so
    # the derived vs-pre-PR ratio is attached with its documented formula.
    case = next(
        c for c in bench.BENCH_CASES if c.case_id == "fig7:cholesky:n20:heteroprio"
    )
    report = bench.run_bench(cases=[case])
    payload = report["cases"][case.case_id]
    assert payload["pre_pr_wall_s"] == bench.PRE_PR_WALL_S[case.case_id]
    assert payload["end_to_end_vs_pre_pr"] == pytest.approx(
        (
            payload["dict_build_s"]
            + payload["dict_priorities_s"]
            + payload["pre_pr_wall_s"]
        )
        / payload["end_to_end_s"]
    )


def test_render_shows_phase_columns(quick_report):
    text = bench.render(quick_report)
    assert "build" in text and "e2e" in text


def test_committed_report_has_phase_breakdown():
    # The committed BENCH_simcore.json must carry the phase columns for
    # every fig7 case (the CI smoke job asserts the same invariant).
    from pathlib import Path

    committed = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCH_simcore.json").read_text()
    )
    fig7 = {k: v for k, v in committed["cases"].items() if k.startswith("fig7:")}
    assert fig7
    for payload in fig7.values():
        for key in PHASE_KEYS:
            assert key in payload


# -- batch bench surface ------------------------------------------------------


@pytest.fixture(scope="module")
def batch_report() -> dict:
    return bench.run_bench(quick=True, batch=True)


def test_batch_report_adds_batch_cases(batch_report):
    expected = {c.case_id for c in bench.QUICK_CASES} | {
        c.case_id for c in bench.QUICK_BATCH_CASES
    }
    assert set(batch_report["cases"]) == expected
    batch_ids = [c for c in batch_report["cases"] if c.startswith("batch:")]
    assert batch_ids


def test_batch_payload_keys_and_speedup(batch_report):
    for case_id, payload in batch_report["cases"].items():
        if not case_id.startswith("batch:"):
            continue
        assert payload["batch"] > 1
        assert payload["batch_events_per_sec"] > 0
        assert payload["scalar_events_per_sec"] > 0
        assert payload["batch_speedup"] == pytest.approx(
            payload["batch_events_per_sec"] / payload["scalar_events_per_sec"]
        )
        # The aggregate throughput key doubles as the generic gate key.
        assert payload["events_per_sec"] == payload["batch_events_per_sec"]
        # The runner re-ran sample rows through the scalar simulator and
        # asserted bitwise-equal makespans; the count is recorded.
        assert payload["scalar_sample"] >= 1
        assert payload["makespan"] > 0


def test_compare_gates_batch_events_per_sec(batch_report):
    slower = copy.deepcopy(batch_report)
    case_id = next(c for c in slower["cases"] if c.startswith("batch:"))
    slower["cases"][case_id]["batch_events_per_sec"] *= 0.5
    failures = bench.compare(slower, batch_report, threshold=0.30)
    assert any(case_id in f and "batch_events_per_sec" in f for f in failures)


def test_compare_notes_missing_batch_key(batch_report):
    # Baseline has batch throughput, current run does not (e.g. it was
    # produced without --batch): warn-and-skip, naming the key.
    current = copy.deepcopy(batch_report)
    case_id = next(c for c in current["cases"] if c.startswith("batch:"))
    del current["cases"][case_id]["batch_events_per_sec"]
    notes: list[str] = []
    assert bench.compare(current, batch_report, notes=notes) == []
    assert any(
        case_id in n and "batch_events_per_sec" in n and "skipped" in n
        for n in notes
    )


def test_render_shows_batch_gain_column(batch_report):
    text = bench.render(batch_report)
    assert "batch gain" in text
    for case_id in batch_report["cases"]:
        assert case_id in text


def test_cli_bench_batch_flag(tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert cli_main(["bench", "--quick", "--batch", "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    batch_cases = {k: v for k, v in report["cases"].items() if k.startswith("batch:")}
    assert set(batch_cases) == {c.case_id for c in bench.QUICK_BATCH_CASES}
    for payload in batch_cases.values():
        assert payload["batch_events_per_sec"] > 0
    assert "batch gain" in capsys.readouterr().out


def test_committed_report_has_batch_cases():
    # The committed baseline carries the full batch grid so the CI gate
    # covers batch_events_per_sec from this PR onward.
    from pathlib import Path

    committed = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCH_simcore.json").read_text()
    )
    batch_cases = {
        k: v for k, v in committed["cases"].items() if k.startswith("batch:")
    }
    assert len(batch_cases) >= 2
    for payload in batch_cases.values():
        assert payload["batch_events_per_sec"] > 0
        # The batch floor is >= 3x per policy at B >= 128 (the HEFT and
        # DualHP rollout target); the scalar reference now reuses one
        # warmed graph build across sample rows, so the denominators are
        # tighter than the original >= 5x HeteroPrio-only pin.
        assert payload["batch_speedup"] >= 3.0
    # The lockstep roster is covered: independent HeteroPrio and
    # DualHP appear as batch cases in the committed baseline.
    for policy in ("heteroprio", "dualhp"):
        assert any(f":{policy}:" in k for k in batch_cases), policy


def test_cli_baseline_skips_cases_without_pre_pr_wall(tmp_path, capsys):
    # Satellite: a baseline whose cases lack ``pre_pr_wall_s`` (the quick
    # smoke cases never had one) must be skipped with a note — no KeyError.
    baseline = tmp_path / "baseline.json"
    assert cli_main(["bench", "--quick", "--json", str(baseline)]) == 0
    report = json.loads(baseline.read_text())
    for payload in report["cases"].values():
        payload.pop("pre_pr_wall_s", None)
    baseline.write_text(json.dumps(report))
    capsys.readouterr()
    # Loose threshold for noise-robustness; the skip note is the subject.
    assert (
        cli_main(
            ["bench", "--quick", "--json", "-",
             "--baseline", str(baseline), "--threshold", "0.90"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "no pre_pr_wall_s in baseline" in out
    assert "skipped" in out
