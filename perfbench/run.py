"""End-to-end benchmark of the paper campaign, seed sweeps and the scheduling service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1      # every workload, traced
    python3 perfbench/run.py --record-references           # rewrite references.json

Workloads: ``figures``, ``seed-sweep``, ``serve``, ``figures-ws`` (see
``README.md``).  ``--trace 0`` measures the end-to-end metrics with no
instrumentation; ``--trace 1`` reports the per-layer metrics of a
traced repeat.  Every metric is printed as ``<name> <value> <unit>``;
the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when an
output check failed.  A report with the path ledger (``CampaignStats``
per pass or the ``/v1/stats`` snapshot) and the traced call counts is
written to ``.perfbench/reports/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("figures", "seed-sweep", "serve", "figures-ws")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement budget: passes repeat while another fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="record the output digests of the current program")
    return parser.parse_args(argv)


def _interrupt(signum: int, frame: object) -> None:
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGINT, signal.default_int_handler)  # even if inherited as ignored
    signal.signal(signal.SIGTERM, _interrupt)
    if args.record_references:
        import references

        references.record()
        return 0
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


def _run_one(args: argparse.Namespace) -> int:
    import workloads
    from checks import load_references
    from ledger import LAYER_UNITS, path_summary
    from programs import STATE_DIR, ProgramError, Programs

    ctx_report: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    with Programs(f"pb{os.getpid()}") as programs:
        ctx = workloads.Context(args.workload, args.seed, args.seconds, bool(args.trace),
                                programs, load_references(), report=ctx_report)
        try:
            outcome = workloads.WORKLOADS[args.workload](ctx)
        except (ProgramError, TimeoutError) as exc:
            print(f"perfbench: {exc or type(exc).__name__}", file=sys.stderr)
            return 1
    units = LAYER_UNITS if args.trace else workloads.E2E_UNITS
    metrics = {name: {"value": outcome.metrics[name], "unit": unit}
               for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"{args.workload} {name} {entry['value']:.6g} {entry['unit']}")
    for name, (value, unit) in outcome.info.items():
        print(f"{args.workload} {name} {value:.6g} {unit} (not gated)")
    if ctx.counts:
        print(f"{args.workload} samples {json.dumps(ctx.counts, sort_keys=True)}")
    checks = ctx.checks
    print(f"{args.workload} failed_frac {checks.failed / max(1, checks.attempted):.6g} ratio "
          f"({checks.failed}/{checks.attempted})")
    for problem in checks.problems:
        print(f"{args.workload} FAILED {problem}")
    if outcome.calls is not None:
        from ledger import balance_error, overhead_resolved

        zero = sorted(name for name, count in outcome.calls.items() if count == 0)
        ctx_report["calls"] = outcome.calls
        ctx_report["zero_calls"] = zero
        print(f"{args.workload} traced functions with zero calls: {', '.join(zero) or '-'}")
        print(f"{args.workload} ledger balance error {balance_error(outcome.metrics):.3g} s")
        m = outcome.metrics
        verdict = "resolved" if overhead_resolved(m) else "unresolved (noise >= overhead or one round)"
        print(f"{args.workload} tracing overhead {m['trace.overhead_s']:+.3g} s, noise "
              f"{m['trace.overhead_noise_s']:.3g} s over {m['trace.overhead_rounds']:.0f} "
              f"round(s): {verdict}")
    for key, value in path_summary(ctx_report.get("ledger", {})).items():
        print(f"{args.workload} path {key}: {json.dumps(value, sort_keys=True)}")
    ctx_report.update(metrics=metrics, attempted=checks.attempted, failed=checks.failed,
                      problems=checks.problems)
    reports = STATE_DIR / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(ctx_report, indent=1, sort_keys=True, default=str) + "\n")
    correct = checks.failed == 0 and checks.attempted > 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own benchmark process, then the zero-call list."""
    from programs import STATE_DIR

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    calls: dict[str, int] = {}
    for name in WORKLOAD_NAMES:
        child = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            out, _ = child.communicate()
        except BaseException:
            child.send_signal(signal.SIGINT)
            child.wait()
            raise
        lines = out.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: workload {name} printed no result", file=sys.stderr)
            return 1
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
        report = STATE_DIR / "reports" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        for fn, count in json.loads(report.read_text()).get("calls", {}).items():
            calls[fn] = calls.get(fn, 0) + count
    if args.trace:
        zero = sorted(fn for fn, count in calls.items() if count == 0)
        print(f"all traced functions with zero calls on every workload: {', '.join(zero) or '-'}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except KeyboardInterrupt:
        print("perfbench: interrupted", file=sys.stderr)
        sys.exit(130)
