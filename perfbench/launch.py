# repro-lint: disable=wall-clock -- the ready/done marks time the program's entry point for the benchmark; they never reach a program result
"""Run one ``repro`` CLI invocation and record when its entry point was ready.

Usage::

    python3 perfbench/launch.py --marks FILE [--spans FILE | --setup-only] [--cpus LIST] -- <repro args...>

Equivalent to ``python -m repro <args...>`` (it calls
:func:`repro.cli.main`), plus clock marks written to ``FILE`` as JSON:
``ready`` once the command's modules are imported and ``done`` when
``main`` returns, both on ``CLOCK_MONOTONIC`` so the parent can compare
them with its own spawn time, and ``ready_cpu``/``done_cpu``, the CPU
time this process had used by then (``done_cpu`` adds the CPU time of
reaped child processes, such as work-stealing workers).
``--setup-only`` stops after the ready mark.  With ``--spans`` the
layer functions are wrapped by :mod:`tracer` after the ready mark and
the spans are written to that file on exit.  ``--cpus`` pins the
process (and every thread it starts) to the given CPUs before anything
is imported.  SIGINT and SIGTERM both raise ``KeyboardInterrupt`` so
``repro serve`` shuts down cleanly either way; forked workers get the
default SIGTERM handler back.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import signal
import sys
import time

#: Modules each command imports before it does any work.
ENTRY_MODULES = {
    "campaign": ("repro.cli", "repro.campaign", "repro.experiments.dags"),
    "serve": ("repro.cli", "repro.service.cli"),
}


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _write(path: str, marks: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(marks, handle)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--marks", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpus", default=None,
                        help="comma-separated CPUs to pin this process to")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.cpus:
        os.sched_setaffinity(0, {int(cpu) for cpu in args.cpus.split(",")})
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    # Both signals raise KeyboardInterrupt, also when this process was
    # started with SIGINT ignored (as in a shell's background job).
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL)
    )

    for module in ENTRY_MODULES.get(command[0], ("repro.cli",)):
        importlib.import_module(module)
    marks: dict[str, float | int] = {"ready": time.monotonic(), "ready_cpu": time.process_time()}
    if args.setup_only:
        marks["done"], marks["done_cpu"], marks["code"] = marks["ready"], marks["ready_cpu"], 0
        _write(args.marks, marks)
        return 0
    recorder = None
    if args.spans is not None:
        import tracer

        recorder = tracer.install()
    from repro.cli import main as repro_main

    code = 1
    try:
        code = repro_main(command)
    except KeyboardInterrupt:
        code = 130
    finally:
        marks["done"] = time.monotonic()
        marks["done_cpu"] = time.process_time() + _children_cpu()
        marks["code"] = code
        if recorder is not None:
            recorder.dump(args.spans)
        _write(args.marks, marks)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
