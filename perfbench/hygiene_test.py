"""Process hygiene of the benchmark: no orphan processes, no temp dirs left.

Run from the repository root (it is outside the tier-1 ``tests/``
collection on purpose — each case runs real workloads for ~10-30 s)::

    python3 -m pytest -q perfbench/hygiene_test.py

Every program process the benchmark starts carries
``PERFBENCH_RUN=pb<pid of run.py>`` in its environment, forked workers
included, which is how the cases find leftovers.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"


def _marked(run_id: str) -> list[int]:
    """Pids of live processes started by the benchmark run *run_id*."""
    marker = f"PERFBENCH_RUN={run_id}".encode()
    pids = []
    for proc in Path("/proc").iterdir():
        if not proc.name.isdigit():
            continue
        try:
            environ = (proc / "environ").read_bytes()
            state = (proc / "stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z" and marker in environ.split(b"\0"):
            pids.append(int(proc.name))
    return pids


def _start(root: Path, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(root / "perfbench" / "run.py"), *args, "--seconds", "1"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _wait_for(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


def _assert_clean(root: Path, child: subprocess.Popen) -> None:
    run_id = f"pb{child.pid}"
    assert _wait_for(lambda: not _marked(run_id), 10), f"orphans: {_marked(run_id)}"
    leftovers = list((root / ".perfbench" / "tmp").glob(f"{run_id}-*"))
    assert not leftovers, f"temp dirs left behind: {leftovers}"


def _interrupt_when(child: subprocess.Popen, processes: int) -> None:
    """SIGINT *child* once it runs at least *processes* program processes."""
    run_id = f"pb{child.pid}"
    assert _wait_for(lambda: len(_marked(run_id)) >= processes, 120), (
        f"never saw {processes} program processes")
    time.sleep(0.5)
    child.send_signal(signal.SIGINT)
    out, _ = child.communicate(timeout=120)
    assert child.returncode != 0
    assert '"correct"' not in out, "an interrupted run must not print a result"


def test_interrupt_reaps_work_stealing_workers() -> None:
    child = _start(ROOT, "--workload", "figures-ws")
    _interrupt_when(child, processes=3)  # campaign process + 2 workers
    _assert_clean(ROOT, child)


def test_interrupt_reaps_the_server() -> None:
    child = _start(ROOT, "--workload", "serve")
    _interrupt_when(child, processes=1)
    _assert_clean(ROOT, child)


def test_success_leaves_nothing_behind() -> None:
    child = _start(ROOT, "--workload", "seed-sweep", "--seed", "1")
    out, err = child.communicate(timeout=170)
    assert child.returncode == 0, err[-2000:]
    assert json.loads(out.splitlines()[-1])["correct"] is True
    _assert_clean(ROOT, child)


def test_failed_check_exits_nonzero_and_cleans_up() -> None:
    """A tampered reference makes the run fail its check, cleanly."""
    copy = STATE / "hygiene-copy"
    shutil.rmtree(copy, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "src", copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(HERE, copy / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        refs_path = copy / "perfbench" / "references.json"
        refs = json.loads(refs_path.read_text())
        refs["seed-sweep"]["1"] = "0" * 64
        refs_path.write_text(json.dumps(refs))
        child = _start(copy, "--workload", "seed-sweep", "--seed", "1")
        out, _ = child.communicate(timeout=170)
        assert child.returncode == 1
        result = json.loads(out.splitlines()[-1])
        assert result["correct"] is False and result["failed"] >= 1
        _assert_clean(copy, child)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
