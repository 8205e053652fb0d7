# repro-lint: disable=wall-clock -- spawn times and poll deadlines of the benchmark's child processes; never a program result
"""Launching, timing and reaping the program processes of one benchmark run.

Every program process is started through ``launch.py`` in its own
session (so it and any worker it forks form one process group), with
``PYTHONPATH`` pointing at the checkout's ``src``.  :class:`Programs`
is a context manager: on exit — success, a failed check, an exception
or SIGINT — it interrupts every group still alive, waits, kills what
remains and removes the run's temporary directory.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import probe

now = time.monotonic  # the clock launch.py marks with

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Where runs keep their temporary cache directories and reports.
STATE_DIR = ROOT / ".perfbench"


@dataclass
class Pass:
    """One finished program invocation: its clock marks and stdout."""

    spawn: float
    ready: float
    done: float
    ready_cpu: float
    done_cpu: float
    stdout: str
    spans: str | None = None

    @property
    def setup_s(self) -> float:
        """Wall time from spawn to the entry point being ready."""
        return self.ready - self.spawn

    @property
    def wall_s(self) -> float:
        return self.done - self.ready

    @property
    def setup_cpu_s(self) -> float:
        """CPU time the process used until its entry point was ready."""
        return self.ready_cpu

    @property
    def cpu_s(self) -> float:
        """CPU time the entry point used (with any workers it reaped)."""
        return self.done_cpu - self.ready_cpu


@dataclass
class Server:
    """A running ``repro serve`` process."""

    proc: subprocess.Popen
    spawn: float
    port: int
    marks: Path
    spans: str | None
    log: Path

    def cpu_s(self) -> float:
        """CPU time the server process has used so far."""
        return process_cpu_s(self.proc.pid)


class ProgramError(RuntimeError):
    """A program process failed to start or exited with an error."""


class Programs:
    """Owner of the program processes and temp directory of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        (STATE_DIR / "tmp").mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{run_id}-", dir=STATE_DIR / "tmp"))
        self._live: list[subprocess.Popen] = []
        self._seq = 0
        self._cpus = sorted(os.sched_getaffinity(0))
        self._program_cpus: str | None = None  # set by place()
        self._probe_out: Path | None = None  # set by start_probe()

    def __enter__(self) -> "Programs":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def place(self) -> None:
        """Pin this process to the first CPU and later program processes to the rest.

        A closed-loop client and the server it waits on ping-pong; left
        to the scheduler they sometimes share a CPU and sometimes not,
        which halves or doubles sub-millisecond round trips from run to
        run.  A serial campaign left free starts one BLAS thread per
        CPU when it imports numpy, which adds 60-100 ms to its set-up
        in some runs and not in others.  Pinning the benchmark and the
        program apart keeps every run in the same placement.  A no-op
        on a single CPU.
        """
        if len(self._cpus) < 2:
            return
        os.sched_setaffinity(0, {self._cpus[0]})
        self._program_cpus = ",".join(map(str, self._cpus[1:]))

    def path(self, stem: str) -> Path:
        self._seq += 1
        return self.tmp / f"{self._seq:03d}-{stem}"

    def _env(self) -> dict[str, str]:
        env = dict(os.environ)
        # Program processes keep bytecode caches as a default install does,
        # so set-up does not recompile the program when the caller's
        # environment turned the caches off.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PERFBENCH_RUN"] = self.run_id
        return env

    def start_probe(self) -> None:
        """Start the host-speed probe (:mod:`probe`) on the program's CPUs."""
        self._probe_out = self.path("probe.txt")
        pin = ["--cpus", self._program_cpus] if self._program_cpus else []
        self._live.append(subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), "--out", str(self._probe_out), *pin],
            cwd=ROOT, env=self._env(), stdin=subprocess.DEVNULL, start_new_session=True,
        ))

    def probe_samples(self) -> list[tuple[float, float]]:
        """``(end, unit CPU ms)`` of every unit the probe has timed so far."""
        samples = probe.read_samples(self._probe_out) if self._probe_out else []
        if not samples:
            raise ProgramError("the host-speed probe recorded no samples")
        return samples

    def _spawn(self, args: list[str], stdout, stderr) -> tuple[subprocess.Popen, float]:
        pin = ["--cpus", self._program_cpus] if self._program_cpus else []
        argv = [sys.executable, str(HERE / "launch.py"), *pin, *args]
        spawn = now()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self._env(), stdout=stdout, stderr=stderr,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        self._live.append(proc)
        return proc, spawn

    def _reap(self, proc: subprocess.Popen) -> None:
        if proc in self._live:
            self._live.remove(proc)

    def run(self, command: list[str], *, traced: bool = False,
            setup_only: bool = False, timeout: float = 170.0) -> Pass:
        """Run ``repro <command>`` to completion and return its marks."""
        marks = self.path("marks.json")
        spans = str(self.path("spans.json")) if traced else None
        args = ["--marks", str(marks)]
        if spans is not None:
            args += ["--spans", spans]
        if setup_only:
            args.append("--setup-only")
        proc, spawn = self._spawn(
            [*args, "--", *command], subprocess.PIPE, subprocess.PIPE
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        finally:
            if proc.poll() is not None:
                self._reap(proc)
        return self._finish(command, spawn, marks, spans, proc.returncode,
                            out.decode(), err.decode())

    def _finish(self, command, spawn, marks, spans, code, out, err) -> Pass:
        try:
            data = json.loads(marks.read_text())
        except (OSError, ValueError):
            raise ProgramError(
                f"repro {' '.join(command)} exited {code} without marks:\n{err[-2000:]}"
            ) from None
        if code != 0 or data.get("code") != 0:
            raise ProgramError(f"repro {' '.join(command)} exited {code}:\n{err[-2000:]}")
        return Pass(spawn, data["ready"], data["done"], data["ready_cpu"], data["done_cpu"],
                    out, spans)

    def start_server(self, *, traced: bool = False, timeout: float = 60.0) -> Server:
        """Start ``repro serve --port 0`` on a fresh cache dir; wait until listening."""
        cache = self.path("serve-cache")
        marks = self.path("marks.json")
        spans = str(self.path("spans.json")) if traced else None
        log = self.path("serve.log")
        args = ["--marks", str(marks)] + (["--spans", spans] if spans else [])
        with open(log, "wb") as handle:
            proc, spawn = self._spawn(
                [*args, "--", "serve", "--port", "0", "--cache-dir", str(cache)],
                subprocess.DEVNULL, handle,
            )
        deadline = spawn + timeout
        while True:
            text = log.read_text(errors="replace")
            if "listening on http://" in text:
                address = text.split("listening on http://", 1)[1].split()[0]
                return Server(proc, spawn, int(address.rsplit(":", 1)[1]), marks, spans, log)
            if proc.poll() is not None or now() > deadline:
                self.stop_server(Server(proc, spawn, 0, marks, spans, log), check=False)
                raise ProgramError(f"repro serve did not start:\n{text[-2000:]}")
            time.sleep(0.002)

    def stop_server(self, server: Server, *, check: bool = True) -> Pass | None:
        """Interrupt the server, wait for it and return its marks (if *check*)."""
        _signal_group(server.proc, signal.SIGINT)
        try:
            server.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            _signal_group(server.proc, signal.SIGKILL)
            server.proc.wait()
        self._reap(server.proc)
        err = server.log.read_text(errors="replace")
        if not check:
            return None
        return self._finish(["serve"], server.spawn, server.marks, server.spans,
                            server.proc.returncode, "", err)

    def close(self) -> None:
        """Reap every live program process group and delete the temp dir."""
        live, self._live = self._live, []
        for proc in live:
            if proc.poll() is None:
                _signal_group(proc, signal.SIGINT)
        for proc in live:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        for proc in live:
            _signal_group(proc, signal.SIGKILL)  # stray workers of the group
            proc.wait()
        shutil.rmtree(self.tmp, ignore_errors=True)


def _signal_group(proc: subprocess.Popen, sig: int) -> None:
    try:
        os.killpg(proc.pid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def process_cpu_s(pid: int) -> float:
    """CPU time used so far by every thread of process *pid*, exited ones too.

    Reads Linux's per-process CPU-time clock of another process
    (``CPUCLOCK_SCHED`` for the whole thread group, as
    ``clock_getcpuclockid`` builds it).  Like ``time.process_time`` it
    counts the time the process ran, not the time it waited for a CPU.
    """
    return time.clock_gettime(((~pid) << 3) | 2)


def peak_rss_mb() -> float:
    """Peak resident set of the reaped program processes, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
