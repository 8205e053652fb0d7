# repro-lint: disable=wall-clock -- SimStats.wall_s is bench telemetry
# only; no simulated time or cached metric is derived from it.
"""Lockstep batch execution of independent-task HeteroPrio.

One interpreted Python event loop per instance is the binding constraint
on seed-sweep throughput.  This module advances a whole *batch* of
independent-task instances — rows of ``(seed, platform)`` points with
the same task count — in lockstep over numpy arrays:

* every piece of per-instance state (worker end times, queue ends)
  lives in a ``(B, ...)`` array with the batch axis first;
* each main-loop iteration advances *every* row to its own next event
  window and retires all completions across the batch with a handful of
  vectorized operations;
* per-row divergence — spoliation aborts, rows whose queue runs dry,
  rows that finish early — is handled by masked sub-stepping: rows that
  take a given branch are selected with boolean masks and updated
  together, rows that don't are untouched.

The campaign executor routes independent-mode seed sweeps here
(:func:`batch_heteroprio_schedule`); DAG-mode HeteroPrio runs on the
scalar simulator (:func:`repro.simulator.simulate`).

Semantics are **event-for-event identical** to the scalar
:func:`repro.core.heteroprio.heteroprio_schedule` (Algorithm 1 on the
one scalar event loop, :class:`~repro.simulator.runtime.RuntimeSimulator`),
which remains the authoritative differential reference — see
``tests/test_batch_differential.py``.  Bit-identity matters beyond
testing hygiene: campaign results are content-addressed under
``CODE_VERSION``, so the batch engine must reproduce the scalar floats
exactly for the cache to stay valid.  The two properties that make this
achievable:

* the scalar loop processes completions in ``(end, seq)`` heap order
  and anchors each completion window at the first popped event, stale
  (spoliated) or not; the batch engine reproduces the exact pop order
  with a lexsort and anchors each row's window at its earliest live
  completion.  The two windowings agree on independent rows because
  nothing can happen in a window anchored on a stale event: a stale
  event only follows a spoliation, after which the queue stays empty;
  the spoliating worker turned down every victim ending after the
  spoliated task's old completion, and that test only gets harder as
  time passes; and a restarted task is never spoliated again;
* every arithmetic operation on times (``end = now + duration``, the
  spoliation improvement test) is the same IEEE-754 float64 operation
  in numpy as in CPython, applied to the same operands in the same
  association, so results match bit-for-bit.

The ready queue is the static acceleration-factor order
(:func:`repro.core.heteroprio.batch_queue_order`).  Independent tasks
only ever leave it from its two ends, so a ``[front, back]`` window per
row is the whole queue state.

Placements are recorded append-only into flat preallocated arrays in
global chronological order; because each row's records land in its own
chronological order too, one *stable* argsort by row recovers the scalar
loop's exact per-row placement-append order.  The sort is lazy — batch
consumers that only need makespans (order-free maxima) never pay for it.
"""

from __future__ import annotations

import time as _time
from typing import NoReturn, Sequence

import numpy as np

from repro.core.heteroprio import SpoliationEvent, batch_queue_order
from repro.core.platform import Platform, ResourceKind, Worker
from repro.core.schedule import Schedule, TIME_EPS
from repro.core.task import Task
from repro.simulator.runtime import SimStats

__all__ = ["BatchResult", "batch_heteroprio_schedule", "batch_simulate_dag"]


def _service_workers(platform: Platform) -> tuple[Worker, ...]:
    """Workers in service order: GPUs first by index, then CPUs by index."""
    return tuple(
        sorted(
            platform.workers(),
            key=lambda w: (0 if w.kind is ResourceKind.GPU else 1, w.index),
        )
    )


class _Records:
    """Append-only struct-of-arrays placement log for the whole batch.

    Rows are appended in global chronological order; aborted and
    completed placements share the log so a stable per-row selection
    reproduces the scalar append order exactly.
    """

    def __init__(self, capacity: int):
        capacity = max(capacity, 16)
        self.rows = np.empty(capacity, dtype=np.int64)
        self.slots = np.empty(capacity, dtype=np.int64)
        self.tasks = np.empty(capacity, dtype=np.int64)
        self.starts = np.empty(capacity)
        self.ends = np.empty(capacity)
        self.flags = np.empty(capacity, dtype=bool)
        self.size = 0

    def _grow(self, needed: int) -> None:
        capacity = max(needed, self.rows.size + (self.rows.size >> 1))
        for name in ("rows", "slots", "tasks", "starts", "ends", "flags"):
            old = getattr(self, name)
            new = np.empty(capacity, dtype=old.dtype)
            new[: self.size] = old[: self.size]
            setattr(self, name, new)

    def append(
        self,
        rows: np.ndarray,
        slots: np.ndarray,
        tasks: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        aborted: bool,
    ) -> None:
        lo = self.size
        hi = lo + rows.size
        if hi > self.rows.size:
            self._grow(hi)
        self.rows[lo:hi] = rows
        self.slots[lo:hi] = slots
        self.tasks[lo:hi] = tasks
        self.starts[lo:hi] = starts
        self.ends[lo:hi] = ends
        self.flags[lo:hi] = aborted
        self.size = hi


class BatchResult:
    """Outcome of one lockstep batch run.

    Scalar-valued summaries (``makespans``, ``t_first_idle``,
    ``abort_counts``, aggregate ``stats``) are available immediately;
    :meth:`schedule` materializes one row's :class:`Schedule` on demand,
    in the scalar loop's exact placement-append order, with values
    converted to Python floats so downstream JSON caching never sees
    ``np.float64``.
    """

    def __init__(
        self,
        *,
        platforms: tuple[Platform, ...],
        workers: tuple[tuple[Worker, ...], ...],
        n_tasks: int,
        makespans: np.ndarray,
        t_first_idle: np.ndarray,
        abort_counts: np.ndarray,
        stats: SimStats,
        records: _Records,
        sp_chunks: dict[str, list[np.ndarray]],
    ):
        self.platforms = platforms
        self.workers = workers
        self.n_tasks = n_tasks
        #: (B,) float64 makespans, completed placements only.
        self.makespans = makespans
        #: (B,) float64 first instants any worker went idle.
        self.t_first_idle = t_first_idle
        #: (B,) int64 spoliation-abort counts.
        self.abort_counts = abort_counts
        #: Aggregate hot-loop counters (scalar conventions, summed).
        self.stats = stats
        self._records = records
        self._sp_chunks = sp_chunks
        self._offsets: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.platforms)

    def _sorted_records(self) -> tuple[_Records, np.ndarray]:
        """Records grouped by row (stable, preserving append order)."""
        if self._offsets is None:
            rec = self._records
            n = rec.size
            order = np.argsort(rec.rows[:n], kind="stable")
            grouped = _Records(n)
            grouped.rows = rec.rows[:n][order]
            grouped.slots = rec.slots[:n][order]
            grouped.tasks = rec.tasks[:n][order]
            grouped.starts = rec.starts[:n][order]
            grouped.ends = rec.ends[:n][order]
            grouped.flags = rec.flags[:n][order]
            grouped.size = n
            self._records = grouped
            self._offsets = np.searchsorted(
                grouped.rows, np.arange(len(self.platforms) + 1)
            )
        return self._records, self._offsets

    def schedule(self, i: int, tasks: Sequence[Task]) -> Schedule:
        """Materialize row *i* as a :class:`Schedule`.

        ``tasks`` maps row *i*'s task indices to its :class:`Task`
        objects.  Placement order is the scalar loop's append order, so
        list-order-sensitive consumers (metric sums,
        ``Schedule.tasks()``) see identical output.
        """
        rec, offsets = self._sorted_records()
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        row_workers = self.workers[i]
        schedule = Schedule(self.platforms[i])
        add = schedule.add
        for t, s, start, end, aborted in zip(
            rec.tasks[lo:hi].tolist(),
            rec.slots[lo:hi].tolist(),
            rec.starts[lo:hi].tolist(),
            rec.ends[lo:hi].tolist(),
            rec.flags[lo:hi].tolist(),
        ):
            add(tasks[t], row_workers[s], start, end=end, aborted=aborted)
        return schedule

    def spoliations(self, i: int, tasks: Sequence[Task]) -> list[SpoliationEvent]:
        """Row *i*'s spoliation events, in chronological order."""
        chunks = self._sp_chunks
        if not chunks["rows"]:
            return []
        rows = np.concatenate(chunks["rows"])
        keep = np.flatnonzero(rows == i)
        if keep.size == 0:
            return []
        cat = {k: np.concatenate(v)[keep] for k, v in chunks.items()}
        row_workers = self.workers[i]
        return [
            SpoliationEvent(
                task=tasks[int(t)],
                victim_worker=row_workers[int(v)],
                new_worker=row_workers[int(w)],
                abort_time=float(at),
                old_completion=float(old),
                new_completion=float(new),
            )
            for t, v, w, at, old, new in zip(
                cat["tasks"], cat["vslots"], cat["nslots"],
                cat["times"], cat["olds"], cat["news"],
            )
        ]


class _LockstepEngine:
    """The lockstep HeteroPrio loop; see the module docstring for the model."""

    def __init__(
        self,
        *,
        cpu: np.ndarray,
        gpu: np.ndarray,
        platforms: Sequence[Platform],
        migrate: bool,
    ):
        B, n = cpu.shape
        self.B, self.n = B, n
        self.cpu = cpu
        self.gpu = gpu
        self.migrate = migrate
        self.platforms = tuple(platforms)
        self.worker_tuples = tuple(_service_workers(p) for p in self.platforms)
        W = max(len(ws) for ws in self.worker_tuples)
        self.W = W
        self.exists = np.zeros((B, W), dtype=bool)
        self.is_gpu = np.zeros((B, W), dtype=bool)
        for b, ws in enumerate(self.worker_tuples):
            self.exists[b, : len(ws)] = True
            for s, w in enumerate(ws):
                if w.kind is ResourceKind.GPU:
                    self.is_gpu[b, s] = True

        # The affinity queue of row b is order[b, front[b]:back[b] + 1]:
        # the CPU end pops at front, the GPU end at back.  Every task has
        # the default priority 0, so rho ties fall to the task index.
        self.order = batch_queue_order(cpu, gpu, np.zeros_like(cpu))
        self.front = np.zeros(B, dtype=np.int64)
        self.back = np.full(B, n - 1, dtype=np.int64)

        # Worker slot state; an idle slot has w_end == +inf.
        self.w_task = np.full((B, W), -1, dtype=np.int64)
        self.w_end = np.full((B, W), np.inf)
        self.w_start = np.zeros((B, W))
        self.w_seq = np.zeros((B, W), dtype=np.int64)
        self.seq_counter = np.zeros(B, dtype=np.int64)  # heap tiebreak order
        self.remaining = np.full(B, n, dtype=np.int64)
        self.first_idle = np.full(B, np.nan)
        self.stats = SimStats()
        self._cols = np.arange(W, dtype=np.int64)
        self.records = _Records(B * n + B)
        self._sp_chunks: dict[str, list[np.ndarray]] = {
            "rows": [], "tasks": [], "vslots": [], "nslots": [],
            "times": [], "olds": [], "news": [],
        }
        #: reusable (B, W) scratch for the per-pass idle snapshot
        self._snap = np.empty((B, W), dtype=bool)

    # -- primitive steps ---------------------------------------------------

    def _start(
        self,
        rows: np.ndarray,
        slots: np.ndarray,
        tasks: np.ndarray,
        now: np.ndarray,
        durations: np.ndarray,
    ) -> None:
        """Begin executions; rows are unique within one call."""
        self.w_task[rows, slots] = tasks
        self.w_start[rows, slots] = now
        self.w_end[rows, slots] = now + durations
        self.w_seq[rows, slots] = self.seq_counter[rows]
        self.seq_counter[rows] += 1

    def _try_spoliate(
        self,
        rows: np.ndarray,
        slots: np.ndarray,
        gpu_side: np.ndarray,
        t: np.ndarray,
        progress: np.ndarray,
    ) -> np.ndarray:
        """Poll rows whose queue ran dry for a spoliation victim.

        Returns a boolean array over *rows* marking which polls
        spoliated (the rest changed no state).

        Victim choice mirrors the scalar loop exactly: among running
        executions on the *other* resource class that the polling worker
        would finish strictly earlier (``now + new_time < end -
        TIME_EPS``), pick the latest completion, tie-broken by smallest
        task index (all priorities are 0, so the scalar loop's priority
        key never separates two victims).  The exact float ``==``
        against the column max selects ties, not approximate equality,
        which is why no epsilon belongs there.
        """
        sub_end = self.w_end[rows]  # (K, W)
        running = self.exists[rows] & np.isfinite(sub_end)
        other = running & (self.is_gpu[rows] != gpu_side[:, None])
        if not other.any():
            return np.zeros(rows.size, dtype=bool)
        safe_task = np.where(other, self.w_task[rows], 0)
        rows_col = rows[:, None]
        new_time = np.where(
            gpu_side[:, None],
            self.gpu[rows_col, safe_task],
            self.cpu[rows_col, safe_task],
        )
        improving = other & (t[rows][:, None] + new_time < sub_end - TIME_EPS)
        found = improving.any(axis=1)
        if not found.any():
            return found
        fr = np.flatnonzero(found)
        imp = improving[fr]
        stc = safe_task[fr]
        k_end = np.where(imp, sub_end[fr], -np.inf)
        # repro-lint: disable=float-equality -- selects the exact ties of
        # the latest completion, as the scalar loop's sort key does.
        latest = imp & (k_end == k_end.max(axis=1)[:, None])
        vtask = np.where(latest, stc, self.n).min(axis=1)
        vcol = (latest & (stc == vtask[:, None])).argmax(axis=1)

        rr = rows[fr]
        ss = slots[fr]
        ar = np.arange(fr.size)
        vend = sub_end[fr][ar, vcol]
        vstart = self.w_start[rr, vcol]
        ndur = new_time[fr][ar, vcol]
        now = t[rr]

        self.records.append(rr, vcol, vtask, vstart, now, True)
        sp = self._sp_chunks
        sp["rows"].append(rr)
        sp["tasks"].append(vtask)
        sp["vslots"].append(vcol)
        sp["nslots"].append(ss)
        sp["times"].append(now)
        sp["olds"].append(vend)
        sp["news"].append(now + ndur)

        self.w_end[rr, vcol] = np.inf
        self.w_task[rr, vcol] = -1
        self.stats.aborts += rr.size
        self._start(rr, ss, vtask, now, ndur)
        progress[rr] = True
        return found

    # -- settle ------------------------------------------------------------

    def _serve_pass(
        self, t: np.ndarray, snapshot: np.ndarray, progress: np.ndarray
    ) -> None:
        """Serve one pass over the snapshot, in service order.

        Each *sub-iteration* serves at most one slot per row — rows at
        different service positions advance together.

        A failed empty-queue poll is stateless, and the queue cannot
        refill mid-settle, so once a row's poll of one resource class
        comes up empty every later poll of that class in the same pass
        must fail too: those slots are bulk-skipped (the class is marked
        *dead* for the rest of the pass), charging their ``pick()``
        calls to the stats in one add.  This collapses the
        empty-queue tail — per pass each row performs at most one
        meaningful poll per class plus its queue pops.
        """
        cols = self._cols
        is_gpu = self.is_gpu
        ptr = np.zeros(self.B, dtype=np.int64)
        dead_cpu = np.zeros(self.B, dtype=bool)
        dead_gpu = np.zeros(self.B, dtype=bool)
        any_dead = False
        while True:
            eligible = snapshot & (cols >= ptr[:, None])
            if any_dead:
                eligible &= ~(is_gpu & dead_gpu[:, None])
                eligible &= is_gpu | ~dead_cpu[:, None]
            serving = eligible.any(axis=1)
            if not serving.any():
                break
            slot_of = eligible.argmax(axis=1)
            rset = np.flatnonzero(serving)
            svec = slot_of[rset]
            self.stats.picks += rset.size
            gpu_side = is_gpu[rset, svec]
            has_queue = self.front[rset] <= self.back[rset]
            if has_queue.any():
                sel = np.flatnonzero(has_queue)
                pr, ps, pg = rset[sel], svec[sel], gpu_side[sel]
                # GPUs pop the back (most accelerated) end, CPUs the front.
                posv = np.where(pg, self.back[pr], self.front[pr])
                tasks = self.order[pr, posv]
                self.back[pr[pg]] -= 1
                self.front[pr[~pg]] += 1
                durations = np.where(pg, self.gpu[pr, tasks], self.cpu[pr, tasks])
                self._start(pr, ps, tasks, t[pr], durations)
                progress[pr] = True
            if not has_queue.all():
                sel = np.flatnonzero(~has_queue)
                er, es, eg = rset[sel], svec[sel], gpu_side[sel]
                unset = np.isnan(self.first_idle[er])
                if unset.any():
                    self.first_idle[er[unset]] = t[er[unset]]
                if self.migrate:
                    spoliated = self._try_spoliate(er, es, eg, t, progress)
                else:
                    spoliated = np.zeros(er.size, dtype=bool)
                failed = ~spoliated
                if failed.any():
                    fr, fs, fg = er[failed], es[failed], eg[failed]
                    dead_gpu[fr[fg]] = True
                    dead_cpu[fr[~fg]] = True
                    any_dead = True
                    # Charge the skipped same-class polls of this pass.
                    same = is_gpu[fr] == fg[:, None]
                    skipped = snapshot[fr] & (cols > fs[:, None]) & same
                    self.stats.picks += int(skipped.sum())
            ptr[rset] = svec + 1

    def _settle(self, t: np.ndarray, rows_mask: np.ndarray) -> None:
        """Serve idle workers until no row makes progress.

        Mirrors the scalar settle structure: each *pass* snapshots a
        row's idle slots and serves each exactly once in service order
        (GPUs first); slots freed mid-pass (spoliation) wait for the
        next pass.  Rows that started nothing drop out; the loop ends
        when no row progresses — exactly the scalar ``while progress``
        settle.
        """
        active = rows_mask
        snapshot = self._snap
        while active.any():
            np.isfinite(self.w_end, out=snapshot)
            np.logical_not(snapshot, out=snapshot)
            snapshot &= self.exists
            snapshot &= active[:, None]
            progress = np.zeros(self.B, dtype=bool)
            self._serve_pass(t, snapshot, progress)
            active = progress

    # -- main loop ---------------------------------------------------------

    def run(self) -> None:
        started = _time.perf_counter()
        B = self.B
        stats = self.stats
        t = np.zeros(B)
        self._settle(t, self.remaining > 0)
        while True:
            act = self.remaining > 0
            if not act.any():
                break
            # Each row's window anchors at its earliest live completion;
            # a spoliated execution's old completion is gone from w_end.
            # The scalar loop anchors on that stale event instead, where
            # no action can fire (module docstring), so windows agree.
            t = self.w_end.min(axis=1)
            stalled = act & ~np.isfinite(t)
            if stalled.any():
                raise RuntimeError(
                    f"policy stalled in batch run: {int(stalled.sum())} "
                    "row(s) left tasks unfinished with no executions in flight"
                )
            window = t + TIME_EPS
            done = act[:, None] & (self.w_end <= window[:, None])
            rows, slots = np.nonzero(done)
            ends = self.w_end[rows, slots]
            seqs = self.w_seq[rows, slots]
            # Per-row (end, seq) order — exactly the scalar heap-pop order.
            pop_order = np.lexsort((seqs, ends, rows))
            rows, slots = rows[pop_order], slots[pop_order]
            ends = ends[pop_order]
            tasks = self.w_task[rows, slots]
            starts = self.w_start[rows, slots]
            # Group boundaries: rows is sorted, groups are contiguous.
            change = np.empty(rows.size, dtype=bool)
            change[0] = True
            np.not_equal(rows[1:], rows[:-1], out=change[1:])
            first_ix = np.flatnonzero(change)
            urows = rows[first_ix]
            counts = np.diff(np.append(first_ix, rows.size))
            self.records.append(rows, slots, tasks, starts, ends, False)
            stats.events += rows.size
            stats.tasks += rows.size
            self.w_end[rows, slots] = np.inf
            self.w_task[rows, slots] = -1
            self.remaining[urows] -= counts
            settle_rows = np.zeros(B, dtype=bool)
            settle_rows[urows] = True
            settle_rows &= self.remaining > 0
            if settle_rows.any():
                self._settle(t, settle_rows)
        stats.wall_s = _time.perf_counter() - started

    # -- result ------------------------------------------------------------

    def finalize(self) -> BatchResult:
        B, W = self.B, self.W
        rec = self.records
        size = rec.size
        rows = rec.rows[:size]
        ends = rec.ends[:size]
        flags = rec.flags[:size]

        makespans = np.zeros(B)
        completed = ~flags
        np.maximum.at(makespans, rows[completed], ends[completed])

        first_idle = self.first_idle.copy()
        need = np.isnan(first_idle)
        if need.any():
            # Scalar fallback: min over all workers of their last busy
            # instant (0.0 for a never-used worker), aborted included.
            worker_max = np.zeros((B, W))
            np.maximum.at(worker_max, (rows, rec.slots[:size]), ends)
            fallback = np.where(self.exists, worker_max, np.inf).min(axis=1)
            first_idle[need] = fallback[need]

        abort_counts = np.bincount(rows[flags], minlength=B).astype(np.int64)

        return BatchResult(
            platforms=self.platforms,
            workers=self.worker_tuples,
            n_tasks=self.n,
            makespans=makespans,
            t_first_idle=first_idle,
            abort_counts=abort_counts,
            stats=self.stats,
            records=rec,
            sp_chunks=self._sp_chunks,
        )


def _as_platforms(
    platforms: Platform | Sequence[Platform], batch: int
) -> tuple[Platform, ...]:
    if isinstance(platforms, Platform):
        return (platforms,) * batch
    out = tuple(platforms)
    if len(out) != batch:
        raise ValueError(f"expected {batch} platforms, got {len(out)}")
    return out


def batch_heteroprio_schedule(
    cpu_times: np.ndarray,
    gpu_times: np.ndarray,
    platforms: Platform | Sequence[Platform],
    *,
    spoliation: bool = True,
    migration: str = "spoliation",
) -> BatchResult:
    """Run HeteroPrio on a ``(B, n)`` batch of independent-task instances.

    Bit-identical to per-row
    :func:`repro.core.heteroprio.heteroprio_schedule`
    (``compute_ns=False``) with the same migration mode, on tasks of the
    default priority 0.  The ``"preemption"`` migration mode keeps
    partial progress per victim and is inherently sequential — callers
    fall back to the scalar loop.  Rows are distinct instances with
    distinct Task objects: pass a row's own task list to
    :meth:`BatchResult.schedule` and :meth:`BatchResult.spoliations`.
    """
    cpu = np.ascontiguousarray(cpu_times, dtype=np.float64)
    gpu = np.ascontiguousarray(gpu_times, dtype=np.float64)
    if cpu.ndim != 2 or cpu.shape != gpu.shape:
        raise ValueError("cpu_times/gpu_times must be matching (B, n) arrays")
    mode = migration if spoliation else "none"
    if mode not in ("spoliation", "preemption", "none"):
        raise ValueError(f"unknown migration mode {mode!r}")
    if mode == "preemption":
        raise NotImplementedError(
            "preemption migration is sequential per instance; use the scalar loop"
        )
    engine = _LockstepEngine(
        cpu=cpu,
        gpu=gpu,
        platforms=_as_platforms(platforms, cpu.shape[0]),
        migrate=mode == "spoliation",
    )
    engine.run()
    return engine.finalize()


def batch_simulate_dag(*args: object, **kwargs: object) -> NoReturn:
    """Removed: DAG-mode HeteroPrio runs on the scalar simulator.

    Use :func:`repro.simulator.simulate` with a
    :class:`~repro.schedulers.online.heteroprio.HeteroPrioPolicy`.  The
    name stays only because perfbench's tracer resolves it when it
    installs; the change that retargets the tracer deletes it.
    """
    raise NotImplementedError(
        "the lockstep DAG path was removed; use repro.simulator.simulate"
    )
