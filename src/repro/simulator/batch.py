# repro-lint: disable=wall-clock -- SimStats.wall_s is bench telemetry
# only; no simulated time or cached metric is derived from it.
"""Lockstep batch execution of HeteroPrio.

One interpreted Python event loop per instance is the binding constraint
on seed-sweep throughput.  This module advances a whole *batch* of
instances — rows of ``(seed, platform, priority)`` points that share one
:class:`~repro.dag.compiled.CompiledGraph` structure or one
independent-task recipe — in lockstep over numpy arrays:

* every piece of per-instance simulator state (worker end times, queue
  positions, in-degrees) lives in a ``(B, ...)`` array with the batch
  axis first;
* each main-loop iteration advances *every* row to its own next event
  window and retires all completions across the batch with a handful of
  vectorized operations;
* per-row divergence — spoliation aborts, stale completion events, rows
  whose queue runs dry — is handled by masked sub-stepping: rows that
  take a given branch are selected with boolean masks and updated
  together, rows that don't are untouched.

The engine owns everything policy-independent — worker slots, the
dependency CSR, completion windows, placement records — and delegates
each policy decision to the HeteroPrio *kernel* of
:mod:`repro.simulator.batch_policies`, which expresses the scalar
policy's picks as masked vector operations.  The campaign executor
routes only independent-mode seed sweeps here
(:func:`batch_heteroprio_schedule`); :func:`batch_simulate_dag` is the
DAG-mode entry, kept for the bench and the differential suite.

Semantics are **event-for-event identical** to the scalar loops
(:mod:`repro.simulator.runtime` for DAGs,
:func:`repro.core.heteroprio.heteroprio_schedule` for independent
tasks), which remain the authoritative differential references — see
``tests/test_batch_differential.py``.  Bit-identity matters beyond
testing hygiene: campaign results are content-addressed under
``CODE_VERSION``, so the batch engine must reproduce the scalar floats
exactly for the cache to stay valid.  The two properties that make this
achievable:

* both scalar loops process completions in ``(end, seq)`` heap order
  and anchor each completion window at the first popped event; the
  batch engine reproduces the exact pop order with a lexsort and the
  exact anchor with per-row *phantom* events (see below);
* every arithmetic operation on times (``end = now + duration``, the
  spoliation improvement test) is the same IEEE-754 float64 operation
  in numpy as in CPython, applied to the same operands in the same
  association, so results match bit-for-bit.

**Phantom events.**  The scalar DAG loop pops its event heap *before*
checking staleness, so a spoliated (stale) completion still anchors the
next window even though it retires nothing.  The batch engine keeps a
tiny per-row heap of these stale times and anchors each row's window at
``min(live completions, phantom events)`` — without it, batch and
scalar windows drift apart after the first spoliation.  The scalar
*independent* loop skips stale events at the pop instead, so the
independent wrapper runs with phantoms disabled.

Ready-queue layout is the kernel's business: HeteroPrio keeps the
static affinity order (a two-ended window for independent rows, a
membership mask for DAG rows) — see :mod:`repro.simulator.batch_policies`.

Placements are recorded append-only into flat preallocated arrays in
global chronological order; because each row's records land in its own
chronological order too, one *stable* argsort by row recovers the scalar
loop's exact per-row placement-append order.  The sort is lazy — batch
consumers that only need makespans (order-free maxima) never pay for it.
"""

from __future__ import annotations

import heapq
import time as _time
from typing import Sequence

import numpy as np

from repro.core.heteroprio import SpoliationEvent
from repro.core.platform import Platform, ResourceKind, Worker
from repro.core.schedule import Schedule, TIME_EPS
from repro.core.task import Task
from repro.dag.compiled import CompiledGraph, _ragged_gather
from repro.simulator.batch_policies import HeteroPrioKernel
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
        default_tasks: tuple[Task, ...] | None,
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
        self._default_tasks = default_tasks
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

    def _task_objects(self, tasks: Sequence[Task] | None) -> Sequence[Task]:
        objs = self._default_tasks if tasks is None else tasks
        if objs is None:
            raise ValueError(
                "this batch recorded no shared Task objects; pass tasks=..."
            )
        return objs

    def schedule(self, i: int, tasks: Sequence[Task] | None = None) -> Schedule:
        """Materialize row *i* as a :class:`Schedule`.

        ``tasks`` maps task indices to :class:`Task` objects (defaults
        to the tasks the batch was built from, when shared).  Placement
        order is the scalar loop's append order, so list-order-sensitive
        consumers (metric sums, ``Schedule.tasks()``) see identical
        output.
        """
        task_objs = self._task_objects(tasks)
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
            add(task_objs[t], row_workers[s], start, end=end, aborted=aborted)
        return schedule

    def spoliations(
        self, i: int, tasks: Sequence[Task] | None = None
    ) -> list[SpoliationEvent]:
        """Row *i*'s spoliation events, in chronological order."""
        task_objs = self._task_objects(tasks)
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
                task=task_objs[int(t)],
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
    """The shared lockstep core; see the module docstring for the model."""

    def __init__(
        self,
        *,
        cpu: np.ndarray,
        gpu: np.ndarray,
        priority: np.ndarray,
        platforms: Sequence[Platform],
        kernel,
        succ_indptr: np.ndarray | None = None,
        succ_indices: np.ndarray | None = None,
        indegree: np.ndarray | None = None,
        anchor_stale: bool = False,
    ):
        B, n = cpu.shape
        self.B, self.n = B, n
        self.cpu = np.ascontiguousarray(cpu, dtype=np.float64)
        self.gpu = np.ascontiguousarray(gpu, dtype=np.float64)
        self.prio = np.ascontiguousarray(priority, dtype=np.float64)
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
        self.anchor_stale = anchor_stale

        self.static = succ_indptr is None
        if not self.static:
            self.succ_indptr = succ_indptr
            self.succ_indices = succ_indices
            self.indeg = np.ascontiguousarray(
                np.broadcast_to(indegree, (B, n)), dtype=np.int64
            )
            self.indeg_flat = self.indeg.reshape(-1)

        # Worker slot state; an idle slot has w_end == +inf.
        self.w_task = np.full((B, W), -1, dtype=np.int64)
        self.w_end = np.full((B, W), np.inf)
        self.w_start = np.zeros((B, W))
        self.w_seq = np.zeros((B, W), dtype=np.int64)
        self.seq_counter = np.zeros(B, dtype=np.int64)  # heap tiebreak order
        self.remaining = np.full(B, n, dtype=np.int64)
        self.first_idle = np.full(B, np.nan)
        #: per-row heaps of stale completion times (DAG anchor semantics)
        self.phantoms: dict[int, list[float]] = {}
        self.stats = SimStats()
        self._cols = np.arange(W, dtype=np.int64)
        self.records = _Records(B * n + B)
        self._sp_chunks: dict[str, list[np.ndarray]] = {
            "rows": [], "tasks": [], "vslots": [], "nslots": [],
            "times": [], "olds": [], "news": [],
        }
        #: reusable (B, W) scratch for the per-pass idle snapshot
        self._snap = np.empty((B, W), dtype=bool)

        self.kernel = kernel
        kernel.bind(self)
        if not self.static:
            # Sources are announced at t=0 like the scalar loop's first
            # announce — in (-priority, uid) order per row.
            rr, tt = np.nonzero(self.indeg == 0)
            self._announce(rr, tt, np.zeros(B))

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

    def _announce(self, rows: np.ndarray, tasks: np.ndarray, t: np.ndarray) -> None:
        """Hand newly ready tasks to the kernel in scalar announce order.

        The scalar loop announces ``sorted(ready, key=(-priority,
        uid))``; task uids ascend with task index in every batch layout,
        so the index is the uid tiebreak.
        """
        if rows.size == 0:
            return
        order = np.lexsort((tasks, -self.prio[rows, tasks], rows))
        self.kernel.on_ready(rows[order], tasks[order], t)

    # -- settle ------------------------------------------------------------

    def _settle(self, t: np.ndarray, rows_mask: np.ndarray) -> None:
        """Serve idle workers until no row makes progress.

        Mirrors the scalar settle structure: each *pass* snapshots a
        row's idle slots and hands them to the kernel, which serves
        each exactly once in service order (GPUs first); slots freed
        mid-pass (spoliation) wait for the next pass.  Rows that
        started nothing drop out; the loop ends when no row progresses
        — exactly the scalar ``while progress`` settle.
        """
        active = rows_mask
        snapshot = self._snap
        serve = self.kernel.serve_pass
        while active.any():
            np.isfinite(self.w_end, out=snapshot)
            np.logical_not(snapshot, out=snapshot)
            snapshot &= self.exists
            snapshot &= active[:, None]
            progress = np.zeros(self.B, dtype=bool)
            serve(t, snapshot, progress)
            active = progress

    # -- main loop ---------------------------------------------------------

    def run(self) -> None:
        started = _time.perf_counter()
        B, n = self.B, self.n
        stats = self.stats
        t = np.zeros(B)
        if n > 0:
            self._settle(t, self.remaining > 0)
        while True:
            act = self.remaining > 0
            if not act.any():
                break
            # Each row's window anchors at its earliest event — a live
            # completion or (DAG mode) a phantom stale event.
            t = self.w_end.min(axis=1)
            if self.phantoms:
                for b in list(self.phantoms):
                    if act[b] and self.phantoms[b][0] < t[b]:
                        t[b] = self.phantoms[b][0]
            stalled = act & ~np.isfinite(t)
            if stalled.any():
                raise RuntimeError(
                    f"policy stalled in batch run: {int(stalled.sum())} "
                    "row(s) left tasks unfinished with no executions in flight"
                )
            window = t + TIME_EPS
            if self.phantoms:
                for b in list(self.phantoms):
                    if not act[b]:
                        continue
                    heap = self.phantoms[b]
                    dropped = 0
                    while heap and heap[0] <= window[b]:
                        heapq.heappop(heap)
                        dropped += 1
                    if dropped:
                        stats.events += dropped
                        stats.stale_events += dropped
                    if not heap:
                        del self.phantoms[b]
            done = act[:, None] & (self.w_end <= window[:, None])
            rows, slots = np.nonzero(done)
            if rows.size == 0:
                continue  # a window anchored by phantoms alone
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
            if not self.static:
                s0 = self.succ_indptr[tasks]
                cnt = self.succ_indptr[tasks + 1] - s0
                if cnt.sum():
                    succ_t = self.succ_indices[_ragged_gather(s0, cnt)]
                    succ_r = np.repeat(rows, cnt)
                    flat = succ_r * n + succ_t
                    np.subtract.at(self.indeg_flat, flat, 1)
                    # A successor reaching indegree 0 matches for every
                    # one of its just-resolved edges, so dedupe only the
                    # (small) ready candidate set, not all of `flat`.
                    ready = np.unique(flat[self.indeg_flat[flat] == 0])
                    if ready.size:
                        ready_r = ready // n
                        ready_t = ready - ready_r * n
                        self._announce(ready_r, ready_t, t)
            settle_rows = np.zeros(B, dtype=bool)
            settle_rows[urows] = True
            settle_rows &= self.remaining > 0
            if settle_rows.any():
                self._settle(t, settle_rows)
        stats.events = int(stats.events)
        stats.tasks = int(stats.tasks)
        stats.picks = int(stats.picks)
        stats.wall_s = _time.perf_counter() - started

    # -- result ------------------------------------------------------------

    def finalize(self, default_tasks: tuple[Task, ...] | None) -> BatchResult:
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
            default_tasks=default_tasks,
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
    priorities: np.ndarray | None = None,
    spoliation: bool = True,
    migration: str = "spoliation",
) -> BatchResult:
    """Run HeteroPrio on a ``(B, n)`` batch of independent-task instances.

    Bit-identical to per-row
    :func:`repro.core.heteroprio.heteroprio_schedule`
    (``compute_ns=False``) with the same migration mode.  The
    ``"preemption"`` migration mode keeps partial progress per victim
    and is inherently sequential — callers fall back to the scalar loop.
    """
    cpu = np.ascontiguousarray(cpu_times, dtype=np.float64)
    gpu = np.ascontiguousarray(gpu_times, dtype=np.float64)
    if cpu.ndim != 2 or cpu.shape != gpu.shape:
        raise ValueError("cpu_times/gpu_times must be matching (B, n) arrays")
    mode = migration if spoliation else "none"
    if mode == "preemption":
        raise NotImplementedError(
            "preemption migration is sequential per instance; use the scalar loop"
        )
    B, _ = cpu.shape
    prio = (
        np.zeros_like(cpu)
        if priorities is None
        else np.ascontiguousarray(np.broadcast_to(priorities, cpu.shape))
    )
    engine = _LockstepEngine(
        cpu=cpu,
        gpu=gpu,
        priority=prio,
        platforms=_as_platforms(platforms, B),
        kernel=HeteroPrioKernel(
            migrate=mode == "spoliation", victim_rule="completion"
        ),
        anchor_stale=False,
    )
    engine.run()
    # Rows are distinct instances with distinct Task objects; callers
    # pass their own task list to BatchResult.schedule(i, tasks=...).
    return engine.finalize(None)


def batch_simulate_dag(
    graph: CompiledGraph,
    platforms: Platform | Sequence[Platform],
    priorities: np.ndarray,
    *,
    cpu_times: np.ndarray | None = None,
    gpu_times: np.ndarray | None = None,
    spoliation: bool = True,
    victim_rule: str = "priority",
) -> BatchResult:
    """Run online HeteroPrio on a batch sharing one graph structure.

    ``priorities`` is ``(B, n)`` (one priority vector per row — e.g. one
    ranking scheme per row); ``cpu_times``/``gpu_times`` default to the
    graph's own durations broadcast across the batch, or may be
    ``(B, n)`` per-row samples (noise sweeps over one structure).
    Bit-identical to :func:`repro.simulator.simulate` with a
    :class:`~repro.schedulers.online.heteroprio.HeteroPrioPolicy` of the
    same ``spoliation``/``victim_rule`` per row.
    """
    prio = np.atleast_2d(np.asarray(priorities, dtype=np.float64))
    B, n = prio.shape
    if n != len(graph):
        raise ValueError("priorities second axis must match graph size")
    cpu = graph.cpu_times if cpu_times is None else np.asarray(cpu_times)
    gpu = graph.gpu_times if gpu_times is None else np.asarray(gpu_times)
    cpu = np.ascontiguousarray(np.broadcast_to(cpu, (B, n)), dtype=np.float64)
    gpu = np.ascontiguousarray(np.broadcast_to(gpu, (B, n)), dtype=np.float64)
    engine = _LockstepEngine(
        cpu=cpu,
        gpu=gpu,
        priority=prio,
        platforms=_as_platforms(platforms, B),
        kernel=HeteroPrioKernel(migrate=spoliation, victim_rule=victim_rule),
        succ_indptr=graph.succ_indptr,
        succ_indices=graph.succ_indices,
        indegree=np.diff(graph.pred_indptr),
        anchor_stale=True,
    )
    engine.run()
    default = graph.tasks if cpu_times is None and gpu_times is None else None
    return engine.finalize(default)
