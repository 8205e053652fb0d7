"""The array-level HeteroPrio kernel of the lockstep batch engine.

The engine (:class:`repro.simulator.batch._LockstepEngine`) owns the
shared ``(B, n)`` dependency/worker-slot state and the settle-pass
structure; the *kernel* owns everything policy-specific — the ready
queue and spoliation — and expresses each decision the scalar policy
makes as a masked vector operation over the whole batch.

The kernel contract (duck-typed; the engine never imports policy
classes):

``bind(engine)``
    Allocate per-batch state against the engine's arrays.
``on_ready(rows, tasks, t)``
    Newly ready tasks, flat and grouped by row, each row's group in the
    scalar announce order (``(-priority, uid)`` — the engine pre-sorts).
``serve_pass(t, snapshot, progress)``
    One settle pass: ``snapshot`` is the boolean ``(B, W)`` mask of
    slots idle at pass start; serve each at most once, start work via
    ``engine._start``, and set ``progress[b]`` for rows that started
    anything (the engine re-passes those rows).

:class:`HeteroPrioKernel` is **bit-identical** to the scalar loops
(``tests/test_batch_differential.py`` pins placements, makespans,
spoliations and ``SimStats`` event-for-event).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.heteroprio import batch_queue_order
from repro.core.schedule import TIME_EPS

__all__ = ["HeteroPrioKernel"]


class HeteroPrioKernel:
    """HeteroPrio affinity queues + spoliation as array kernels.

    The queue is the static acceleration-factor order
    (:func:`repro.core.heteroprio.batch_queue_order`); independent rows
    pop from the two ends of a fixed window (O(1) pointers), DAG rows
    keep a boolean membership mask in sorted-position space and locate
    the ends with banded argmax.  Spoliation polls mirror the scalar
    victim rules exactly — see :meth:`_try_spoliate`.
    """

    def __init__(self, *, migrate: bool = True, victim_rule: str = "priority"):
        self.migrate = migrate
        self.victim_rule = victim_rule

    def bind(self, engine) -> None:
        self.e = e = engine
        B, n = e.B, e.n
        self.order = batch_queue_order(e.cpu, e.gpu, e.prio)
        self.static_queue = e.static
        if self.static_queue:
            # Independent tasks: the queue only ever shrinks from its two
            # ends, so a [front, back] window is enough.
            self.front = np.zeros(B, dtype=np.int64)
            self.back = np.full(B, n - 1, dtype=np.int64)
        else:
            self.pos = np.empty((B, n), dtype=np.int64)
            np.put_along_axis(
                self.pos,
                self.order,
                np.broadcast_to(np.arange(n, dtype=np.int64), (B, n)),
                axis=1,
            )
            self.qmask = np.zeros((B, n), dtype=bool)
            self.qcount = np.zeros(B, dtype=np.int64)
            # Live-band hints: every queued position of row b lies in
            # [qlo[b], qhi[b]].  The band tightens as the two ends are
            # popped and re-widens on insertion, so the end-of-queue
            # argmax scans only the active band instead of all n slots.
            self.qlo = np.full(B, n, dtype=np.int64)
            self.qhi = np.full(B, -1, dtype=np.int64)

    def on_ready(self, rows: np.ndarray, tasks: np.ndarray, t: np.ndarray) -> None:
        if self.static_queue or rows.size == 0:
            return
        pp = self.pos[rows, tasks]
        self.qmask[rows, pp] = True
        np.add.at(self.qcount, rows, 1)
        np.minimum.at(self.qlo, rows, pp)
        np.maximum.at(self.qhi, rows, pp)

    # -- queue primitives --------------------------------------------------

    def _pop_queue(
        self, rows: np.ndarray, gpu_side: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pop each row's queue from the CPU or GPU end; returns task ids."""
        e = self.e
        if self.static_queue:
            posv = np.where(gpu_side, self.back[rows], self.front[rows])
            tasks = self.order[rows, posv]
            self.back[rows[gpu_side]] -= 1
            self.front[rows[~gpu_side]] += 1
        else:
            lo = int(self.qlo[rows].min())
            hi = int(self.qhi[rows].max()) + 1
            sub = self.qmask[rows, lo:hi]  # (K, band) — argmax both ends
            fpos = sub.argmax(axis=1) + lo
            bpos = (hi - 1) - sub[:, ::-1].argmax(axis=1)
            posv = np.where(gpu_side, bpos, fpos)
            tasks = self.order[rows, posv]
            self.qmask[rows, posv] = False
            self.qcount[rows] -= 1
            # Rows in one call are distinct, so each hint moves once.
            self.qlo[rows[~gpu_side]] = fpos[~gpu_side] + 1
            self.qhi[rows[gpu_side]] = bpos[gpu_side] - 1
        durations = np.where(gpu_side, e.gpu[rows, tasks], e.cpu[rows, tasks])
        return tasks, durations

    def _queue_nonempty(self, rows: np.ndarray) -> np.ndarray:
        if self.static_queue:
            return self.front[rows] <= self.back[rows]
        return self.qcount[rows] > 0

    # -- spoliation --------------------------------------------------------

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

        Victim choice mirrors the scalar rules exactly: among running
        executions on the *other* resource class that the polling worker
        would finish strictly earlier (``now + new_time < end -
        TIME_EPS``), pick by maximal priority then latest completion
        (``victim_rule="priority"``, the DAG policy) or latest
        completion then maximal priority (``"completion"``, the
        independent loop), tie-broken by smallest task index.  The
        successive masked-max filters below implement that lexicographic
        choice; the exact float ``==`` against the column max selects
        ties, not approximate equality, which is why no epsilon belongs
        there.
        """
        e = self.e
        sub_end = e.w_end[rows]  # (K, W)
        sub_task = e.w_task[rows]
        running = e.exists[rows] & np.isfinite(sub_end)
        other = running & (e.is_gpu[rows] != gpu_side[:, None])
        if not other.any():
            return np.zeros(rows.size, dtype=bool)
        safe_task = np.where(other, sub_task, 0)
        rows_col = rows[:, None]
        new_time = np.where(
            gpu_side[:, None],
            e.gpu[rows_col, safe_task],
            e.cpu[rows_col, safe_task],
        )
        improving = other & (t[rows][:, None] + new_time < sub_end - TIME_EPS)
        found = improving.any(axis=1)
        if not found.any():
            return found
        fr = np.flatnonzero(found)
        imp = improving[fr]
        stc = safe_task[fr]
        k_prio = np.where(imp, e.prio[rows[fr][:, None], stc], -np.inf)
        k_end = np.where(imp, sub_end[fr], -np.inf)
        if self.victim_rule == "priority":
            k1, k2 = k_prio, k_end
        else:
            k1, k2 = k_end, k_prio
        m1 = k1.max(axis=1)
        tie1 = imp & (k1 == m1[:, None])
        k2m = np.where(tie1, k2, -np.inf)
        m2 = k2m.max(axis=1)
        tie2 = tie1 & (k2m == m2[:, None])
        cand_idx = np.where(tie2, stc, e.n)
        vtask = cand_idx.min(axis=1)
        vcol = (tie2 & (stc == vtask[:, None])).argmax(axis=1)

        rr = rows[fr]
        ss = slots[fr]
        ar = np.arange(fr.size)
        vend = sub_end[fr][ar, vcol]
        vstart = e.w_start[rr, vcol]
        ndur = new_time[fr][ar, vcol]
        now = t[rr]

        e.records.append(rr, vcol, vtask, vstart, now, True)
        sp = e._sp_chunks
        sp["rows"].append(rr)
        sp["tasks"].append(vtask)
        sp["vslots"].append(vcol)
        sp["nslots"].append(ss)
        sp["times"].append(now)
        sp["olds"].append(vend)
        sp["news"].append(now + ndur)

        e.w_end[rr, vcol] = np.inf
        e.w_task[rr, vcol] = -1
        e.stats.aborts += int(rr.size)
        if e.anchor_stale:
            # The scalar DAG loop leaves the victim's old completion in
            # its heap and lets it anchor a (possibly empty) window.
            for b, end in zip(rr.tolist(), vend.tolist()):
                heapq.heappush(e.phantoms.setdefault(b, []), end)
        e._start(rr, ss, vtask, now, ndur)
        progress[rr] = True
        return found

    # -- settle pass -------------------------------------------------------

    def serve_pass(
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
        e = self.e
        cols = e._cols
        is_gpu = e.is_gpu
        ptr = np.zeros(e.B, dtype=np.int64)
        dead_cpu = np.zeros(e.B, dtype=bool)
        dead_gpu = np.zeros(e.B, dtype=bool)
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
            e.stats.picks += rset.size
            gpu_side = is_gpu[rset, svec]
            has_queue = self._queue_nonempty(rset)
            if has_queue.any():
                sel = np.flatnonzero(has_queue)
                pr, ps, pg = rset[sel], svec[sel], gpu_side[sel]
                tasks, durations = self._pop_queue(pr, pg)
                e._start(pr, ps, tasks, t[pr], durations)
                progress[pr] = True
            if not has_queue.all():
                sel = np.flatnonzero(~has_queue)
                er, es, eg = rset[sel], svec[sel], gpu_side[sel]
                unset = np.isnan(e.first_idle[er])
                if unset.any():
                    e.first_idle[er[unset]] = t[er[unset]]
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
                    e.stats.picks += int(skipped.sum())
            ptr[rset] = svec + 1
