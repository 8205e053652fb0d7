"""Lockstep batch execution of the offline independent-task schedulers.

The campaign's Figure-6 pipeline runs :func:`repro.schedulers.heft` and
:func:`repro.schedulers.dualhp` once per seed; a seed sweep is a ``(B, n)``
grid of instances that differ only in their duration samples.  This module
advances the whole grid at once: per-class worker loads live in ``(B, m)`` /
``(B, n_gpu)`` arrays and every scalar decision — ranked earliest-finish
selection for HEFT, the dual-approximation pack rules and binary search for
DualHP — becomes a masked vector operation across the batch.

Bit-identity with the scalar schedulers is load-bearing (the campaign cache
stores batch and scalar payloads under the same keys), and rests on the same
toolkit as :mod:`repro.simulator.batch`: identical IEEE-754 operands combined
by identical operations in an identical order produce identical floats.
``np.argmin`` over padded per-class load arrays reproduces the dict-``min`` /
heap tie-breaks (first occurrence == lowest within-class worker index);
``np.lexsort`` with negated keys reproduces the scalar ``sorted(...)`` rank
orders (task position stands in for ``uid``, which is monotone in instance
order for every campaign generator); ``np.cumsum`` along the task axis
reproduces the sequential ``sum()`` of ``Instance.total_*_work``; and
``np.where``/``np.maximum`` select an operand exactly rather than computing a
new value.  ``tests/test_batch_differential.py`` pins both schedulers
placement-for-placement against the scalar loops.

Deliberately imports nothing from the scalar scheduler modules so the
campaign salt closure of a batch entry stays minimal (see
``repro.campaign.salts``); the duplicated constants below are tripwired
against their scalar twins by the differential suite.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.platform import Platform, Worker
from repro.core.schedule import Schedule
from repro.core.task import Task

__all__ = ["BatchScheduleResult", "batch_heft_schedule", "batch_dualhp_schedule"]

#: Relative precision of the DualHP binary search.  Must equal
#: ``repro.schedulers.dualhp.SEARCH_RTOL`` (tripwired by the differential
#: suite); duplicated so this module's salt closure stays scalar-free.
SEARCH_RTOL = 1e-9


class BatchScheduleResult:
    """Outcome of one offline lockstep batch run.

    ``makespans`` is available immediately; :meth:`schedule` materializes
    one row's :class:`Schedule` on demand, in the scalar scheduler's exact
    placement-append order, with values converted to Python floats.
    DualHP results also carry the accepted guesses ``lams``.
    """

    def __init__(
        self,
        *,
        platforms: tuple[Platform, ...],
        makespans: np.ndarray,
        rec_tasks: np.ndarray,
        rec_slots: np.ndarray,
        rec_starts: np.ndarray,
        rec_ends: np.ndarray,
        lams: np.ndarray | None = None,
    ):
        self.platforms = platforms
        #: Tasks per row (every row schedules the same count).
        self.n_tasks = int(rec_tasks.shape[1])
        #: (B,) float64 makespans.
        self.makespans = makespans
        #: (B,) float64 accepted DualHP guesses (``None`` for HEFT).
        self.lams = lams
        self._rec_tasks = rec_tasks
        self._rec_slots = rec_slots
        self._rec_starts = rec_starts
        self._rec_ends = rec_ends

    def __len__(self) -> int:
        return len(self.platforms)

    def schedule(self, i: int, tasks: Sequence[Task]) -> Schedule:
        """Materialize row *i* against its :class:`Task` objects.

        ``tasks`` maps task indices (instance order) to objects; slot
        ``s`` maps to the ``s``-th worker of ``platform.workers()``
        (CPUs first, then GPUs — each ascending by index).
        """
        platform = self.platforms[i]
        workers = tuple(platform.workers())
        schedule = Schedule(platform)
        add = schedule.add
        for t, s, start, end in zip(
            self._rec_tasks[i].tolist(),
            self._rec_slots[i].tolist(),
            self._rec_starts[i].tolist(),
            self._rec_ends[i].tolist(),
        ):
            add(tasks[t], workers[s], start, end=end)
        return schedule


def _as_platforms(
    platforms: Platform | Sequence[Platform], batch: int
) -> tuple[Platform, ...]:
    if isinstance(platforms, Platform):
        return (platforms,) * batch
    out = tuple(platforms)
    if len(out) != batch:
        raise ValueError(f"expected {batch} platforms, got {len(out)}")
    return out


def _check_times(cpu_times: np.ndarray, gpu_times: np.ndarray):
    cpu = np.ascontiguousarray(cpu_times, dtype=np.float64)
    gpu = np.ascontiguousarray(gpu_times, dtype=np.float64)
    if cpu.ndim != 2 or cpu.shape != gpu.shape:
        raise ValueError("cpu_times/gpu_times must be matching (B, n) arrays")
    return cpu, gpu


def _class_loads(platforms: tuple[Platform, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Padded per-class load arrays, ``inf`` on non-existent workers.

    Real loads stay finite, so a padded slot never wins an ``argmin`` and
    ``inf + duration <= limit`` never packs — no masking needed later.
    """
    B = len(platforms)
    m_max = max(p.num_cpus for p in platforms)
    n_max = max(p.num_gpus for p in platforms)
    cpu_loads = np.full((B, max(m_max, 1)), np.inf)
    gpu_loads = np.full((B, max(n_max, 1)), np.inf)
    for i, p in enumerate(platforms):
        cpu_loads[i, : p.num_cpus] = 0.0
        gpu_loads[i, : p.num_gpus] = 0.0
    return cpu_loads, gpu_loads


def batch_heft_schedule(
    cpu_times: np.ndarray,
    gpu_times: np.ndarray,
    platforms: Platform | Sequence[Platform],
    *,
    priorities: np.ndarray | None = None,
    rank: str = "avg",
) -> BatchScheduleResult:
    """Ranked earliest-finish HEFT over a ``(B, n)`` batch of instances.

    Bit-identical to per-row :func:`repro.schedulers.heft.heft_schedule`:
    rows process tasks by decreasing rank (resource-count-weighted average
    for ``"avg"``, ``min(p, q)`` for ``"min"``; priority then instance
    position break ties) and assign each to the worker with the least
    ``(load + duration, CPUs before GPUs, index)``.
    """
    cpu, gpu = _check_times(cpu_times, gpu_times)
    B, n = cpu.shape
    platforms = _as_platforms(platforms, B)
    prio = (
        np.zeros_like(cpu)
        if priorities is None
        else np.ascontiguousarray(np.broadcast_to(priorities, cpu.shape))
    )

    mc = np.array([p.num_cpus for p in platforms], dtype=np.float64)[:, None]
    nc = np.array([p.num_gpus for p in platforms], dtype=np.float64)[:, None]
    if rank == "avg":
        weight = (mc * cpu + nc * gpu) / (mc + nc)
    elif rank == "min":
        weight = np.minimum(cpu, gpu)
    else:
        raise ValueError(f"rank {rank!r} does not define node weights")
    # sorted(key=(-weight, -priority, uid)): position stands in for uid.
    order = np.lexsort((np.broadcast_to(np.arange(n), cpu.shape), -prio, -weight))

    cpu_loads, gpu_loads = _class_loads(platforms)
    has_cpu = mc[:, 0] > 0
    m_off = np.array([p.num_cpus for p in platforms], dtype=np.int64)

    rec_slots = np.zeros((B, n), dtype=np.int64)
    rec_starts = np.zeros((B, n))
    rec_ends = np.zeros((B, n))
    makespans = np.zeros(B)
    rows = np.arange(B)

    for k in range(n):
        tk = order[:, k]
        dc = cpu[rows, tk]
        dg = gpu[rows, tk]
        # Per class: least (load + duration, index).  Ties on *finish*
        # (not load) — two loads can round to the same finish — exactly
        # as LoadHeap.best_finish compares.
        fin_c = cpu_loads + dc[:, None]
        fin_g = gpu_loads + dg[:, None]
        slot_c = np.argmin(fin_c, axis=1)
        slot_g = np.argmin(fin_g, axis=1)
        best_c = fin_c[rows, slot_c]
        best_g = fin_g[rows, slot_g]
        # Cross-class key is (finish, CPUs-before-GPUs, index): the GPU
        # class wins only on a strictly smaller finish (or no CPUs).
        g = np.isfinite(best_g) & (~has_cpu | (best_g < best_c))
        start = np.where(g, gpu_loads[rows, slot_g], cpu_loads[rows, slot_c])
        end = np.where(g, best_g, best_c)
        gr = rows[g]
        cr = rows[~g]
        gpu_loads[gr, slot_g[g]] = best_g[g]
        cpu_loads[cr, slot_c[~g]] = best_c[~g]
        rec_slots[:, k] = np.where(g, m_off + slot_g, slot_c)
        rec_starts[:, k] = start
        rec_ends[:, k] = end
        makespans = np.maximum(makespans, end)

    return BatchScheduleResult(
        platforms=platforms,
        makespans=makespans,
        rec_tasks=order,
        rec_slots=rec_slots,
        rec_starts=rec_starts,
        rec_ends=rec_ends,
    )


# -- DualHP -------------------------------------------------------------------


def _batch_bounds(
    cpu: np.ndarray, gpu: np.ndarray, platforms: tuple[Platform, ...]
) -> np.ndarray:
    """Per-row ``makespan_lower_bound``: ``max(area bound, min-time bound)``.

    The mixed-platform rows (``m == 0`` or ``n == 0``) take the scalar
    closed forms verbatim (1-D ``.sum()`` per row, preserving numpy's
    pairwise reduction on exactly the operand the scalar code sums).
    """
    B, n_tasks = cpu.shape
    mc = np.array([p.num_cpus for p in platforms], dtype=np.float64)
    nc = np.array([p.num_gpus for p in platforms], dtype=np.float64)
    rows = np.arange(B)
    value = np.zeros(B)
    mtb = np.zeros(B)
    if n_tasks == 0:
        return value

    both = (mc > 0) & (nc > 0)
    for i in np.flatnonzero(mc == 0):
        value[i] = float(gpu[i].sum()) / platforms[i].num_gpus
        mtb[i] = np.max(gpu[i])
    for i in np.flatnonzero(nc == 0):
        value[i] = float(cpu[i].sum()) / platforms[i].num_cpus
        mtb[i] = np.max(cpu[i])
    if not both.any():
        return np.maximum(value, mtb)

    # The Lemma 2 threshold structure, row-vectorized: move tasks to the
    # GPU class by decreasing acceleration factor until the per-class
    # completion times cross, splitting at most one task fractionally.
    rho = cpu / gpu
    order = np.argsort(-rho, axis=1, kind="stable")
    p_s = np.take_along_axis(cpu, order, axis=1)
    q_s = np.take_along_axis(gpu, order, axis=1)
    zeros = np.zeros((B, 1))
    gpu_prefix = np.concatenate((zeros, np.cumsum(q_s, axis=1)), axis=1)
    cpu_suffix = np.concatenate(
        (np.cumsum(p_s[:, ::-1], axis=1)[:, ::-1], zeros), axis=1
    )
    safe_m = np.maximum(mc, 1.0)[:, None]
    safe_n = np.maximum(nc, 1.0)[:, None]
    g = gpu_prefix / safe_n
    c = cpu_suffix / safe_m
    k = np.argmax(g >= c, axis=1)
    gk = g[rows, k]
    ck = c[rows, k]
    simple = (gk == ck) | (k == 0)
    v_simple = np.where(gk >= ck, gk, ck)
    si = np.maximum(k - 1, 0)
    ps = p_s[rows, si]
    qs = q_s[rows, si]
    f = (nc * (cpu_suffix[rows, k] + ps) - mc * gpu_prefix[rows, si]) / (
        mc * qs + nc * ps
    )
    f = np.clip(f, 0.0, 1.0)
    v_split = (gpu_prefix[rows, si] + f * qs) / safe_n[:, 0]
    value = np.where(both, np.where(simple, v_simple, v_split), value)
    mtb = np.where(both, np.max(np.minimum(cpu, gpu), axis=1), mtb)
    return np.maximum(value, mtb)


class _BatchDualHPTrier:
    """One binary-search worker: vectorized ``dualhp_try`` over live rows.

    Holds the lam-independent state (phase sort orders, class geometry,
    initial class loads) so each guess costs only the phase loops.
    """

    def __init__(
        self,
        cpu: np.ndarray,
        gpu: np.ndarray,
        prio: np.ndarray,
        platforms: tuple[Platform, ...],
    ):
        self.cpu = cpu
        self.gpu = gpu
        pos = np.broadcast_to(np.arange(cpu.shape[1]), cpu.shape)
        # Forced phases and the leftover phase process tasks sorted by
        # (-priority, uid); the optional phase by (-acceleration,
        # -priority, uid).  Position stands in for uid.
        self.prio_order = np.lexsort((pos, -prio))
        self.acc_order = np.lexsort((pos, -prio, -(cpu / gpu)))
        self.cpu_loads, self.gpu_loads = _class_loads(platforms)
        self.has_cpu = np.array([p.num_cpus > 0 for p in platforms])
        self.has_gpu = np.array([p.num_gpus > 0 for p in platforms])

    def try_rows(
        self, rs: np.ndarray, lam: np.ndarray, record: "_DualHPRecorder | None" = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Feasibility of guess ``lam[j]`` for row ``rs[j]``, and its decision range.

        Mirrors ``dualhp_try`` phase for phase: forced-GPU and forced-CPU
        packs (any overflow is infeasible), the acceleration-ordered
        optional pack on the GPUs (overflow falls through), then the
        leftover pack on the CPUs.  Each phase first moves every row's
        members to the front of its order (rows already infeasible have
        none), so it steps only as far as its longest row.  With
        *record*, placements are logged in the scalar pack order.

        Only two kinds of comparison read the guess: the forced split
        ``d > lam`` over the row's durations, and each member's fit
        ``end <= 2.0 * lam``.  Every other step is a function of their
        outcomes, so any guess that gives every comparison the same
        outcome repeats the pack and its answer.  Column ``j`` of the
        returned ``(4, R)`` range holds ``split_lo``/``split_hi``, the
        largest duration ``<= lam`` and the smallest ``> lam``, and
        ``end_lo``/``end_hi``, the largest end that fit and the smallest
        that did not: :func:`_inside` tests a guess against them.
        """
        R = rs.size
        ar = np.arange(R)
        limit = 2.0 * lam
        lam_col = lam[:, None]
        cpu, gpu = self.cpu[rs], self.gpu[rs]
        cpu_loads, gpu_loads = self.cpu_loads[rs], self.gpu_loads[rs]
        has_cpu = self.has_cpu[rs][:, None]
        has_gpu = self.has_gpu[rs][:, None]

        forced_gpu = cpu > lam_col
        forced_cpu = gpu > lam_col
        split_lo = np.maximum(
            np.where(forced_gpu, -np.inf, cpu).max(axis=1),
            np.where(forced_cpu, -np.inf, gpu).max(axis=1),
        )
        split_hi = np.minimum(
            np.where(forced_gpu, cpu, np.inf).min(axis=1),
            np.where(forced_cpu, gpu, np.inf).min(axis=1),
        )
        end_lo = np.full(R, -np.inf)
        end_hi = np.full(R, np.inf)
        both = forced_gpu & forced_cpu
        forced_gpu &= ~both
        forced_cpu &= ~both
        optional = ~forced_gpu & ~forced_cpu & ~both
        infeasible = both.any(axis=1)
        infeasible |= (forced_gpu & ~has_gpu).any(axis=1)
        infeasible |= (forced_cpu & ~has_cpu).any(axis=1)
        po = self.prio_order[rs]
        ao = self.acc_order[rs]

        def pack(loads, member, order, dur):
            """Pack the members in order; returns ``(row, task)`` overflows."""
            tasks, valid = _compact(member & ~infeasible[:, None], order)
            # Off-member slots carry a zero duration: they rewrite a load
            # with itself and their outcome is masked out by *valid*.
            d = np.where(valid, np.take_along_axis(dur, tasks, axis=1), 0.0)
            fits = np.empty(tasks.shape, dtype=bool)
            ends = np.empty(tasks.shape)
            flat = loads.reshape(-1)  # a view: writes land in *loads*
            base = ar * loads.shape[1]
            for k in range(tasks.shape[1]):
                slot = loads.argmin(axis=1)  # least (load, index)
                at = base + slot
                old = flat.take(at)
                new = old + d[:, k]
                ok = new <= limit
                flat.put(at, np.where(ok, new, old))
                fits[:, k] = ok
                ends[:, k] = new
                if record is not None:
                    done = np.flatnonzero(ok & valid[:, k])
                    record.log(
                        rs[done], loads is gpu_loads, slot[done],
                        tasks[done, k], old[done], d[done, k],
                    )
            # Only members' ends bound the range: an off-member slot
            # leaves its load as it was at any guess, and how many a row
            # gets depends on the other rows of the call.
            over = valid & ~fits
            fit_ends = np.where(valid & fits, ends, -np.inf)
            np.maximum(end_lo, fit_ends.max(axis=1, initial=-np.inf), out=end_lo)
            over_ends = np.where(over, ends, np.inf)
            np.minimum(end_hi, over_ends.min(axis=1, initial=np.inf), out=end_hi)
            rows, cols = np.nonzero(over)
            return rows, tasks[rows, cols]

        infeasible[pack(gpu_loads, forced_gpu, po, gpu)[0]] = True
        infeasible[pack(cpu_loads, forced_cpu, po, cpu)[0]] = True
        # Optional tasks on rows without GPUs skip straight to leftover.
        leftover = optional & ~has_gpu
        leftover[pack(gpu_loads, optional & has_gpu, ao, gpu)] = True
        infeasible |= (leftover & ~has_cpu).any(axis=1)
        infeasible[pack(cpu_loads, leftover, po, cpu)[0]] = True
        return ~infeasible, np.stack((split_lo, split_hi, end_lo, end_hi))


def _inside(ranges: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Whether guess ``lam[j]`` lies in the decision range ``ranges[:, ..., j]``.

    The ends are compared against ``2.0 * lam``, the limit the pack
    itself computes, so membership is exact: no halving of an end can
    round.  A NaN bound holds no guess.
    """
    split_lo, split_hi, end_lo, end_hi = ranges
    limit = 2.0 * lam
    return (split_lo <= lam) & (lam < split_hi) & (end_lo <= limit) & (limit < end_hi)


def _compact(member: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's members, in *order*, moved to the front of the row.

    Returns the ``(R, k)`` task matrix, ``k`` the largest member count,
    and its ``(R, k)`` mask of real members; a stable sort keeps each
    row's members in phase order.
    """
    in_order = np.take_along_axis(member, order, axis=1)
    counts = in_order.sum(axis=1)
    width = int(counts.max()) if counts.size else 0
    first = np.argsort(~in_order, axis=1, kind="stable")[:, :width]
    valid = np.arange(width) < counts[:, None]
    return np.take_along_axis(order, first, axis=1), valid


class _DualHPRecorder:
    """Per-row placement log filled during the accepting ``try_rows``."""

    def __init__(self, B: int, n: int, m_off: np.ndarray):
        self.tasks = np.zeros((B, n), dtype=np.int64)
        self.slots = np.zeros((B, n), dtype=np.int64)
        self.starts = np.zeros((B, n))
        self.ends = np.zeros((B, n))
        self.ptr = np.zeros(B, dtype=np.int64)
        self.m_off = m_off
        self.makespans = np.zeros(B)

    def log(self, rows, on_gpu, slots, tasks, starts, durations):
        pp = self.ptr[rows]
        self.tasks[rows, pp] = tasks
        self.slots[rows, pp] = self.m_off[rows] + slots if on_gpu else slots
        self.starts[rows, pp] = starts
        ends = starts + durations
        self.ends[rows, pp] = ends
        self.ptr[rows] = pp + 1
        np.maximum.at(self.makespans, rows, ends)


def batch_dualhp_schedule(
    cpu_times: np.ndarray,
    gpu_times: np.ndarray,
    platforms: Platform | Sequence[Platform],
    *,
    priorities: np.ndarray | None = None,
    rtol: float = SEARCH_RTOL,
) -> BatchScheduleResult:
    """Dual-approximation DualHP over a ``(B, n)`` batch of instances.

    Bit-identical to per-row
    :func:`repro.schedulers.dualhp.dualhp_schedule`: every row runs the
    same binary search on its own guess ``lambda`` — same lower/upper
    seeds from the area and work bounds, same midpoints, same accepted
    guess — and the final schedule replays ``dualhp_try`` at the accepted
    guess.  Rows converge independently; finished rows drop out of the
    masked iterations.  A midpoint inside the decision range of the row's
    last feasible or last infeasible pack takes that pack's answer
    unpacked (see :meth:`_BatchDualHPTrier.try_rows`).
    """
    cpu, gpu = _check_times(cpu_times, gpu_times)
    B, n = cpu.shape
    platforms = _as_platforms(platforms, B)
    prio = (
        np.zeros_like(cpu)
        if priorities is None
        else np.ascontiguousarray(np.broadcast_to(priorities, cpu.shape))
    )
    m_off = np.array([p.num_cpus for p in platforms], dtype=np.int64)
    if n == 0:
        empty = np.zeros((B, 0))
        return BatchScheduleResult(
            platforms=platforms,
            makespans=np.zeros(B),
            rec_tasks=np.zeros((B, 0), dtype=np.int64),
            rec_slots=np.zeros((B, 0), dtype=np.int64),
            rec_starts=empty,
            rec_ends=empty.copy(),
            lams=np.zeros(B),
        )

    bound = _batch_bounds(cpu, gpu, platforms)
    lo = bound / 2.0
    # hi = max(lower bound, per-class average work, largest min-time);
    # total_*_work is a sequential Python sum, hence the cumsum tail.
    mc = np.array([p.num_cpus for p in platforms], dtype=np.float64)
    nc = np.array([p.num_gpus for p in platforms], dtype=np.float64)
    cpu_avg = np.where(mc > 0, np.cumsum(cpu, axis=1)[:, -1] / np.maximum(mc, 1.0), 0.0)
    gpu_avg = np.where(nc > 0, np.cumsum(gpu, axis=1)[:, -1] / np.maximum(nc, 1.0), 0.0)
    max_min = np.max(np.minimum(cpu, gpu), axis=1)
    hi = np.maximum(np.maximum(bound, cpu_avg), np.maximum(gpu_avg, max_min))

    trier = _BatchDualHPTrier(cpu, gpu, prio, platforms)
    # Per row, the decision ranges of its last infeasible (index 0) and
    # last feasible (index 1) pack; NaN until there is one.
    held = np.full((4, 2, B), np.nan)

    def pack(rs: np.ndarray, lam: np.ndarray) -> np.ndarray:
        ok, ranges = trier.try_rows(rs, lam)
        held[:, ok.astype(np.intp), rs] = ranges
        return ok

    rows = np.arange(B)
    feasible = pack(rows, hi)
    while not feasible.all():  # pragma: no cover - degenerate platforms
        bad = np.flatnonzero(~feasible)
        hi[bad] *= 2.0
        feasible[bad] = pack(bad, hi[bad])
    active = (hi - lo) > rtol * np.maximum(hi, 1.0)
    while active.any():
        mid = 0.5 * (lo + hi)
        # A midpoint inside a held range repeats that pack's answer.
        # Rows step on those answers alone until every active row needs
        # a real pack; then one call packs them all.
        known = _inside(held, mid) & active
        step = known[0] | known[1]
        ok = known[1]
        if not step.any():
            step = active
            ok = np.zeros(B, dtype=bool)
            rs = np.flatnonzero(active)
            ok[rs] = pack(rs, mid[rs])
        hi = np.where(step & ok, mid, hi)
        lo = np.where(step & ~ok, mid, lo)
        active = (hi - lo) > rtol * np.maximum(hi, 1.0)

    recorder = _DualHPRecorder(B, n, m_off)
    trier.try_rows(rows, hi, record=recorder)
    return BatchScheduleResult(
        platforms=platforms,
        makespans=recorder.makespans,
        rec_tasks=recorder.tasks,
        rec_slots=recorder.slots,
        rec_starts=recorder.starts,
        rec_ends=recorder.ends,
        lams=hi,
    )
