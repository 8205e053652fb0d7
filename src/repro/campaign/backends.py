"""The work-stealing fabric that runs a campaign's cache misses.

:func:`~repro.campaign.executor.run_campaign` plans its cache misses
into :class:`WorkUnit` values — one lockstep batch group or one scalar
spec each — and hands every unit to :func:`run_work_stealing`:

* at one job (or one unit) the units run inline in the parent, in plan
  order: the bit-for-bit serial reference path;
* above one job they flow through a deque-per-worker fabric coordinated
  by the parent: units are dealt round-robin into per-worker deques,
  each worker pulls its next unit from the head of its own deque, and
  an idle worker **steals from the tail of the longest other deque**
  (ties to the lowest worker id — deterministic victim choice).  Batch
  groups stay intact as single steal units, so stealing never splits a
  lockstep batch.  Because every unit's result is keyed by ``unit_id``
  and merged by the parent, scheduling order — and therefore worker
  count — cannot change any payload: output is bit-identical to the
  inline path at any ``jobs``.

The fabric prefers the ``fork`` start method (workers inherit the
process-global graph store); under ``spawn`` it re-installs the store
from the handle shipped with the worker args.
"""

from __future__ import annotations

import collections
import multiprocessing
import signal
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (executor imports us)
    from repro.campaign.spec import InstanceSpec

__all__ = ["UnitResult", "WorkUnit", "run_work_stealing"]


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable quantum of campaign work.

    *indices* point into the planner's miss-spec list; *batched* marks
    a lockstep batch group (kept whole — batch groups are the steal
    granularity, never split across workers).
    """

    unit_id: int
    indices: Tuple[int, ...]
    specs: Tuple["InstanceSpec", ...]
    batched: bool


@dataclass
class UnitResult:
    """What executing one :class:`WorkUnit` produced.

    ``batched`` records whether the lockstep engine actually ran it —
    ``False`` on a batch unit means the engine declined at run time and
    the specs took the scalar path (telemetry: ``fallback_runtime``).
    """

    unit_id: int
    payloads: list = field(default_factory=list)
    elapsed: list = field(default_factory=list)
    batched: bool = False


def _mp_context() -> Any:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _exit_on_sigterm(signum: int, frame: object) -> None:
    raise SystemExit(128 + signum)


def _ws_worker(
    worker_id: int,
    inq: Any,
    outq: Any,
    store_root: str | None,
    store_salt: str,
) -> None:
    """Worker loop: pull a unit, execute, push the result; ``None`` stops.

    Top-level (not a closure) so the fabric works under ``spawn`` too;
    the executor import is deferred to the worker body to keep the
    backends module import-light and cycle-free.
    """
    from repro.campaign.executor import ensure_graph_store, execute_unit

    # The parent stops workers with SIGTERM.  Exiting through Python lets
    # a graph-store write cut short remove its temp file.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if store_root is not None:
        ensure_graph_store(store_root, salt=store_salt)
    while True:
        unit = inq.get()
        if unit is None:
            return
        try:
            result = execute_unit(unit)
        except BaseException as exc:  # ship the failure to the parent
            try:
                outq.put((worker_id, "err", exc))
            except Exception:
                outq.put((worker_id, "err", RuntimeError(repr(exc))))
            return
        outq.put((worker_id, "ok", result))


def _steal(
    deques: Sequence["collections.deque[WorkUnit]"], worker_id: int
) -> tuple[WorkUnit | None, bool]:
    """Next unit for *worker_id*: own head, else the longest victim's tail.

    Returns ``(unit, stolen)``; ``(None, False)`` when the fabric is
    drained.  Victim choice is deterministic (max length, lowest id) so
    runs are reproducible — though correctness never depends on it.
    """
    own = deques[worker_id]
    if own:
        return own.popleft(), False
    victim = -1
    longest = 0
    for i, dq in enumerate(deques):
        if i != worker_id and len(dq) > longest:
            victim, longest = i, len(dq)
    if victim < 0:
        return None, False
    return deques[victim].pop(), True


def run_work_stealing(
    units: Iterable[WorkUnit],
    *,
    jobs: int,
    store_root: str | None = None,
    store_salt: str = "",
    counters: Dict[str, int] | None = None,
) -> Iterator[UnitResult]:
    """Execute *units* over the work-stealing fabric; yield results.

    Results arrive in completion order (the caller merges by
    ``unit_id``).  One job — or one unit — degenerates to the inline
    serial loop, in plan order.  A worker error terminates every worker
    before it re-raises here.  When the consumer raises instead, the
    workers live until this generator is closed, so a consumer must
    close it on every exit (``run_campaign`` does, with
    :func:`contextlib.closing`); ``counters['steals']`` is filled in
    either way.
    """
    unit_list = list(units)
    workers = max(1, min(int(jobs), len(unit_list)))
    steals = 0
    try:
        if workers <= 1:
            from repro.campaign.executor import execute_unit

            for unit in unit_list:
                yield execute_unit(unit)
            return

        ctx = _mp_context()
        deques: list["collections.deque[WorkUnit]"] = [
            collections.deque() for _ in range(workers)
        ]
        for i, unit in enumerate(unit_list):
            deques[i % workers].append(unit)
        inqs = [ctx.SimpleQueue() for _ in range(workers)]
        outq = ctx.SimpleQueue()
        procs = [
            ctx.Process(
                target=_ws_worker,
                args=(i, inqs[i], outq, store_root, store_salt),
                daemon=True,
            )
            for i in range(workers)
        ]
        try:
            for proc in procs:
                proc.start()
            inflight = 0
            for i in range(workers):
                unit, stolen = _steal(deques, i)
                steals += stolen
                if unit is None:
                    inqs[i].put(None)
                else:
                    inqs[i].put(unit)
                    inflight += 1
            while inflight:
                worker_id, kind, payload = outq.get()
                if kind == "err":
                    raise payload
                inflight -= 1
                unit, stolen = _steal(deques, worker_id)
                steals += stolen
                if unit is None:
                    inqs[worker_id].put(None)
                else:
                    inqs[worker_id].put(unit)
                    inflight += 1
                yield payload
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
            for proc in procs:
                if proc.pid is not None:
                    proc.join()
    finally:
        if counters is not None:
            counters["steals"] = steals
