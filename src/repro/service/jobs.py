# repro-lint: disable=wall-clock -- time.monotonic feeds only queue telemetry
# (job latency EWMA behind the Retry-After estimate); it never reaches a
# scheduling result, which is produced by execute_spec from the spec alone.
"""The async job queue: bounded concurrency, backpressure, retry, cancel.

The queue is the admission-control layer between the HTTP front end and
the dispatcher.  Contracts:

* **bounded and backpressured** — at most ``capacity`` jobs may be
  live (queued + running); a submit past that raises
  :class:`QueueFull` carrying a ``retry_after_s`` estimate, which the
  server translates into ``429`` + ``Retry-After``;
* **bounded concurrency** — ``concurrency`` asyncio workers drain the
  queue; everything else waits in FIFO order;
* **retry with exponential backoff + jitter** — a failing job is
  re-run according to its request's
  :class:`~repro.service.models.RetryPolicy`; delays are deterministic
  per (job id, attempt) and the sleep is injectable, so the schedule is
  unit-testable without waiting;
* **cancellation** — queued jobs are cancelled in place, running jobs
  get their runner task cancelled; either way the job settles exactly
  once;
* **continue-on-error batches** — :meth:`JobQueue.submit_batch` admits
  a batch atomically (all or 429), :meth:`JobQueue.wait_batch` either
  lets every item run or cancels the unstarted remainder after the
  first failure;
* **already-answered jobs** — :meth:`JobQueue.submit_answered` admits a
  request whose result the caller already holds (a cache hit at
  admission): it counts as submitted and succeeded, but is never live
  and never enqueued;
* **bounded memory** — the job table keeps every live job and the
  :data:`SETTLED_RETAINED` most recently settled ones; an older id is
  forgotten, so :meth:`JobQueue.get` returns ``None`` for it.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Awaitable, Callable, Sequence

from repro.service.models import BatchRequest, ScheduleRequest

__all__ = ["JobState", "Job", "JobQueue", "QueueFull", "SETTLED_RETAINED"]

#: How many settled jobs the queue keeps for status and result queries
#: (the most recently settled ones); live jobs are always kept.
SETTLED_RETAINED = 1024


class QueueFull(Exception):
    """The queue is at capacity; retry after ``retry_after_s`` seconds."""

    def __init__(self, retry_after_s: float, capacity: int):
        self.retry_after_s = retry_after_s
        self.capacity = capacity
        super().__init__(
            f"job queue is at capacity ({capacity}); retry in {retry_after_s:.0f}s"
        )


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED)


@dataclass
class Job:
    """One admitted request and everything that happened to it."""

    id: str
    request: ScheduleRequest
    key: str  # content address of the underlying spec (cache key)
    state: JobState = JobState.QUEUED
    attempts: int = 0
    result: dict[str, Any] | None = None
    cached: bool = False
    error: str | None = None
    elapsed_s: float = 0.0
    _done: asyncio.Event = field(default_factory=asyncio.Event, repr=False)
    _run_task: "asyncio.Task[None] | None" = field(default=None, repr=False)
    _settled: bool = field(default=False, repr=False)

    def to_dict(self) -> dict[str, Any]:
        """Status payload (no metrics — those travel in result events)."""
        return {
            "job": self.id,
            "key": self.key,
            "state": self.state.value,
            "attempts": self.attempts,
            "cached": self.cached,
            "error": self.error,
            "tenant": self.request.tenant,
        }

    def admitted_dict(self) -> dict[str, Any]:
        """:meth:`to_dict` as of admission: queued, unattempted, uncached."""
        return {
            **self.to_dict(),
            "state": JobState.QUEUED.value,
            "attempts": 0,
            "cached": False,
            "error": None,
        }


#: The runner executes one admitted job and returns its result payload:
#: ``(metrics, cached, elapsed_s)``.  Raising marks the attempt failed
#: (and eligible for retry); the queue never interprets metrics.
JobRunner = Callable[[Job], Awaitable[tuple[dict[str, Any], bool, float]]]

SleepFn = Callable[[float], Awaitable[None]]


class JobQueue:
    """Admission control and retry orchestration over a :data:`JobRunner`."""

    def __init__(
        self,
        runner: JobRunner,
        *,
        capacity: int = 64,
        concurrency: int = 4,
        sleep: SleepFn | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self._runner = runner
        self.capacity = capacity
        self.concurrency = concurrency
        self._sleep: SleepFn = asyncio.sleep if sleep is None else sleep
        self._pending: "asyncio.Queue[Job]" = asyncio.Queue()
        self._jobs: dict[str, Job] = {}
        self._settled_ids: deque[str] = deque()  # retained, oldest first
        self._live = 0  # queued + running (the capacity measure)
        self._ids = itertools.count(1)
        self._workers: list[asyncio.Task[None]] = []
        self._closing = False
        # EWMA of recent runner durations, seeding the Retry-After
        # estimate; starts at 1s so an empty queue suggests a quick retry.
        self._avg_run_s = 1.0
        self.stats_counters = {
            "submitted": 0,
            "rejected": 0,
            "succeeded": 0,
            "failed": 0,
            "cancelled": 0,
            "retries": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker tasks (call from a running event loop)."""
        if self._workers:
            return
        self._workers = [
            asyncio.get_running_loop().create_task(self._worker())
            for _ in range(self.concurrency)
        ]

    async def close(self) -> None:
        """Cancel the workers and settle every live job as cancelled."""
        self._closing = True
        for worker in self._workers:
            worker.cancel()
        for worker in self._workers:
            try:
                await worker
            except asyncio.CancelledError:
                pass
        self._workers = []
        for job in list(self._jobs.values()):
            if not job.state.terminal:
                job.state = JobState.CANCELLED
                job.error = "server shutting down"
                self._settle(job)

    # -- admission -----------------------------------------------------------

    @property
    def depth(self) -> int:
        """Live jobs (queued + running) counted against ``capacity``."""
        return self._live

    def retry_after_s(self) -> float:
        """Estimated seconds until a slot frees up (the 429 hint)."""
        per_wave = max(1, self.concurrency)
        waves = max(1.0, self._live / per_wave)
        return float(max(1, math.ceil(waves * self._avg_run_s)))

    def check_capacity(self, count: int = 1) -> None:
        """Raise :class:`QueueFull` (a rejection) unless *count* more jobs fit."""
        if self._live + count > self.capacity:
            self.stats_counters["rejected"] += 1
            raise QueueFull(self.retry_after_s(), self.capacity)

    def submit(self, request: ScheduleRequest, *, key: str) -> Job:
        """Admit one request, or raise :class:`QueueFull` at capacity."""
        self.check_capacity()
        job = self._new_job(request, key)
        self._live += 1
        self._pending.put_nowait(job)
        return job

    def submit_answered(
        self,
        request: ScheduleRequest,
        *,
        key: str,
        metrics: dict[str, Any],
        cached: bool,
        elapsed_s: float,
    ) -> Job:
        """Admit a request whose result is already known, settled at once.

        The job reads as one successful attempt and counts as submitted
        and succeeded; it is never live and never enqueued, so it takes
        no capacity.  Capacity still gates the submit itself: callers
        run :meth:`check_capacity` before they look the result up.
        """
        job = self._new_job(request, key)
        job.state = JobState.SUCCEEDED
        job.attempts = 1
        job.result = metrics
        job.cached = cached
        job.elapsed_s = elapsed_s
        job._settled = True
        self._record(job)
        return job

    def submit_batch(self, batch: BatchRequest, *, keys: Sequence[str]) -> list[Job]:
        """Admit a whole batch atomically: all items, or :class:`QueueFull`.

        Partial admission would make continue-on-error semantics
        ambiguous (was the missing item rejected or cancelled?), so a
        batch that does not fit is rejected in one piece.
        """
        self.check_capacity(len(batch.requests))
        return [
            self.submit(request, key=key)
            for request, key in zip(batch.requests, keys)
        ]

    # -- observation and control ---------------------------------------------

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    async def wait(self, job: Job) -> Job:
        """Block until *job* settles; returns it for chaining."""
        await job._done.wait()
        return job

    async def wait_batch(
        self, jobs: Sequence[Job], *, continue_on_error: bool = True
    ) -> list[Job]:
        """Wait for a batch in submission order, honouring error policy.

        With ``continue_on_error`` every job runs to its own conclusion.
        Without it, the first failure cancels every not-yet-settled
        sibling (running ones included), mirroring fail-fast pipelines.
        """
        failed = False
        for job in jobs:
            if failed:
                self.cancel(job.id)
            await self.wait(job)
            if job.state is JobState.FAILED and not continue_on_error:
                failed = True
        return list(jobs)

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; returns whether anything was cancelled.

        Queued jobs settle immediately (the worker skips them when they
        surface); running jobs get their runner task cancelled and
        settle through the worker.  Terminal jobs are left alone.
        """
        job = self._jobs.get(job_id)
        if job is None or job.state.terminal:
            return False
        if job.state is JobState.QUEUED:
            job.state = JobState.CANCELLED
            job.error = "cancelled while queued"
            self._settle(job)
            return True
        if job._run_task is not None:
            job._run_task.cancel()
            return True
        return False

    def stats(self) -> dict[str, Any]:
        return {
            **self.stats_counters,
            "depth": self._live,
            "capacity": self.capacity,
            "concurrency": self.concurrency,
            "retry_after_s": self.retry_after_s(),
        }

    # -- internals -----------------------------------------------------------

    def _new_job(self, request: ScheduleRequest, key: str) -> Job:
        job = Job(id=f"j{next(self._ids):06d}", request=request, key=key)
        self._jobs[job.id] = job
        self.stats_counters["submitted"] += 1
        return job

    def _settle(self, job: Job) -> None:
        """Mark a live *job* finished exactly once (idempotent)."""
        if job._settled:
            return
        job._settled = True
        self._live -= 1
        self._record(job)

    def _record(self, job: Job) -> None:
        """Count a settled job's outcome, wake its waiters and retain it.

        Only the :data:`SETTLED_RETAINED` most recently settled jobs stay
        in the table; the oldest settled one goes first.
        """
        if job.state is JobState.SUCCEEDED:
            self.stats_counters["succeeded"] += 1
        elif job.state is JobState.FAILED:
            self.stats_counters["failed"] += 1
        elif job.state is JobState.CANCELLED:
            self.stats_counters["cancelled"] += 1
        job._done.set()
        self._settled_ids.append(job.id)
        while len(self._settled_ids) > SETTLED_RETAINED:
            del self._jobs[self._settled_ids.popleft()]

    async def _worker(self) -> None:
        while True:
            job = await self._pending.get()
            try:
                if job._settled:  # cancelled while queued
                    continue
                job.state = JobState.RUNNING
                job._run_task = asyncio.get_running_loop().create_task(
                    self._run_with_retries(job)
                )
                try:
                    await job._run_task
                except asyncio.CancelledError:
                    # Cancelling this worker cancels the awaited run task
                    # first (asyncio delegates cancel to the future being
                    # awaited), so by the time we get here the run task is
                    # already done either way — only the explicit closing
                    # flag can distinguish queue teardown from a per-job
                    # cancel.
                    run_task = job._run_task
                    if run_task is not None and not run_task.done():
                        run_task.cancel()
                        try:
                            await run_task
                        except (asyncio.CancelledError, Exception):
                            pass
                    job.state = JobState.CANCELLED
                    if self._closing:
                        # The *queue* is shutting down: settle and exit.
                        job.error = job.error or "server shutting down"
                        job._run_task = None
                        self._settle(job)
                        raise
                    # The *job* was cancelled (not the worker): settle it
                    # and keep serving the queue.
                    job.error = job.error or "cancelled while running"
                finally:
                    job._run_task = None
                    self._settle(job)
            finally:
                self._pending.task_done()

    async def _run_with_retries(self, job: Job) -> None:
        policy = job.request.retry
        max_attempts = policy.limit + 1
        for attempt in range(1, max_attempts + 1):
            job.attempts = attempt
            started = time.monotonic()
            try:
                metrics, cached, elapsed_s = await self._runner(job)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                job.error = f"{type(exc).__name__}: {exc}"
                if attempt >= max_attempts:
                    job.state = JobState.FAILED
                    return
                self.stats_counters["retries"] += 1
                await self._sleep(policy.delay_for(attempt, token=job.id))
            else:
                self._avg_run_s += 0.2 * ((time.monotonic() - started) - self._avg_run_s)
                job.result = metrics
                job.cached = cached
                job.elapsed_s = elapsed_s
                job.error = None
                job.state = JobState.SUCCEEDED
                return
