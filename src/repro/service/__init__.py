"""Scheduling-as-a-service: an async HTTP layer over the campaign engine.

The campaign engine (:mod:`repro.campaign`) is a batch library — every
consumer recomputes per invocation.  This package fronts it with a
long-lived asyncio service that validates scheduling requests, runs
them through the shared cache-backed engine, and streams results:

* :mod:`~repro.service.models` — typed request models
  (:class:`ScheduleRequest`, :class:`BatchRequest`, ...) with strict
  validation, empty-value coercion and canonical round-tripping; a
  request maps 1:1 onto an :class:`~repro.campaign.spec.InstanceSpec`
  cache key;
* :mod:`~repro.service.jobs` — a bounded async job queue with
  backpressure (429 + ``Retry-After``), per-job retry with exponential
  backoff + jitter, cancellation and continue-on-error batches;
* :mod:`~repro.service.dispatch` — the engine bridge: warm hits served
  from per-tenant :class:`~repro.campaign.cache.ResultCache`
  namespaces, duplicate in-flight requests coalesced (single-flight),
  cold misses executed on a ``multiprocessing`` pool off the event
  loop;
* :mod:`~repro.service.server` / :mod:`~repro.service.client` — a
  stdlib-only HTTP/1.1 server (one :class:`asyncio.Protocol` per
  connection, answering cache hits inside its read callback) and the
  matching client;
* :mod:`~repro.service.cli` — the ``repro serve`` / ``repro submit``
  subcommand bodies.
"""

from repro.service.models import (
    BatchRequest,
    PlatformSpec,
    PolicySpec,
    RetryPolicy,
    ScheduleRequest,
    ValidationError,
    WorkloadSpec,
    load_request,
    load_request_file,
    load_request_text,
)
from repro.service.jobs import Job, JobQueue, JobState, QueueFull
from repro.service.dispatch import DispatchResult, Dispatcher, namespaced_cache
from repro.service.server import ScheduleServer
from repro.service.client import ServiceClient, ServiceError

__all__ = [
    "BatchRequest",
    "DispatchResult",
    "Dispatcher",
    "Job",
    "JobQueue",
    "JobState",
    "PlatformSpec",
    "PolicySpec",
    "QueueFull",
    "RetryPolicy",
    "ScheduleRequest",
    "ScheduleServer",
    "ServiceClient",
    "ServiceError",
    "ValidationError",
    "WorkloadSpec",
    "load_request",
    "load_request_file",
    "load_request_text",
    "namespaced_cache",
]
