# repro-lint: disable=wall-clock -- time.monotonic feeds the /healthz uptime
# counter only; response payloads carrying metrics are produced by the
# campaign engine and never depend on the server clock.
"""`repro serve` — a stdlib-only asyncio HTTP front end for the engine.

``asyncio.start_server`` plus a minimal HTTP/1.1 parser (no new
dependencies); every connection carries one request and is closed after
the response, with ``Connection: close`` delimiting streamed bodies.

Endpoints::

    GET    /healthz                 liveness + uptime
    GET    /v1/stats                queue + dispatcher counters
    POST   /v1/schedule             submit one request
    POST   /v1/batch                submit a batch
    GET    /v1/jobs/<id>            job status
    GET    /v1/jobs/<id>/result     wait for the job, stream its result
    DELETE /v1/jobs/<id>            cancel a job

``POST /v1/schedule`` defaults to synchronous streaming: the response is
``application/x-ndjson`` with an ``accepted`` event (the job id and
cache key) followed by a terminal ``result``/``error``/``cancelled``
event.  ``?wait=0`` returns ``202`` with the job id immediately;
poll ``/v1/jobs/<id>`` and fetch ``/v1/jobs/<id>/result``.  A submit
past queue capacity gets ``429`` with a ``Retry-After`` header.

Metrics travel NaN/inf-safe via the campaign cache codec
(:func:`repro.campaign.cache.encode_value`) and every body line is
canonical JSON, so equal results are byte-equal on the wire.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from typing import Any, Mapping
from urllib.parse import parse_qs, urlsplit

from repro.campaign.cache import encode_value
from repro.campaign.spec import CODE_VERSION
from repro.io import canonical_dumps
from repro.service.dispatch import Dispatcher
from repro.service.jobs import Job, JobQueue, JobState, QueueFull
from repro.service.models import (
    BatchRequest,
    ScheduleRequest,
    ValidationError,
    load_request_text,
)

__all__ = ["ScheduleServer", "HttpRequest"]

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Bounds of the body memo (:meth:`ScheduleServer._parse_body`): the
#: models of at most this many distinct bodies, least recently used out
#: first, and none of a body over the byte cap (parsed every time).
_MEMO_BODIES = 256
_MEMO_BODY_BYTES = 16 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class HttpRequest:
    """One parsed HTTP/1.1 request."""

    def __init__(
        self, method: str, target: str, headers: Mapping[str, str], body: bytes
    ):
        self.method = method
        parts = urlsplit(target)
        self.path = parts.path
        self.query = {
            key: values[-1] for key, values in parse_qs(parts.query).items()
        }
        self.headers = dict(headers)
        self.body = body


class _HttpError(Exception):
    def __init__(self, status: int, message: str, headers: dict[str, str] | None = None):
        self.status = status
        self.message = message
        self.headers = headers or {}
        super().__init__(message)


async def _read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on a clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise _HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise _HttpError(413, "request head too large") from None
    if len(head) > _MAX_HEADER_BYTES:
        raise _HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    request_line = lines[0].split(" ")
    if len(request_line) != 3 or not request_line[2].startswith("HTTP/1."):
        raise _HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, _version = request_line
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length < 0 or length > _MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        body = await reader.readexactly(length)
    elif method in ("POST", "PUT"):
        raise _HttpError(400, "POST requires Content-Length")
    return HttpRequest(method, target, headers, body)


def _head_bytes(status: int, headers: dict[str, str]) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
    merged = {"connection": "close", **headers}
    lines.extend(f"{name}: {value}" for name, value in merged.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _json_body(payload: Any) -> bytes:
    return (canonical_dumps(encode_value(payload)) + "\n").encode("utf-8")


class ScheduleServer:
    """The long-lived scheduling service: queue + dispatcher + HTTP."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: str | None = ".repro-cache",
        salt: str = CODE_VERSION,
        capacity: int = 64,
        concurrency: int = 4,
        workers: int = 0,
        execute_fn: Any = None,
    ):
        self.host = host
        self.port = port
        self._config = {
            "cache_dir": cache_dir,
            "salt": salt,
            "capacity": capacity,
            "concurrency": concurrency,
            "workers": workers,
        }
        self._execute_fn = execute_fn
        self._bodies: OrderedDict[bytes, ScheduleRequest | BatchRequest] = (
            OrderedDict()
        )
        self.dispatcher: Dispatcher | None = None
        self.queue: JobQueue | None = None
        self._server: "asyncio.Server | None" = None
        self._started_monotonic = 0.0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Bring up the dispatcher, the queue and the listening socket."""
        cfg = self._config
        self.dispatcher = Dispatcher(
            cfg["cache_dir"],
            salt=str(cfg["salt"]),
            workers=int(cfg["workers"]),
            execute_fn=self._execute_fn,
        )
        self.queue = JobQueue(
            self._run_job,
            capacity=int(cfg["capacity"]),
            concurrency=int(cfg["concurrency"]),
        )
        self.queue.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.queue is not None:
            await self.queue.close()
        if self.dispatcher is not None:
            self.dispatcher.close()

    async def _run_job(self, job: Job) -> tuple[dict[str, Any], bool, float]:
        assert self.dispatcher is not None
        result = await self.dispatcher.run(
            job.request.to_instance_spec(), tenant=job.request.tenant
        )
        return result.metrics, result.cached, result.elapsed_s

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await _read_request(reader)
                if request is None:
                    return
                await self._route(request, writer)
            except _HttpError as exc:
                await self._send_json(
                    writer, exc.status, {"error": exc.message}, headers=exc.headers
                )
            except ValidationError as exc:
                await self._send_json(
                    writer, 400, {"error": "invalid request", "details": exc.errors}
                )
            except (ConnectionError, asyncio.IncompleteReadError):
                pass  # client went away mid-exchange
            except Exception as exc:  # noqa: BLE001 - last-resort 500
                await self._send_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, request: HttpRequest, writer: asyncio.StreamWriter) -> None:
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            await self._send_json(writer, 200, self._health_payload())
        elif path == "/v1/stats" and method == "GET":
            await self._send_json(writer, 200, self._stats_payload())
        elif path == "/v1/schedule" and method == "POST":
            await self._handle_schedule(request, writer)
        elif path == "/v1/batch" and method == "POST":
            await self._handle_batch(request, writer)
        elif path.startswith("/v1/jobs/"):
            await self._handle_job(request, writer)
        elif path in ("/healthz", "/v1/stats", "/v1/schedule", "/v1/batch"):
            raise _HttpError(405, f"{method} not supported on {path}")
        else:
            raise _HttpError(404, f"no route for {path}")

    # -- endpoint bodies -----------------------------------------------------

    def _health_payload(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "code_version": CODE_VERSION,
            "uptime_s": round(time.monotonic() - self._started_monotonic, 3),
        }

    def _stats_payload(self) -> dict[str, Any]:
        assert self.queue is not None and self.dispatcher is not None
        return {
            "queue": self.queue.stats(),
            "dispatcher": self.dispatcher.stats(),
        }

    def _parse_body(self, request: HttpRequest) -> ScheduleRequest | BatchRequest:
        """The request model of *request*'s body, memoised on its exact bytes.

        A repeated body gets back the same frozen model, whose specs
        keep their hash memos, so a warm resubmit parses and hashes
        nothing.  A body that fails validation raises every time: only
        models are memoised.
        """
        body = request.body
        model = self._bodies.get(body)
        if model is not None:
            self._bodies.move_to_end(body)
            return model
        model = load_request_text(body.decode("utf-8", errors="replace"))
        if len(body) <= _MEMO_BODY_BYTES:
            self._bodies[body] = model
            if len(self._bodies) > _MEMO_BODIES:
                self._bodies.popitem(last=False)
        return model

    def _submit_or_429(self, model: ScheduleRequest) -> Job:
        assert self.queue is not None and self.dispatcher is not None
        try:
            return self.queue.submit(
                model, key=model.request_key(salt=self.dispatcher.salt)
            )
        except QueueFull as exc:
            raise _HttpError(
                429,
                str(exc),
                headers={"retry-after": str(int(exc.retry_after_s))},
            ) from None

    async def _handle_schedule(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        model = self._parse_body(request)
        if isinstance(model, BatchRequest):
            raise ValidationError(
                "kind: got a batch payload; submit it to /v1/batch"
            )
        job = self._submit_or_429(model)
        if request.query.get("wait") == "0":
            await self._send_json(
                writer,
                202,
                {**job.to_dict(), "result_url": f"/v1/jobs/{job.id}/result"},
            )
            return
        assert self.queue is not None
        await self._start_ndjson(writer)
        await self._write_line(writer, {"event": "accepted", **job.to_dict()})
        await self.queue.wait(job)
        await self._write_line(writer, self._terminal_event(job))

    async def _handle_batch(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        model = self._parse_body(request)
        if isinstance(model, ScheduleRequest):
            model = BatchRequest(requests=(model,))
        assert self.queue is not None and self.dispatcher is not None
        salt = self.dispatcher.salt
        keys = [item.request_key(salt=salt) for item in model.requests]
        try:
            jobs = self.queue.submit_batch(model, keys=keys)
        except QueueFull as exc:
            raise _HttpError(
                429,
                str(exc),
                headers={"retry-after": str(int(exc.retry_after_s))},
            ) from None
        await self._start_ndjson(writer)
        await self._write_line(
            writer,
            {
                "event": "accepted",
                "batch": [job.id for job in jobs],
                "continue_on_error": model.continue_on_error,
            },
        )
        # Warm each tenant's cache through the lockstep batch engine
        # (independent seed sweeps of LOCKSTEP_MIN_ROWS or more specs;
        # the rest run per job) before draining the per-job results.
        # Best-effort: jobs the
        # queue already started simply recompute the same (bit-exact)
        # payload instead of hitting the warm entry.
        by_tenant: dict[str, list[Any]] = {}
        for item in model.requests:
            by_tenant.setdefault(item.tenant, []).append(item.to_instance_spec())
        for tenant, tenant_specs in by_tenant.items():
            await self.dispatcher.prefetch(tenant_specs, tenant=tenant)
        failed = False
        for job in jobs:
            if failed:
                self.queue.cancel(job.id)
            await self.queue.wait(job)
            await self._write_line(writer, self._terminal_event(job))
            if job.state is JobState.FAILED and not model.continue_on_error:
                failed = True
        counts = {
            "succeeded": sum(1 for j in jobs if j.state is JobState.SUCCEEDED),
            "failed": sum(1 for j in jobs if j.state is JobState.FAILED),
            "cancelled": sum(1 for j in jobs if j.state is JobState.CANCELLED),
        }
        await self._write_line(writer, {"event": "batch_done", **counts})

    async def _handle_job(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        assert self.queue is not None
        rest = request.path[len("/v1/jobs/") :]
        job_id, _, tail = rest.partition("/")
        job = self.queue.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        if tail == "" and request.method == "GET":
            await self._send_json(writer, 200, job.to_dict())
        elif tail == "" and request.method == "DELETE":
            cancelled = self.queue.cancel(job.id)
            await self._send_json(
                writer, 200, {**job.to_dict(), "cancel_requested": cancelled}
            )
        elif tail == "result" and request.method == "GET":
            await self._start_ndjson(writer)
            await self.queue.wait(job)
            await self._write_line(writer, self._terminal_event(job))
        else:
            raise _HttpError(404, f"no route for {request.path}")

    def _terminal_event(self, job: Job) -> dict[str, Any]:
        if job.state is JobState.SUCCEEDED:
            return {
                "event": "result",
                **job.to_dict(),
                "elapsed_s": job.elapsed_s,
                "metrics": job.result,
            }
        if job.state is JobState.CANCELLED:
            return {"event": "cancelled", **job.to_dict()}
        return {"event": "error", **job.to_dict()}

    # -- response plumbing ---------------------------------------------------

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        *,
        headers: dict[str, str] | None = None,
    ) -> None:
        body = _json_body(payload)
        head = {
            "content-type": "application/json",
            "content-length": str(len(body)),
            **(headers or {}),
        }
        writer.write(_head_bytes(status, head) + body)
        await writer.drain()

    async def _start_ndjson(self, writer: asyncio.StreamWriter) -> None:
        writer.write(
            _head_bytes(200, {"content-type": "application/x-ndjson"})
        )
        await writer.drain()

    async def _write_line(self, writer: asyncio.StreamWriter, payload: Any) -> None:
        writer.write(_json_body(payload))
        await writer.drain()
