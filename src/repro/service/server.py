# repro-lint: disable=wall-clock -- time.monotonic feeds the /healthz uptime
# counter only; response payloads carrying metrics are produced by the
# campaign engine and never depend on the server clock.
"""`repro serve` — a stdlib-only asyncio HTTP front end for the engine.

One :class:`asyncio.Protocol` per connection (``loop.create_server``)
plus a minimal HTTP/1.1 parser (no new dependencies); every connection
carries one request and is closed after the response, with
``Connection: close`` delimiting streamed bodies.

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

A request that needs no waiting is answered inside the protocol's
``data_received`` callback, with one ``transport.write``: the status
endpoints, every error, a ``?wait=0`` submit, and a submit — single or
batch — whose every item is a cache hit at admission.  Only a request
that must wait on a job (a miss, a batch with a miss,
``/v1/jobs/<id>/result``) gets a task, which streams the rest of its
response through the connection.  Once an NDJSON head is out, a failure
ends the stream with one ``error`` event line.

Metrics travel NaN/inf-safe via the campaign cache codec
(:func:`repro.campaign.cache.encode_value`) and every body line is
canonical JSON, so equal results are byte-equal on the wire.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from typing import Any, Coroutine, Mapping, Sequence
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


def _parse_head(head: bytes) -> tuple[str, str, dict[str, str], int]:
    """Method, target, headers and body length of a request head.

    *head* runs through its blank line.  Malformed input is a 400 and an
    oversized head or body a 413.
    """
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
    length = 0
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length < 0 or length > _MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
    elif method in ("POST", "PUT"):
        raise _HttpError(400, "POST requires Content-Length")
    return method, target, headers, length


def _head_bytes(status: int, headers: dict[str, str]) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
    merged = {"connection": "close", **headers}
    lines.extend(f"{name}: {value}" for name, value in merged.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


_NDJSON_HEAD = _head_bytes(200, {"content-type": "application/x-ndjson"})


def _json_body(payload: Any) -> bytes:
    return (canonical_dumps(encode_value(payload)) + "\n").encode("utf-8")


def _json_response(
    status: int, payload: Any, headers: dict[str, str] | None = None
) -> bytes:
    body = _json_body(payload)
    head = {
        "content-type": "application/json",
        "content-length": str(len(body)),
        **(headers or {}),
    }
    return _head_bytes(status, head) + body


class _Connection(asyncio.Protocol):
    """One client connection: reads its request, then writes the answer.

    The protocol buffers bytes until a whole request is in, then hands
    it to the server once; later bytes are ignored.  A streamed answer
    writes through :meth:`write` and :meth:`drain`, which go quiet once
    the client has gone away.
    """

    def __init__(self, server: "ScheduleServer"):
        self._server = server
        self._buffer = bytearray()
        self._scanned = 0  # buffer bytes known to hold no head terminator
        self._head: tuple[str, str, dict[str, str], int] | None = None
        self._body_at = 0
        self.received = False  # a whole request (or a parse error) is in
        self._streaming = False  # an NDJSON head is out: the status is sent
        self._transport: asyncio.Transport | None = None
        self._paused = False
        self._resumed: "asyncio.Future[None] | None" = None

    # -- asyncio.Protocol ------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self._transport = transport
        self._server._connections.add(self)

    def data_received(self, data: bytes) -> None:
        if self.received:
            return
        self._buffer += data
        try:
            request = self._parse()
        except _HttpError as exc:
            self.received = True
            self.fail(exc.status, {"error": exc.message}, exc.headers)
            return
        if request is not None:
            self.received = True
            self._server._serve(self, request)

    def eof_received(self) -> bool:
        if self.received:
            return True  # half-closed: the answer can still go out
        self.received = True
        if self._buffer and self._head is None:
            self.fail(400, {"error": "truncated request head"})
        # A clean EOF, or one inside the body, gets no answer.
        return False

    def connection_lost(self, exc: Exception | None) -> None:
        self._server._connections.discard(self)
        self._wake()

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        self._wake()

    # -- parsing ---------------------------------------------------------

    def _parse(self) -> HttpRequest | None:
        """The buffered request once it is whole, else ``None``."""
        buffer = self._buffer
        if self._head is None:
            end = buffer.find(b"\r\n\r\n", self._scanned)
            if end < 0:
                if len(buffer) > _MAX_HEADER_BYTES:
                    raise _HttpError(413, "request head too large")
                self._scanned = max(0, len(buffer) - 3)
                return None
            self._body_at = end + 4
            self._head = _parse_head(bytes(buffer[: self._body_at]))
        method, target, headers, length = self._head
        if len(buffer) < self._body_at + length:
            return None
        body = bytes(buffer[self._body_at : self._body_at + length])
        return HttpRequest(method, target, headers, body)

    # -- writing ---------------------------------------------------------

    def write(self, data: bytes) -> None:
        """Send *data*; a no-op once the client has gone away."""
        transport = self._transport
        if transport is not None and not transport.is_closing():
            transport.write(data)

    async def drain(self) -> None:
        """Wait while the transport's write buffer is over its high mark."""
        transport = self._transport
        if self._paused and transport is not None and not transport.is_closing():
            self._resumed = asyncio.get_running_loop().create_future()
            await self._resumed

    def _wake(self) -> None:
        resumed, self._resumed = self._resumed, None
        if resumed is not None and not resumed.done():
            resumed.set_result(None)

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()

    def send(self, data: bytes) -> None:
        """Answer in one write and close."""
        self.write(data)
        self.close()

    def start_stream(self, data: bytes) -> None:
        """Send the NDJSON head (and any first lines) of a streamed answer."""
        self._streaming = True
        self.write(data)

    def fail(
        self, status: int, payload: dict[str, Any], headers: dict[str, str] | None = None
    ) -> None:
        """Answer with an error and close.

        Before a stream starts this is a whole JSON response.  Once the
        NDJSON head is out the status is sent, so the stream ends with
        one ``error`` event carrying the same payload instead.
        """
        if self._streaming:
            self.send(_json_body({"event": "error", **payload}))
        else:
            self.send(_json_response(status, payload, headers))


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
        self._connections: set[_Connection] = set()
        self._tasks: set["asyncio.Task[None]"] = set()
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
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self.host, self.port
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
        """Stop listening, settle every job and await the streams started."""
        if self._server is not None:
            self._server.close()
            self._server = None
        for conn in list(self._connections):
            if not conn.received:
                conn.close()  # no request yet: none will be served
        if self.queue is not None:
            await self.queue.close()
        while self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self.dispatcher is not None:
            self.dispatcher.close()

    async def _run_job(self, job: Job) -> tuple[dict[str, Any], bool, float]:
        assert self.dispatcher is not None
        result = await self.dispatcher.run(
            job.request.to_instance_spec(), tenant=job.request.tenant
        )
        return result.metrics, result.cached, result.elapsed_s

    # -- request handling ----------------------------------------------------

    def _serve(self, conn: _Connection, request: HttpRequest) -> None:
        """Answer *request* now, or start the task that streams its answer."""
        try:
            self._route(conn, request)
        except _HttpError as exc:
            conn.fail(exc.status, {"error": exc.message}, exc.headers)
        except ValidationError as exc:
            conn.fail(400, {"error": "invalid request", "details": exc.errors})
        except QueueFull as exc:
            conn.fail(
                429, {"error": str(exc)}, {"retry-after": str(int(exc.retry_after_s))}
            )
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            conn.fail(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _stream(self, conn: _Connection, rest: Coroutine[Any, Any, None]) -> None:
        """Finish *conn*'s streamed answer in a task that ``close`` awaits."""
        task = asyncio.get_running_loop().create_task(self._finish(conn, rest))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _finish(self, conn: _Connection, rest: Coroutine[Any, Any, None]) -> None:
        try:
            await rest
        except Exception as exc:  # noqa: BLE001 - last resort, mid-stream
            conn.fail(500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            conn.close()

    def _route(self, conn: _Connection, request: HttpRequest) -> None:
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            conn.send(_json_response(200, self._health_payload()))
        elif path == "/v1/stats" and method == "GET":
            conn.send(_json_response(200, self._stats_payload()))
        elif path == "/v1/schedule" and method == "POST":
            self._handle_schedule(conn, request)
        elif path == "/v1/batch" and method == "POST":
            self._handle_batch(conn, request)
        elif path.startswith("/v1/jobs/"):
            self._handle_job(conn, request)
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

    def _admit(self, batch: BatchRequest) -> tuple[list[Job], bool]:
        """Admit *batch*'s items as jobs; ``True`` if the cache answered all.

        At capacity this raises :class:`QueueFull` (a 429), hit or not.
        Otherwise the items are looked up in order: if every one is a
        cache hit, each is admitted already answered (settled, never
        queued); else all are queued.
        """
        assert self.queue is not None and self.dispatcher is not None
        queue, salt = self.queue, self.dispatcher.salt
        items = batch.requests
        queue.check_capacity(len(items))
        keys = [item.request_key(salt=salt) for item in items]
        hits = self.dispatcher.lookup(
            [(item.to_instance_spec(), item.tenant) for item in items]
        )
        if hits is None:
            return queue.submit_batch(batch, keys=keys), False
        return [
            queue.submit_answered(
                item, key=key, metrics=hit.metrics, cached=hit.cached,
                elapsed_s=hit.elapsed_s,
            )
            for item, key, hit in zip(items, keys, hits)
        ], True

    def _handle_schedule(self, conn: _Connection, request: HttpRequest) -> None:
        model = self._parse_body(request)
        if isinstance(model, BatchRequest):
            raise ValidationError(
                "kind: got a batch payload; submit it to /v1/batch"
            )
        assert self.queue is not None and self.dispatcher is not None
        if request.query.get("wait") == "0":
            job = self.queue.submit(
                model, key=model.request_key(salt=self.dispatcher.salt)
            )
            conn.send(
                _json_response(
                    202, {**job.to_dict(), "result_url": f"/v1/jobs/{job.id}/result"}
                )
            )
            return
        (job,), answered = self._admit(BatchRequest(requests=(model,)))
        accepted = _NDJSON_HEAD + _json_body(
            {"event": "accepted", **job.admitted_dict()}
        )
        if answered:
            conn.send(accepted + _json_body(self._terminal_event(job)))
            return
        conn.start_stream(accepted)
        self._stream(conn, self._stream_result(conn, job))

    def _handle_batch(self, conn: _Connection, request: HttpRequest) -> None:
        model = self._parse_body(request)
        if isinstance(model, ScheduleRequest):
            model = BatchRequest(requests=(model,))
        jobs, answered = self._admit(model)
        accepted = _NDJSON_HEAD + _json_body(
            {
                "event": "accepted",
                "batch": [job.id for job in jobs],
                "continue_on_error": model.continue_on_error,
            }
        )
        if answered:
            lines = [_json_body(self._terminal_event(job)) for job in jobs]
            conn.send(b"".join([accepted, *lines, _json_body(_batch_done(jobs))]))
            return
        conn.start_stream(accepted)
        self._stream(conn, self._stream_batch(conn, model, jobs))

    def _handle_job(self, conn: _Connection, request: HttpRequest) -> None:
        assert self.queue is not None
        rest = request.path[len("/v1/jobs/") :]
        job_id, _, tail = rest.partition("/")
        job = self.queue.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job {job_id!r}")
        if tail == "" and request.method == "GET":
            conn.send(_json_response(200, job.to_dict()))
        elif tail == "" and request.method == "DELETE":
            cancelled = self.queue.cancel(job.id)
            conn.send(
                _json_response(200, {**job.to_dict(), "cancel_requested": cancelled})
            )
        elif tail == "result" and request.method == "GET":
            conn.start_stream(_NDJSON_HEAD)
            self._stream(conn, self._stream_result(conn, job))
        else:
            raise _HttpError(404, f"no route for {request.path}")

    async def _stream_result(self, conn: _Connection, job: Job) -> None:
        assert self.queue is not None
        await self.queue.wait(job)
        conn.write(_json_body(self._terminal_event(job)))

    async def _stream_batch(
        self, conn: _Connection, model: BatchRequest, jobs: Sequence[Job]
    ) -> None:
        assert self.queue is not None and self.dispatcher is not None
        # Warm each tenant's cache through the lockstep batch engine
        # (independent seed sweeps of LOCKSTEP_MIN_ROWS or more specs;
        # the rest run per job) before draining the per-job results.
        # Best-effort: jobs the queue already started simply recompute
        # the same (bit-exact) payload instead of hitting the warm entry.
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
            conn.write(_json_body(self._terminal_event(job)))
            await conn.drain()
            if job.state is JobState.FAILED and not model.continue_on_error:
                failed = True
        conn.write(_json_body(_batch_done(jobs)))

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


def _batch_done(jobs: Sequence[Job]) -> dict[str, Any]:
    return {
        "event": "batch_done",
        "succeeded": sum(1 for j in jobs if j.state is JobState.SUCCEEDED),
        "failed": sum(1 for j in jobs if j.state is JobState.FAILED),
        "cancelled": sum(1 for j in jobs if j.state is JobState.CANCELLED),
    }
