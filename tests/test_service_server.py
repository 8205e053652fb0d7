"""End-to-end tests for the HTTP service (repro.service.server + client).

Each test boots a real :class:`ScheduleServer` on an ephemeral port
inside ``asyncio.run`` and talks to it over a socket with the stdlib
client — the full wire path, no mocks between HTTP and the engine.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import json
import math
import re

import pytest

from repro import io
from repro.campaign import CODE_VERSION, InstanceSpec, execute_spec
from repro.campaign import spec as spec_mod
from repro.campaign.cache import encode_value
from repro.service import jobs as jobs_mod
from repro.service import server as server_mod
from repro.service.client import ServiceClient, ServiceError
from repro.service.models import (
    BatchRequest,
    PolicySpec,
    RetryPolicy,
    ScheduleRequest,
    WorkloadSpec,
    load_request_text,
)
from repro.service.server import HttpRequest, ScheduleServer


def make_request(**overrides) -> ScheduleRequest:
    fields = dict(
        workload=WorkloadSpec(family="cholesky", size=4),
        policy=PolicySpec(algorithm="heteroprio-min"),
    )
    fields.update(overrides)
    return ScheduleRequest(**fields)


def canon(metrics: dict) -> str:
    """NaN/inf-tolerant canonical form for exact metric comparison."""
    return io.canonical_dumps(encode_value(metrics))


@contextlib.asynccontextmanager
async def running_server(**kwargs):
    defaults = dict(host="127.0.0.1", port=0, capacity=8, concurrency=2, workers=0)
    defaults.update(kwargs)
    server = ScheduleServer(**defaults)
    await server.start()
    try:
        yield server, ServiceClient(server.host, server.port)
    finally:
        await server.close()


class TestEndToEnd:
    def test_streamed_result_matches_direct_execute_spec(self, tmp_path):
        """The acceptance path: HTTP result is byte-identical to the engine."""
        request = make_request()
        direct = execute_spec(request.to_instance_spec())

        async def body():
            async with running_server(cache_dir=str(tmp_path)) as (server, client):
                events = await client.submit(request)
                assert [e["event"] for e in events] == ["accepted", "result"]
                accepted, result = events
                assert accepted["key"] == request.request_key()
                assert result["state"] == "succeeded"
                assert result["cached"] is False
                # Byte-identical to running the engine directly.
                assert canon(result["metrics"]) == canon(direct)

                # Warm resubmit: served from the cache, same bytes.
                again = await client.submit(request)
                assert again[-1]["cached"] is True
                assert canon(again[-1]["metrics"]) == canon(direct)
                stats = await client.stats()
                assert stats["dispatcher"]["cache_hits"] == 1
                assert stats["dispatcher"]["executed"] == 1
                assert stats["queue"]["succeeded"] == 2

        asyncio.run(body())

    def test_nonfinite_metrics_survive_the_wire(self, tmp_path):
        """NaN/inf in metrics round-trip the NDJSON stream intact."""

        def weird_execute(spec):
            return {"makespan": math.nan, "ratio": math.inf}

        async def body():
            async with running_server(
                cache_dir=str(tmp_path), execute_fn=weird_execute
            ) as (server, client):
                events = await client.submit(make_request())
                metrics = events[-1]["metrics"]
                assert math.isnan(metrics["makespan"])
                assert metrics["ratio"] == math.inf

        asyncio.run(body())

    def test_tenants_do_not_share_cache_entries(self, tmp_path):
        async def body():
            calls = {"n": 0}

            def counting_execute(spec):
                calls["n"] += 1
                return {"makespan": 1.0}

            async with running_server(
                cache_dir=str(tmp_path), execute_fn=counting_execute
            ) as (server, client):
                await client.submit(make_request(tenant="team-a"))
                await client.submit(make_request(tenant="team-b"))
                third = await client.submit(make_request(tenant="team-a"))
                assert calls["n"] == 2
                assert third[-1]["cached"] is True
                assert (tmp_path / "tenants" / "team-a").is_dir()
                assert (tmp_path / "tenants" / "team-b").is_dir()

        asyncio.run(body())


class TestBackpressureHttp:
    def test_queue_full_maps_to_429_with_retry_after(self, tmp_path):
        async def body():
            release = asyncio.Event()
            loop = asyncio.get_running_loop()

            def blocking_execute(spec):
                # Runs on an executor thread; parks until released.
                asyncio.run_coroutine_threadsafe(release.wait(), loop).result()
                return {"makespan": 1.0}

            async with running_server(
                cache_dir=None, capacity=1, concurrency=1,
                execute_fn=blocking_execute,
            ) as (server, client):
                first = await client.request(
                    "POST", "/v1/schedule?wait=0", make_request().to_dict()
                )
                assert first.status == 202
                job_id = first.json()["job"]

                second = await client.request(
                    "POST", "/v1/schedule?wait=0", make_request().to_dict()
                )
                assert second.status == 429
                assert int(second.headers["retry-after"]) >= 1

                with pytest.raises(ServiceError) as info:
                    await client.submit(make_request())
                assert info.value.status == 429
                assert info.value.retry_after_s >= 1

                release.set()
                events = [
                    e async for e in client.stream(
                        "GET", f"/v1/jobs/{job_id}/result"
                    )
                ]
                assert events[-1]["event"] == "result"
                # With the slot free the queue admits again.
                ok = await client.submit(make_request())
                assert ok[-1]["event"] == "result"

        asyncio.run(body())


class TestBatchHttp:
    def test_batch_streams_per_job_events_in_order(self, tmp_path):
        async def body():
            def execute(spec):
                if spec.algorithm == "heft-avg":
                    raise RuntimeError("bad instance")
                return {"makespan": 2.0}

            async with running_server(
                cache_dir=None, execute_fn=execute
            ) as (server, client):
                batch = {
                    "kind": "batch",
                    "continue_on_error": True,
                    "requests": [
                        make_request().to_dict(),
                        make_request(
                            policy=PolicySpec(algorithm="heft-avg")
                        ).to_dict(),
                        make_request(
                            policy=PolicySpec(algorithm="dualhp-min")
                        ).to_dict(),
                    ],
                }
                events = await client.submit_batch(batch)
                kinds = [e["event"] for e in events]
                assert kinds[0] == "accepted" and kinds[-1] == "batch_done"
                assert kinds[1:-1] == ["result", "error", "result"]
                assert events[-1] == {
                    "event": "batch_done",
                    "succeeded": 2,
                    "failed": 1,
                    "cancelled": 0,
                }

        asyncio.run(body())

    def test_fail_fast_batch_cancels_the_tail(self, tmp_path):
        async def body():
            release = asyncio.Event()
            loop = asyncio.get_running_loop()

            def execute(spec):
                if spec.algorithm == "heteroprio-min":
                    raise RuntimeError("bad instance")
                # Later items park until released, so the failure always
                # wins the race against their completion.
                asyncio.run_coroutine_threadsafe(release.wait(), loop).result()
                return {"makespan": 2.0}

            async with running_server(
                cache_dir=None, concurrency=1, execute_fn=execute
            ) as (server, client):
                batch = {
                    "continue_on_error": False,
                    "requests": [
                        make_request().to_dict(),  # fails
                        make_request(
                            policy=PolicySpec(algorithm="heft-avg")
                        ).to_dict(),
                        make_request(
                            policy=PolicySpec(algorithm="dualhp-min")
                        ).to_dict(),
                    ],
                }
                events = await client.submit_batch(batch)
                release.set()  # unpark any cancelled executor threads
                kinds = [e["event"] for e in events]
                assert kinds[1:-1] == ["error", "cancelled", "cancelled"]
                done = events[-1]
                assert done["failed"] == 1
                assert done["cancelled"] == 2
                assert done["succeeded"] == 0

        asyncio.run(body())


class TestHttpSurface:
    def test_health_stats_and_job_endpoints(self, tmp_path):
        async def body():
            async with running_server(cache_dir=str(tmp_path)) as (server, client):
                health = await client.health()
                assert health["status"] == "ok"
                assert health["code_version"] == CODE_VERSION
                assert health["uptime_s"] >= 0

                events = await client.submit(make_request())
                job_id = events[0]["job"]
                status = await client.job(job_id)
                assert status["state"] == "succeeded"
                assert status["key"] == make_request().request_key()

        asyncio.run(body())

    def test_validation_errors_are_400_with_details(self, tmp_path):
        async def body():
            async with running_server(cache_dir=None) as (server, client):
                response = await client.request(
                    "POST",
                    "/v1/schedule",
                    {"workload": {"family": "svd", "size": 4},
                     "policy": {"algorithm": "heteroprio-min"}},
                )
                assert response.status == 400
                payload = response.json()
                assert payload["error"] == "invalid request"
                assert any("workload.family" in d for d in payload["details"])

                # A batch payload on the single-request endpoint is a 400.
                response = await client.request(
                    "POST", "/v1/schedule", {"requests": [make_request().to_dict()]}
                )
                assert response.status == 400

        asyncio.run(body())

    def test_unknown_routes_jobs_and_methods(self, tmp_path):
        async def body():
            async with running_server(cache_dir=None) as (server, client):
                assert (await client.request("GET", "/nope")).status == 404
                assert (await client.request("DELETE", "/healthz")).status == 405
                assert (await client.request("GET", "/v1/jobs/j999999")).status == 404
                malformed = await client.request("POST", "/v1/schedule?wait=0", {})
                assert malformed.status == 400

        asyncio.run(body())

    def test_cancel_endpoint_cancels_a_queued_job(self, tmp_path):
        async def body():
            release = asyncio.Event()
            loop = asyncio.get_running_loop()

            def blocking_execute(spec):
                asyncio.run_coroutine_threadsafe(release.wait(), loop).result()
                return {"makespan": 1.0}

            async with running_server(
                cache_dir=None, capacity=4, concurrency=1,
                execute_fn=blocking_execute,
            ) as (server, client):
                first = await client.request(
                    "POST", "/v1/schedule?wait=0", make_request().to_dict()
                )
                queued = await client.request(
                    "POST",
                    "/v1/schedule?wait=0",
                    make_request(
                        policy=PolicySpec(algorithm="heft-avg")
                    ).to_dict(),
                )
                cancelled = await client.cancel(queued.json()["job"])
                assert cancelled["cancel_requested"] is True
                status = await client.job(queued.json()["job"])
                assert status["state"] == "cancelled"
                release.set()
                events = [
                    e async for e in client.stream(
                        "GET", f"/v1/jobs/{first.json()['job']}/result"
                    )
                ]
                assert events[-1]["event"] == "result"

        asyncio.run(body())

    def test_retry_policy_rides_the_request(self, tmp_path):
        async def body():
            calls = {"n": 0}

            def flaky_execute(spec):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise RuntimeError("transient")
                return {"makespan": 5.0}

            async with running_server(
                cache_dir=None, execute_fn=flaky_execute
            ) as (server, client):
                request = make_request(
                    retry=RetryPolicy(limit=2, interval_s=0.01)
                )
                events = await client.submit(request)
                assert events[-1]["event"] == "result"
                assert events[-1]["attempts"] == 2
                stats = await client.stats()
                assert stats["queue"]["retries"] == 1

        asyncio.run(body())


async def raw_exchange(
    server: ScheduleServer, *chunks: bytes, eof: bool = False, pause: float = 0.05
) -> bytes:
    """Write *chunks* one by one, pausing between them, then read to EOF."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        for i, chunk in enumerate(chunks):
            if i:
                await asyncio.sleep(pause)
            writer.write(chunk)
            await writer.drain()
        if eof:
            writer.write_eof()
        return await asyncio.wait_for(reader.read(), 10)
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()


def post_bytes(path: str, body: bytes) -> bytes:
    head = f"POST {path} HTTP/1.1\r\ncontent-length: {len(body)}\r\n\r\n"
    return head.encode("latin-1") + body


def status_of(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


def body_lines(response: bytes) -> list[bytes]:
    return response.split(b"\r\n\r\n", 1)[1].splitlines()


def mask_job(line: bytes) -> bytes:
    return re.sub(rb'"job":"[^"]*"', b'"job":"*"', line)


async def post_raw(server: ScheduleServer, path: str, body: bytes) -> int:
    """POST *body* verbatim (no JSON encoding); returns the HTTP status."""
    return status_of(await raw_exchange(server, post_bytes(path, body)))


def http_post(body: bytes) -> HttpRequest:
    return HttpRequest("POST", "/v1/schedule", {}, body)


class TestBodyMemo:
    """A warm resubmit parses and hashes nothing: pinned by counts."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"parses": 0, "hashes": 0}
        parse, digest = server_mod.load_request_text, spec_mod._digest

        def counting_parse(text):
            counts["parses"] += 1
            return parse(text)

        def counting_digest(spec, salt):
            counts["hashes"] += 1
            return digest(spec, salt)

        monkeypatch.setattr(server_mod, "load_request_text", counting_parse)
        monkeypatch.setattr(spec_mod, "_digest", counting_digest)
        return counts

    def test_resubmitted_body_parses_and_hashes_nothing(self, tmp_path, counts):
        async def body():
            async with running_server(cache_dir=str(tmp_path)) as (server, client):
                cold = await client.submit(make_request())
                assert cold[-1]["cached"] is False
                assert counts["parses"] == 1 and counts["hashes"] > 0
                counts.update(parses=0, hashes=0)
                for _ in range(3):
                    warm = await client.submit(make_request())
                    assert warm[-1]["cached"] is True
                    assert warm[-1]["metrics"] == cold[-1]["metrics"]
                assert counts == {"parses": 0, "hashes": 0}
                stats = await client.stats()
                assert stats["dispatcher"]["cache_hits"] == 3

        asyncio.run(body())

    def test_malformed_body_is_400_on_every_submit(self, counts):
        unknown_family = json.dumps(
            {"workload": {"family": "svd", "size": 4},
             "policy": {"algorithm": "heteroprio-min"}}
        ).encode("utf-8")

        async def body():
            async with running_server(cache_dir=None) as (server, client):
                for bad in (b'{"workload": {', unknown_family):
                    for path in ("/v1/schedule", "/v1/batch"):
                        assert await post_raw(server, path, bad) == 400
                        assert await post_raw(server, path, bad) == 400
                assert counts["parses"] == 8
                assert not server._bodies

        asyncio.run(body())

    def test_memo_is_bounded_by_entries_and_body_size(self, monkeypatch, counts):
        monkeypatch.setattr(server_mod, "_MEMO_BODIES", 3)
        server = ScheduleServer()
        bodies = [
            json.dumps(make_request(workload=WorkloadSpec(family="qr", size=n))
                       .to_dict()).encode("utf-8")
            for n in range(1, 6)
        ]
        for raw in bodies:
            server._parse_body(http_post(raw))
        assert list(server._bodies) == bodies[2:]
        server._parse_body(http_post(bodies[2]))  # a hit refreshes recency
        server._parse_body(http_post(bodies[0]))
        assert list(server._bodies) == [bodies[4], bodies[2], bodies[0]]
        assert counts["parses"] == 6

        big = bodies[0] + b" " * server_mod._MEMO_BODY_BYTES
        first = server._parse_body(http_post(big))
        assert server._parse_body(http_post(big)) == first
        assert counts["parses"] == 8
        assert big not in server._bodies and len(server._bodies) == 3

    def test_memoised_model_keys_like_a_fresh_parse(self):
        server = ScheduleServer()
        batch = BatchRequest(requests=(
            make_request(),
            make_request(workload=WorkloadSpec(family="layered", size=3, seed=5,
                                               params=(("width", 2),)),
                         tenant="team-a"),
        ))
        for text in (make_request().canonical_json(), batch.canonical_json()):
            raw = text.encode("utf-8")
            memoised = server._parse_body(http_post(raw))
            assert server._parse_body(http_post(raw)) is memoised
            fresh = load_request_text(text)
            assert fresh == memoised
            items = getattr(memoised, "requests", (memoised,))
            fresh_items = getattr(fresh, "requests", (fresh,))
            for salt in (CODE_VERSION, "other"):
                assert [r.request_key(salt=salt) for r in items] == [
                    r.request_key(salt=salt) for r in fresh_items
                ]


# -- the protocol front end ---------------------------------------------------


BATCH = {
    "kind": "batch",
    "requests": [
        make_request().to_dict(),
        make_request(policy=PolicySpec(algorithm="heft-avg")).to_dict(),
        make_request(policy=PolicySpec(algorithm="dualhp-min"), tenant="t").to_dict(),
    ],
}


def constant_execute(spec):
    return {"makespan": 2.0}


class TestRequestParsing:
    """Raw-socket cases: framing, limits and malformed input."""

    def test_head_and_body_split_across_writes(self, tmp_path, monkeypatch):
        reads = {"n": 0}
        data_received = server_mod._Connection.data_received

        def counting(self, data):
            reads["n"] += 1
            data_received(self, data)

        monkeypatch.setattr(server_mod._Connection, "data_received", counting)
        raw = post_bytes("/v1/schedule", make_request().canonical_json().encode())
        cut = raw.index(b"\r\n\r\n")
        chunks = [raw[:10], raw[10:cut + 2], raw[cut + 2:cut + 9], raw[cut + 9:]]

        async def body():
            async with running_server(
                cache_dir=str(tmp_path), execute_fn=constant_execute
            ) as (server, client):
                response = await raw_exchange(server, *chunks)
                assert status_of(response) == 200
                events = [json.loads(line) for line in body_lines(response)]
                assert [e["event"] for e in events] == ["accepted", "result"]
                assert events[-1]["metrics"] == {"makespan": 2.0}

        asyncio.run(body())
        assert reads["n"] >= len(chunks)

    @pytest.mark.parametrize(
        "raw, status, error",
        [
            (b"GET /healthz HTTP/1.1\r\nx-pad: " + b"a" * (64 * 1024) + b"\r\n\r\n",
             413, "request head too large"),
            (b"GET /healthz HTTP/1.1\r\nx-pad: " + b"a" * (64 * 1024 + 8),
             413, "request head too large"),
            (b"POST /v1/schedule HTTP/1.1\r\ncontent-length: %d\r\n\r\n"
             % (8 * 1024 * 1024 + 1), 413, "request body too large"),
            (b"POST /v1/schedule HTTP/1.1\r\n\r\n", 400,
             "POST requires Content-Length"),
            (b"POST /v1/schedule HTTP/1.1\r\ncontent-length: ten\r\n\r\n", 400,
             "malformed Content-Length"),
            (b"GET /healthz\r\n\r\n", 400, "malformed request line 'GET /healthz'"),
            (b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400,
             "malformed header line 'no colon here'"),
        ],
        ids=["head-64k", "head-64k-unterminated", "body-8m", "post-no-length",
             "bad-length", "request-line", "header-colon"],
    )
    def test_limits_and_malformed_input(self, raw, status, error):
        async def body():
            async with running_server(cache_dir=None) as (server, client):
                response = await raw_exchange(server, raw)
                assert status_of(response) == status
                assert json.loads(body_lines(response)[0]) == {"error": error}

        asyncio.run(body())

    def test_truncated_head_then_eof_is_400(self):
        async def body():
            async with running_server(cache_dir=None) as (server, client):
                response = await raw_exchange(
                    server, b"GET /healthz HTTP/1.1\r\nhost: x", eof=True
                )
                assert status_of(response) == 400
                assert json.loads(body_lines(response)[0]) == {
                    "error": "truncated request head"}

        asyncio.run(body())

    def test_clean_eof_gets_no_response(self):
        async def body():
            async with running_server(cache_dir=None) as (server, client):
                assert await raw_exchange(server, eof=True) == b""
                assert (await client.health())["status"] == "ok"

        asyncio.run(body())


class Spy:
    """Counts server tasks started, jobs enqueued and connection writes."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.reset()
        write = server_mod._Connection.write

        def counting_write(conn, data):
            self.writes += 1
            write(conn, data)

        monkeypatch.setattr(server_mod._Connection, "write", counting_write)

    def reset(self):
        self.tasks, self.enqueued, self.writes = [], [], 0

    def watch(self, server):
        """Count on the running loop and on *server*'s pending queue."""
        loop = asyncio.get_running_loop()
        create_task, pending = loop.create_task, server.queue._pending
        put = pending.put_nowait

        def counting_task(coro, **kwargs):
            if coro.cr_frame.f_globals.get("__name__", "").startswith("repro."):
                self.tasks.append(coro.__qualname__)
            return create_task(coro, **kwargs)

        def counting_put(job):
            self.enqueued.append(job.id)
            put(job)

        self.monkeypatch.setattr(loop, "create_task", counting_task)
        self.monkeypatch.setattr(pending, "put_nowait", counting_put)


class FakeTransport(asyncio.Transport):
    def __init__(self):
        super().__init__()
        self.written, self.closing = [], False

    def write(self, data):
        self.written.append(data)

    def is_closing(self):
        return self.closing

    def close(self):
        self.closing = True


class TestConnectionWriter:
    """The streamed answer's writer honours the transport's flow control."""

    def make(self):
        server = ScheduleServer()
        conn = server_mod._Connection(server)
        transport = FakeTransport()
        conn.connection_made(transport)
        return server, conn, transport

    def test_drain_waits_for_resume_writing(self):
        async def body():
            server, conn, transport = self.make()
            await asyncio.wait_for(conn.drain(), 1)  # not paused: no wait
            conn.pause_writing()
            waiter = asyncio.ensure_future(conn.drain())
            await asyncio.sleep(0.01)
            assert not waiter.done()
            conn.resume_writing()
            await asyncio.wait_for(waiter, 1)
            conn.write(b"x")
            assert transport.written == [b"x"]
            assert server._connections == {conn}

        asyncio.run(body())

    def test_a_lost_client_wakes_drain_and_silences_writes(self):
        async def body():
            server, conn, transport = self.make()
            conn.pause_writing()
            waiter = asyncio.ensure_future(conn.drain())
            await asyncio.sleep(0.01)
            transport.closing = True
            conn.connection_lost(ConnectionResetError())
            await asyncio.wait_for(waiter, 1)
            await asyncio.wait_for(conn.drain(), 1)
            conn.write(b"late")
            assert transport.written == []
            assert not server._connections

        asyncio.run(body())


class TestAnswerAtAdmission:
    """A submit the cache answers whole is settled in the protocol callback."""

    @pytest.fixture
    def spy(self, monkeypatch):
        return Spy(monkeypatch)

    def test_warm_single_and_all_hit_batch_start_no_task(self, tmp_path, spy):
        async def body():
            async with running_server(
                cache_dir=str(tmp_path), execute_fn=constant_execute
            ) as (server, client):
                spy.watch(server)
                cold = await client.submit(make_request())
                assert not cold[-1]["cached"]
                # Positive control: a miss streams from a task and enqueues.
                assert "ScheduleServer._finish" in spy.tasks
                assert spy.enqueued == [cold[0]["job"]]
                await client.submit_batch(BATCH)
                spy.reset()

                warm = await client.submit(make_request())
                assert warm[-1]["cached"] is True
                assert spy.tasks == [] and spy.enqueued == []
                assert spy.writes == 1

                warm_batch = await client.submit_batch(BATCH)
                kinds = [e["event"] for e in warm_batch]
                assert kinds == ["accepted", "result", "result", "result", "batch_done"]
                assert all(e["cached"] for e in warm_batch[1:-1])
                assert spy.tasks == [] and spy.enqueued == []
                assert spy.writes == 2

                stats = await client.stats()
                assert stats["queue"]["submitted"] == 8
                assert stats["queue"]["succeeded"] == 8
                assert stats["queue"]["depth"] == 0
                assert stats["dispatcher"]["requests"] == 8
                assert stats["dispatcher"]["cache_hits"] == 5  # cold batch: 1
                assert stats["dispatcher"]["executed"] == 3

        asyncio.run(body())

    def test_warm_answer_keeps_the_admission_snapshot(self, tmp_path):
        raw = post_bytes("/v1/schedule", make_request().canonical_json().encode())

        async def body():
            async with running_server(
                cache_dir=str(tmp_path), execute_fn=constant_execute
            ) as (server, client):
                cold = await raw_exchange(server, raw)
                warm = await raw_exchange(server, raw)
                again = await raw_exchange(server, raw)
                assert cold.split(b"\r\n\r\n")[0] == warm.split(b"\r\n\r\n")[0]
                cold_lines, warm_lines = body_lines(cold), body_lines(warm)
                assert len(warm_lines) == 2
                assert mask_job(cold_lines[0]) == mask_job(warm_lines[0])
                assert json.loads(warm_lines[0])["state"] == "queued"
                assert mask_job(warm_lines[1]) == mask_job(body_lines(again)[1])
                result = json.loads(warm_lines[1])
                assert (result["state"], result["attempts"], result["cached"]) == (
                    "succeeded", 1, True)
                status = await client.job(result["job"])
                assert status == {k: v for k, v in result.items()
                                  if k not in ("event", "elapsed_s", "metrics")}

        asyncio.run(body())

    def test_hit_at_capacity_is_still_429(self, tmp_path):
        async def body():
            release = asyncio.Event()
            loop = asyncio.get_running_loop()

            def execute(spec):
                if spec.algorithm == "heft-avg":
                    asyncio.run_coroutine_threadsafe(release.wait(), loop).result()
                return {"makespan": 1.0}

            async with running_server(
                cache_dir=str(tmp_path), capacity=1, concurrency=1, execute_fn=execute
            ) as (server, client):
                await client.submit(make_request())  # now cached
                blocker = await client.request(
                    "POST", "/v1/schedule?wait=0",
                    make_request(policy=PolicySpec(algorithm="heft-avg")).to_dict(),
                )
                assert blocker.status == 202
                before = (await client.stats())["dispatcher"]
                with pytest.raises(ServiceError) as info:
                    await client.submit(make_request())
                assert info.value.status == 429
                with pytest.raises(ServiceError) as info:
                    await client.submit_batch({"requests": [make_request().to_dict()]})
                assert info.value.status == 429
                stats = await client.stats()
                assert stats["queue"]["rejected"] == 2
                assert stats["dispatcher"]["requests"] == before["requests"]
                assert stats["dispatcher"]["cache_hits"] == before["cache_hits"]
                release.set()

        asyncio.run(body())

    def test_batch_with_a_miss_runs_every_item_through_the_queue(self, tmp_path):
        async def body():
            async with running_server(
                cache_dir=str(tmp_path), execute_fn=constant_execute
            ) as (server, client):
                await client.submit(make_request())  # item 0 is warm
                events = await client.submit_batch(BATCH)
                assert [e["cached"] for e in events[1:-1]] == [True, False, False]
                assert events[-1]["succeeded"] == 3
                stats = (await client.stats())["dispatcher"]
                assert (stats["requests"], stats["cache_hits"]) == (4, 1)

        asyncio.run(body())

    def test_evicted_job_is_404(self, tmp_path, monkeypatch):
        monkeypatch.setattr(jobs_mod, "SETTLED_RETAINED", 2)

        async def body():
            async with running_server(
                cache_dir=str(tmp_path), execute_fn=constant_execute
            ) as (server, client):
                ids = [(await client.submit(make_request()))[0]["job"]
                       for _ in range(3)]
                with pytest.raises(ServiceError) as info:
                    await client.job(ids[0])
                assert info.value.status == 404
                assert (await client.job(ids[2]))["state"] == "succeeded"

        asyncio.run(body())


class TestStreamFaults:
    """Clients that go away and failures after the NDJSON head."""

    @staticmethod
    def recorder():
        recorded = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: recorded.append(context)
        )
        return recorded

    def test_client_gone_after_accepted_on_a_miss(self, tmp_path):
        calls = {"n": 0}

        async def body():
            recorded = self.recorder()
            release = asyncio.Event()
            loop = asyncio.get_running_loop()

            def execute(spec):
                calls["n"] += 1
                asyncio.run_coroutine_threadsafe(release.wait(), loop).result()
                return {"makespan": 4.0}

            async with running_server(
                cache_dir=str(tmp_path), execute_fn=execute
            ) as (server, client):
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(post_bytes(
                    "/v1/schedule", make_request().canonical_json().encode()))
                await reader.readuntil(b"\r\n\r\n")
                accepted = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                release.set()
                job = server.queue.get(accepted["job"])
                await server.queue.wait(job)
                assert job.state.value == "succeeded" and not job.cached
                again = await client.submit(make_request())
                assert again[-1]["cached"] is True
            return recorded

        assert asyncio.run(body()) == []
        assert calls["n"] == 1

    def test_client_gone_mid_batch(self, tmp_path):
        calls = {"n": 0}

        async def body():
            recorded = self.recorder()
            release = asyncio.Event()
            loop = asyncio.get_running_loop()

            def execute(spec):
                calls["n"] += 1
                if spec.algorithm != "heteroprio-min":
                    asyncio.run_coroutine_threadsafe(release.wait(), loop).result()
                return {"makespan": 4.0}

            async with running_server(
                cache_dir=str(tmp_path), concurrency=1, execute_fn=execute
            ) as (server, client):
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(post_bytes("/v1/batch", json.dumps(BATCH).encode()))
                await reader.readuntil(b"\r\n\r\n")
                accepted = json.loads(await reader.readline())
                first = json.loads(await reader.readline())
                assert first["event"] == "result"
                writer.close()
                await writer.wait_closed()
                release.set()
                jobs = [server.queue.get(job_id) for job_id in accepted["batch"]]
                await server.queue.wait_batch(jobs)
                assert all(job.state.value == "succeeded" for job in jobs)
                again = await client.submit_batch(BATCH)
                assert all(e["cached"] for e in again[1:-1])
            return recorded

        assert asyncio.run(body()) == []
        assert calls["n"] == 3

    def test_full_disk_mid_batch_ends_with_one_error_event(self, tmp_path):
        async def body():
            async with running_server(
                cache_dir=str(tmp_path), execute_fn=constant_execute
            ) as (server, client):

                async def full_disk(specs, *, tenant=""):
                    raise OSError(errno.ENOSPC, "No space left on device")

                server.dispatcher.prefetch = full_disk
                response = await raw_exchange(
                    server, post_bytes("/v1/batch", json.dumps(BATCH).encode()))
                assert response.count(b"HTTP/1.1") == 1
                lines = [json.loads(line) for line in body_lines(response)]
                assert [e["event"] for e in lines] == ["accepted", "error"]
                assert lines[-1] == {
                    "event": "error",
                    "error": "OSError: [Errno 28] No space left on device",
                }
                # The client reads the error event instead of dying on it.
                events = await client.submit_batch(
                    {"requests": [make_request(tenant="u").to_dict()]})
                assert [e["event"] for e in events] == ["accepted", "error"]
                # The admitted jobs still settle, and their results are kept.
                jobs = [server.queue.get(job_id) for job_id in lines[0]["batch"]]
                await server.queue.wait_batch(jobs)
                assert all(job.state.value == "succeeded" for job in jobs)
                warm = await client.submit_batch(BATCH)
                assert [e["event"] for e in warm][-1] == "batch_done"

        asyncio.run(body())

    def test_close_awaits_the_streams_it_started(self, tmp_path):
        async def body():
            release = asyncio.Event()
            loop = asyncio.get_running_loop()

            def execute(spec):
                asyncio.run_coroutine_threadsafe(release.wait(), loop).result()
                return {"makespan": 1.0}

            server = ScheduleServer(
                cache_dir=str(tmp_path), capacity=8, concurrency=1,
                execute_fn=execute,
            )
            await server.start()
            client = ServiceClient(server.host, server.port)
            events: list = []

            async def consume():
                async for event in client.stream(
                    "POST", "/v1/schedule", make_request().to_dict()
                ):
                    events.append(event)

            consumer = asyncio.ensure_future(consume())
            while not events:
                await asyncio.sleep(0.01)
            assert server._tasks
            await server.close()
            assert not server._tasks
            release.set()
            await asyncio.wait_for(consumer, 10)
            assert [e["event"] for e in events] == ["accepted", "cancelled"]
            assert events[-1]["error"] == "server shutting down"

        asyncio.run(body())
