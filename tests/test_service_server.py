"""End-to-end tests for the HTTP service (repro.service.server + client).

Each test boots a real :class:`ScheduleServer` on an ephemeral port
inside ``asyncio.run`` and talks to it over a socket with the stdlib
client — the full wire path, no mocks between HTTP and the engine.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math

import pytest

from repro import io
from repro.campaign import CODE_VERSION, InstanceSpec, execute_spec
from repro.campaign import spec as spec_mod
from repro.campaign.cache import encode_value
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


async def post_raw(server: ScheduleServer, path: str, body: bytes) -> int:
    """POST *body* verbatim (no JSON encoding); returns the HTTP status."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    head = f"POST {path} HTTP/1.1\r\ncontent-length: {len(body)}\r\n\r\n"
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
    status = int((await reader.readline()).split()[1])
    await reader.read()
    writer.close()
    await writer.wait_closed()
    return status


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
