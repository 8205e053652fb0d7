# repro-lint: disable=wall-clock -- client-side round-trip timing of the benchmark's load generator; never a program result
"""The ``serve`` workload's request stream and closed-loop client.

The stream is a sequence of :data:`BLOCKS` blocks, each
:data:`BATCH_EVERY` single ``/v1/schedule`` requests followed by one
``/v1/batch``.  The singles draw on a universe of 126 distinct requests
— factorization families at sizes 4-12, ``dag`` and ``independent``
modes, every policy family including ``buckets``, two tenants.  Each
block introduces two of them for the first time (the cold misses) at
fixed slots, in a fixed order, so every run misses on the same 64
requests at the same points; the other
singles repeat requests already seen, Zipf-like over a popularity order
shuffled by the seed (memory-tier hits).  Each batch holds
:data:`BATCH_SEEDS` fresh ``layered`` seeds derived from the seed under
each independent algorithm — three lockstep groups of ``MIN_BATCH``
rows, which the server prefetches through the batch engine; every batch
carries the same mix, so batch latencies form one cluster.
:func:`closed_loop` runs the stream over :data:`CONNECTIONS`
connections, each sending its next operation only when the previous one
has finished.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any

from repro.campaign import derive_seeds
from repro.service.client import ServiceClient, ServiceError

now = time.monotonic

FAMILIES = ("cholesky", "qr", "lu")
SIZES = (4, 8, 12)
DAG_ALGORITHMS = ("heteroprio-min", "heft-avg", "dualhp-min", "buckets-avg")
INDEPENDENT_ALGORITHMS = ("heteroprio", "dualhp", "heft")
TENANTS = ("", "beta")
ZIPF_EXPONENT = 1.1
#: Blocks in the stream: 1280 singles (13 beyond their p99) and 32
#: batches, a cold stream of about 4 s on a quiet host.
BLOCKS = 32
#: Singles per block; each block ends with one batch.  Long enough that
#: p99 of the cold singles falls in the dense band of requests that
#: waited behind a batch, not among the few heaviest misses, whose order
#: shifts from run to run.
BATCH_EVERY = 40
#: Slots of a block's two first-time requests (its cold misses).
MISS_SLOTS = (0, 20)
BATCH_SEEDS = 4
BATCH_SIZE = 8
CONNECTIONS = 2
#: Size of the warm-up requests: outside the stream, so they warm the
#: lazy imports and salt closures without caching any stream result.
WARMUP_SIZE = 2


def request(family: str, size: int, algorithm: str, mode: str,
            tenant: str = "", seed: int | None = None) -> dict[str, Any]:
    return {
        "workload": {"family": family, "size": size, "seed": seed},
        "policy": {"algorithm": algorithm, "mode": mode},
        "tenant": tenant,
    }


def key(payload: dict[str, Any]) -> str:
    """Tenant-independent label of a single request (its reference key)."""
    w, p = payload["workload"], payload["policy"]
    seed = "" if w.get("seed") is None else f"@{w['seed']}"
    return f"{w['family']}{w['size']}{seed}:{p['algorithm']}[{p['mode']}]"


def universe(sizes: tuple[int, ...] = SIZES, tenants: tuple[str, ...] = TENANTS) -> list[dict]:
    """Every distinct single request the stream draws from."""
    return [
        request(family, size, algorithm, mode, tenant)
        for tenant in tenants
        for family in FAMILIES
        for size in sizes
        for mode, algorithms in (("dag", DAG_ALGORITHMS),
                                 ("independent", INDEPENDENT_ALGORITHMS))
        for algorithm in algorithms
    ]


@dataclass
class Op:
    kind: str  # "single" or "batch"
    payload: dict[str, Any]

    @property
    def path(self) -> str:
        return "/v1/schedule" if self.kind == "single" else "/v1/batch"


def batch(seeds: list[int], size: int, tenant: str = "") -> Op:
    return Op("batch", {
        "kind": "batch",
        "requests": [request("layered", size, algorithm, "independent", tenant, s)
                     for algorithm in INDEPENDENT_ALGORITHMS for s in seeds],
    })


def stream(seed: int) -> list[Op]:
    """The timed operation sequence of one run (1280 singles, 32 batches)."""
    cold = universe()
    random.Random(0).shuffle(cold)  # the miss order: the same for every seed
    rng = random.Random(seed)
    popularity = list(range(len(cold)))
    rng.shuffle(popularity)
    weight = {i: 1.0 / (rank + 1) ** ZIPF_EXPONENT for rank, i in enumerate(popularity)}
    blocks = BLOCKS
    assert blocks * len(MISS_SLOTS) <= len(cold)
    batch_seeds = derive_seeds(seed, blocks * BATCH_SEEDS)
    seen: list[int] = []
    ops: list[Op] = []
    for b in range(blocks):
        for slot in range(BATCH_EVERY):
            if slot in MISS_SLOTS:
                seen.append(len(seen))
                index = seen[-1]
            else:
                index = rng.choices(seen, [weight[i] for i in seen])[0]
            ops.append(Op("single", cold[index]))
        ops.append(batch(list(batch_seeds[b * BATCH_SEEDS:(b + 1) * BATCH_SEEDS]),
                         BATCH_SIZE, TENANTS[b % len(TENANTS)]))
    return ops


def warmup_ops() -> list[Op]:
    """Requests that warm the server's lazy set-up, outside the stream."""
    ops = [Op("single", payload)
           for payload in universe(sizes=(WARMUP_SIZE,), tenants=("",))]
    ops.append(batch([1, 2, 3, 4], 6))
    return ops


@dataclass
class OpResult:
    op: Op
    sent: float
    accepted: float | None = None
    finished: float | None = None
    status: int = 200
    events: list[dict[str, Any]] = field(default_factory=list)

    @property
    def latency_ms(self) -> float:
        end = self.finished if self.finished is not None else self.sent
        return (end - self.sent) * 1000.0

    @property
    def accept_ms(self) -> float | None:
        return None if self.accepted is None else (self.accepted - self.sent) * 1000.0

    def results(self) -> list[dict[str, Any]]:
        return [e for e in self.events if e.get("event") == "result"]


_TERMINAL = {"single": ("result", "error", "cancelled"), "batch": ("batch_done",)}


async def _one(client: ServiceClient, op: Op) -> OpResult:
    result = OpResult(op, now())
    try:
        async for event in client.stream("POST", op.path, op.payload):
            stamp = now()
            result.events.append(event)
            kind = event.get("event")
            if kind == "accepted" and result.accepted is None:
                result.accepted = stamp
            if kind in _TERMINAL[op.kind]:
                result.finished = stamp
    except ServiceError as exc:
        result.status = exc.status
    except (ConnectionError, OSError, asyncio.IncompleteReadError):
        result.status = 0
    return result


async def _loop(port: int, ops: list[Op], connections: int
                ) -> tuple[list[OpResult], float, float]:
    client = ServiceClient("127.0.0.1", port)
    results: list[OpResult | None] = [None] * len(ops)
    indices = iter(range(len(ops)))

    async def connection() -> None:
        for i in indices:
            results[i] = await _one(client, ops[i])

    start = now()
    await asyncio.gather(*(connection() for _ in range(connections)))
    return [r for r in results if r is not None], start, now()


#: Give up on a stream (a hung server) well before a run's time limit.
STREAM_TIMEOUT_S = 120.0


def closed_loop(port: int, ops: list[Op], connections: int = CONNECTIONS
                ) -> tuple[list[OpResult], float, float]:
    """Run *ops* closed-loop; returns ``(results, start, end)``."""
    return asyncio.run(asyncio.wait_for(_loop(port, ops, connections), STREAM_TIMEOUT_S))


def server_stats(port: int) -> dict[str, Any]:
    """The server's ``/v1/stats`` snapshot."""
    return asyncio.run(ServiceClient("127.0.0.1", port).stats())
