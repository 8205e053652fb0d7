# repro-lint: disable=wall-clock -- time.monotonic here times executor round
# trips for the stats endpoint only; metrics payloads are computed by
# execute_spec, which is deterministic in the spec and never sees the clock.
"""The bridge between the async service and the campaign engine.

One :class:`Dispatcher` owns the compute resources of a server:

* **warm path** — a request whose spec is already in the tenant's
  :class:`~repro.campaign.cache.ResultCache` is answered without
  touching an executor (counted in ``cache_hits``): from the in-process
  memory tier when it is warm — a ``prefetch`` or an earlier request
  populates it — falling back to a disk read that feeds the tier.
  :meth:`Dispatcher.lookup` is that path, synchronous: the server
  answers an all-hit submit with it at admission, and
  :meth:`Dispatcher.run` starts with it;
* **single-flight** — concurrent requests for the same (tenant, spec
  hash) coalesce onto one in-flight execution; followers await the
  leader's future instead of recomputing (counted in ``coalesced``);
* **cold path** — misses run :func:`repro.campaign.execute_spec_cached`
  on a ``multiprocessing`` pool via ``loop.run_in_executor`` (the pool
  blocks a default-executor thread, the simulation runs in a forked
  worker), so CPU-bound scheduling work never stalls the event loop;
* **tenant namespaces** — each tenant's results live under
  ``<cache root>/tenants/<tenant>/``; the tenant is folded into the
  cache *directory*, never into the content hash, so identical specs
  share a key across namespaces while their entries stay isolated.
  Compiled graphs are tenant-independent content and stay shared in
  ``<cache root>/graphs`` via the campaign
  :class:`~repro.campaign.graph_store.GraphStore`.

``workers=0`` runs simulations inline on the default thread executor,
serialised by a lock (the per-process graph memos are mutable shared
state) — the deterministic mode the tests and CI smoke runs use.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.campaign.cache import CacheStats, ResultCache
from repro.campaign.executor import (
    ensure_graph_store,
    execute_spec_batch,
    execute_spec_cached,
    plan_units,
)
from repro.campaign.spec import CODE_VERSION, InstanceSpec

__all__ = ["DispatchResult", "Dispatcher", "namespaced_cache"]


def namespaced_cache(cache: ResultCache, tenant: str) -> ResultCache:
    """The per-tenant view of *cache*: same salt, tenant-scoped directory.

    The empty tenant is the root namespace (the cache itself), so
    anonymous requests and the ``repro campaign`` CLI share entries.
    """
    if not tenant:
        return cache
    return ResultCache(cache.root / "tenants" / tenant, salt=cache.salt)


@dataclass(frozen=True)
class DispatchResult:
    """What one dispatched request produced."""

    metrics: dict[str, Any]
    cached: bool
    coalesced: bool
    elapsed_s: float
    key: str


class Dispatcher:
    """Cache-aware, deduplicating executor front end (one per server)."""

    def __init__(
        self,
        cache_root: str | Path | None,
        *,
        salt: str = CODE_VERSION,
        workers: int = 0,
        execute_fn: Callable[[InstanceSpec], dict[str, Any]] | None = None,
    ):
        self.salt = salt
        self._root_cache = (
            None if cache_root is None else ResultCache(cache_root, salt=salt)
        )
        self._tenant_caches: dict[str, ResultCache] = {}
        self._inflight: dict[
            tuple[str, str], "asyncio.Future[tuple[str, Any]]"
        ] = {}
        self._execute_fn = execute_fn
        self._inline_lock = asyncio.Lock()
        self._pool: Any = None
        if workers > 0 and execute_fn is None:
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
            self._pool = ctx.Pool(processes=workers)
        self.workers = workers if self._pool is not None else 0
        if self._root_cache is not None:
            # Forked pool workers inherit the process-global graph store,
            # so every process of the service shares one on-disk set of
            # compiled graphs (graph content is tenant-independent).
            ensure_graph_store(self._root_cache.root / "graphs", salt=salt)
        self.counters = {
            "requests": 0,
            "cache_hits": 0,
            "executed": 0,
            "coalesced": 0,
            "prefetched": 0,
            "errors": 0,
        }
        #: Per-algorithm counts of prefetch misses the ``dag-mode``
        #: routing rule keeps scalar (they stay cold until requested
        #: through the scalar path).
        self.prefetch_fallbacks: dict[str, int] = {}

    # -- caches --------------------------------------------------------------

    def cache_for(self, tenant: str) -> ResultCache | None:
        """The tenant's namespace cache (memoised), or ``None`` uncached."""
        if self._root_cache is None:
            return None
        cache = self._tenant_caches.get(tenant)
        if cache is None:
            cache = namespaced_cache(self._root_cache, tenant)
            self._tenant_caches[tenant] = cache
        return cache

    # -- execution -----------------------------------------------------------

    def lookup(
        self, items: Sequence[tuple[InstanceSpec, str]]
    ) -> list[DispatchResult] | None:
        """The warm hits of every ``(spec, tenant)`` in *items*, or ``None``.

        Probes the tenant caches in order and stops at the first miss,
        counting nothing.  When every item hits, each counts as one
        served request and one cache hit.
        """
        hits = []
        for spec, tenant in items:
            cache = self.cache_for(tenant)
            entry = None if cache is None else cache.get(spec)
            if entry is None:
                return None
            hits.append(
                DispatchResult(
                    metrics=entry["metrics"],
                    cached=True,
                    coalesced=False,
                    elapsed_s=float(entry.get("elapsed_s", 0.0)),
                    key=spec.spec_hash(salt=self.salt),
                )
            )
        self.counters["requests"] += len(hits)
        self.counters["cache_hits"] += len(hits)
        return hits

    async def run(self, spec: InstanceSpec, *, tenant: str = "") -> DispatchResult:
        """Resolve one spec: warm hit, coalesced follow, or cold execute."""
        hits = self.lookup([(spec, tenant)])
        if hits is not None:
            return hits[0]
        self.counters["requests"] += 1
        key = spec.spec_hash(salt=self.salt)
        cache = self.cache_for(tenant)

        flight = (tenant, key)
        leader_future = self._inflight.get(flight)
        if leader_future is not None:
            self.counters["coalesced"] += 1
            outcome, value = await leader_future
            if outcome == "err":
                raise value
            return replace(value, coalesced=True)

        loop = asyncio.get_running_loop()
        future: "asyncio.Future[tuple[str, Any]]" = loop.create_future()
        self._inflight[flight] = future
        try:
            result = await self._execute(spec, cache, key)
        except BaseException as exc:
            self.counters["errors"] += 1
            # Settle followers with the same failure; a plain tuple (not
            # set_exception) so an unobserved future never warns.
            future.set_result(("err", exc))
            raise
        else:
            future.set_result(("ok", result))
            return result
        finally:
            self._inflight.pop(flight, None)

    async def prefetch(
        self, specs: list[InstanceSpec], *, tenant: str = ""
    ) -> int:
        """Warm the tenant cache by lockstep-batching the cold specs.

        Plans the cache misses of *specs* like a campaign does
        (:func:`repro.campaign.executor.plan_units`) and runs each batch
        unit through the vectorized batch engine, writing the results
        into *both* tiers of the tenant's cache — the parent-side
        ``put`` feeds the in-process memory tier, so the per-request
        lookups that follow are memory hits, not disk reads.  Specs
        planned as scalar units are left to the per-request path.
        Best-effort and bit-exact: payloads are identical to the scalar
        path, so a request racing ahead of the warm-up merely
        recomputes the same entry.  Returns the number of specs warmed
        (0 when uncached, running behind a test execute seam, or when
        no group reaches the lockstep threshold).
        """
        cache = self.cache_for(tenant)
        if cache is None or self._execute_fn is not None:
            return 0
        misses = [spec for spec in specs if cache.get(spec) is None]
        units, by_algorithm, _ = plan_units(misses)
        for alg, count in by_algorithm.items():
            self.prefetch_fallbacks[alg] = (
                self.prefetch_fallbacks.get(alg, 0) + count
            )
        groups = [unit.specs for unit in units if unit.batched]
        if not groups:
            return 0
        loop = asyncio.get_running_loop()
        warmed = 0
        # The batch engine runs in the parent either way (numpy releases
        # the GIL); the inline lock serialises it against inline-mode
        # scalar executions sharing the per-process graph memos.
        async with self._inline_lock:
            for batch_specs in groups:
                started = time.monotonic()
                payloads = await loop.run_in_executor(
                    None, execute_spec_batch, batch_specs
                )
                if payloads is None:
                    continue
                elapsed = (time.monotonic() - started) / len(batch_specs)
                for spec, metrics in zip(batch_specs, payloads):
                    cache.put(spec, metrics, elapsed_s=elapsed)
                warmed += len(batch_specs)
        self.counters["prefetched"] += warmed
        return warmed

    async def _execute(
        self, spec: InstanceSpec, cache: ResultCache | None, key: str
    ) -> DispatchResult:
        loop = asyncio.get_running_loop()
        started = time.monotonic()
        if self._execute_fn is not None:
            # Test seam: run the injected callable inline (serialised —
            # stubs may share state just like the real graph memos).
            fn = self._execute_fn
            async with self._inline_lock:
                metrics = await loop.run_in_executor(None, fn, spec)
            cached = False
            elapsed_s = time.monotonic() - started
            if cache is not None:
                cache.put(spec, metrics, elapsed_s=elapsed_s)
        elif self._pool is not None:
            # The blocking pool round trip parks on a default-executor
            # thread; the simulation itself runs in a forked worker.
            # Workers check and feed the tenant cache themselves (atomic
            # writes), so a result is durable the moment it returns.
            pool = self._pool
            metrics, cached, elapsed_s = await loop.run_in_executor(
                None, pool.apply, execute_spec_cached, (spec, cache)
            )
        else:
            # Inline mode: the per-process graph memos are shared mutable
            # state, so simulations are serialised by the lock.
            async with self._inline_lock:
                metrics, cached, elapsed_s = await loop.run_in_executor(
                    None, execute_spec_cached, spec, cache
                )
        if not cached:
            self.counters["executed"] += 1
        else:
            self.counters["cache_hits"] += 1
        return DispatchResult(
            metrics=metrics,
            cached=cached,
            coalesced=False,
            elapsed_s=elapsed_s,
            key=key,
        )

    # -- observation / lifecycle ---------------------------------------------

    def cache_tier_stats(self) -> dict[str, int]:
        """Tier counters summed over the root + tenant caches.

        Parent-process view: pool workers keep their own (discarded)
        counters, so in pool mode this reflects the warm path the
        dispatcher itself served — memory-tier hits from ``run`` and
        ``prefetch`` promotions included.
        """
        caches: dict[int, ResultCache] = {}
        if self._root_cache is not None:
            caches[id(self._root_cache)] = self._root_cache
        for cache in self._tenant_caches.values():
            caches[id(cache)] = cache  # tenant "" aliases the root cache
        total = CacheStats()
        for cache in caches.values():
            for name, value in cache.stats.to_dict().items():
                setattr(total, name, getattr(total, name) + value)
        return total.to_dict()

    def stats(self) -> dict[str, Any]:
        return {
            **self.counters,
            "prefetch_fallbacks": dict(sorted(self.prefetch_fallbacks.items())),
            "mode": "pool" if self._pool is not None else "inline",
            "workers": self.workers,
            "inflight": len(self._inflight),
            "tenants": sorted(self._tenant_caches),
            "cache_root": (
                None if self._root_cache is None else str(self._root_cache.root)
            ),
            "salt": self.salt,
            "cache_tiers": self.cache_tier_stats(),
        }

    def close(self) -> None:
        """Terminate the worker pool (idempotent; safe on error paths)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()
