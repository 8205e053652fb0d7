# repro-lint: disable=wall-clock -- this module exists to time the program's layers; its clock reads feed the benchmark's span file only, never a program result
"""Span recorder for traced benchmark runs.

:func:`install` wraps the public functions of each ``src/repro`` layer
with timing shims and rebinds every reference to them — module globals
bound with ``from X import f``, module-level registry dicts such as
``executor._INDEPENDENT_SCHEDULERS`` and class attributes — so the
program calls the shims without being edited.  Spans are kept in memory
and written as one JSON document by :meth:`Recorder.dump` when the
traced process ends.

A span is ``(id, parent, name, start, end, thread, corr, tag)``: the
parent is the innermost open span of the same thread or asyncio task
(a :mod:`contextvars` variable), ``corr`` the correlation id (the spec
label, or the random graph's seed state) and ``tag`` a per-call detail
(policy family for ``simulator.simulate``, cache tier for
``cache.get``, row count for the lockstep kernels).  Coroutine layers
(the service dispatcher) record one span per resumption, so time spent
suspended — waiting for the inline lock or an executor thread — is not
charged to them.

Forked children (work-stealing workers) inherit the shims but record
nothing: ``os.register_at_fork`` disables the recorder in the child.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable

now = time.monotonic  # CLOCK_MONOTONIC: comparable across processes


class Recorder:
    """In-memory span and counter store of one traced process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.outcomes: list[dict] = []  # CampaignStats of each run_campaign
        self.units = 0  # work units planned by plan_units
        self.enabled = True
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        corr: Any = None,
        tag: Callable[[Any], Any] | Any = None,
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside one span named *name*."""
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        start = now()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = now()
            self._current.reset(token)
            if callable(tag):
                tag = tag(result)
            self.spans.append(
                (sid, parent, name, start, end, threading.get_ident(), corr, tag)
            )

    async def call_async(
        self, name: str, coro: Any, corr: Any = None
    ) -> Any:
        """Await *coro*, recording one span per resumption of it.

        The segments of one call share its call id as their tag.
        """
        call_id = next(self._ids)
        inner = coro.__await__()
        to_send: Any = None
        to_throw: BaseException | None = None
        while True:
            sid = next(self._ids)
            parent = self._current.get()
            token = self._current.set(sid)
            start = now()
            try:
                if to_throw is not None:
                    yielded = inner.throw(to_throw)
                else:
                    yielded = inner.send(to_send)
            except StopIteration as stop:
                return stop.value
            finally:
                self._current.reset(token)
                self.spans.append(
                    (sid, parent, name, start, now(), threading.get_ident(), corr, call_id)
                )
            try:
                to_send, to_throw = await _Yield(yielded), None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # forwarded into the coroutine
                to_send, to_throw = None, exc

    def call_iter(self, name: str, gen: Any) -> Any:
        """Iterate *gen*, recording one span per ``next()``.

        The spans of one call share its call id as their tag.
        """
        call_id = next(self._ids)
        try:
            while True:
                try:
                    value = self.call(name, next, (gen,), {}, tag=call_id)
                except StopIteration:
                    return
                yield value
        finally:
            gen.close()

    def dump(self, path: str) -> None:
        """Write every span of this process, and the campaign counters, to *path*."""
        spans = [
            [sid, parent, name, start, end, thread, _corr_text(corr), tag]
            for sid, parent, name, start, end, thread, corr, tag in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": spans, "outcomes": self.outcomes, "units": self.units},
                handle,
            )


class _Yield:
    """Re-yield one value from the wrapped coroutine to the event loop."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __await__(self) -> Any:
        return (yield self.value)


def _corr_text(corr: Any) -> Any:
    if corr is None or isinstance(corr, (str, int, float)):
        return corr
    label = getattr(corr, "label", None)
    return label() if callable(label) else repr(corr)


# -- per-function details -----------------------------------------------------


def _policy_family(args: tuple) -> str:
    name = getattr(args[2], "name", "?")
    return "buckets" if name.endswith("buckets") else name.split("-", 1)[0]


def _rng_state(kwargs: dict) -> Any:
    rng = kwargs.get("rng")
    if rng is None:
        return None
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=str)


def _rows(position: int) -> Callable[[tuple], int]:
    return lambda args: len(args[position])


# -- installation -------------------------------------------------------------

#: (span name, module, attribute path) of every traced sync function.
SYNC_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("executor.run_campaign", "repro.campaign.executor", "run_campaign"),
    ("executor.plan_units", "repro.campaign.executor", "plan_units"),
    ("executor.execute_spec", "repro.campaign.executor", "execute_spec"),
    ("executor.execute_spec_batch", "repro.campaign.executor", "execute_spec_batch"),
    ("executor.execute_spec_cached", "repro.campaign.executor", "execute_spec_cached"),
    ("backends.run_work_stealing", "repro.campaign.backends", "run_work_stealing"),
    ("cache.get", "repro.campaign.cache", "ResultCache.get"),
    ("cache.put", "repro.campaign.cache", "ResultCache.put"),
    ("salts.salt_for_spec", "repro.campaign.salts", "salt_for_spec"),
    ("graph_store.get", "repro.campaign.graph_store", "GraphStore.get"),
    ("graph_store.put", "repro.campaign.graph_store", "GraphStore.put"),
    ("dag.build_compiled", "repro.dag.cholesky", "cholesky_compiled"),
    ("dag.build_compiled", "repro.dag.qr", "qr_compiled"),
    ("dag.build_compiled", "repro.dag.lu", "lu_compiled"),
    ("dag.random_graph", "repro.dag.random_graphs", "layered_random_graph"),
    ("dag.random_graph", "repro.dag.random_graphs", "random_chain_graph"),
    ("dag.assign_priorities", "repro.dag.priorities", "assign_priorities"),
    ("bounds.dag_lower_bound", "repro.bounds.dag_lp", "dag_lower_bound"),
    ("bounds.area_bound", "repro.bounds.area", "area_bound"),
    ("core.heteroprio_schedule", "repro.core.heteroprio", "heteroprio_schedule"),
    ("schedulers.heft_schedule", "repro.schedulers.heft", "heft_schedule"),
    ("schedulers.dualhp_schedule", "repro.schedulers.dualhp", "dualhp_schedule"),
    ("schedulers.batch_dualhp_schedule", "repro.schedulers.batch", "batch_dualhp_schedule"),
    ("schedulers.batch_heft_schedule", "repro.schedulers.batch", "batch_heft_schedule"),
    ("simulator.simulate", "repro.simulator.runtime", "simulate"),
    ("simulator.batch_heteroprio_schedule", "repro.simulator.batch", "batch_heteroprio_schedule"),
    ("simulator.batch_simulate_dag", "repro.simulator.batch", "batch_simulate_dag"),
)

#: (span name, module, attribute path) of every traced coroutine method.
ASYNC_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("service.dispatch", "repro.service.dispatch", "Dispatcher.run"),
    ("service.prefetch", "repro.service.dispatch", "Dispatcher.prefetch"),
)

#: Span names whose call counts every traced run reports (zero or not).
TRACED_NAMES: tuple[str, ...] = tuple(
    dict.fromkeys(name for name, _, _ in SYNC_TARGETS + ASYNC_TARGETS)
)


def _sync_shim(rec: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """The timing shim of one sync function (details per layer)."""

    if name == "simulator.simulate":
        def shim(*args: Any, **kwargs: Any) -> Any:
            if not rec.enabled:
                return fn(*args, **kwargs)
            return rec.call(name, fn, args, kwargs, tag=_policy_family(args))
    elif name in ("simulator.batch_heteroprio_schedule",
                  "schedulers.batch_dualhp_schedule",
                  "schedulers.batch_heft_schedule",
                  "simulator.batch_simulate_dag"):
        rows = _rows(1 if name == "simulator.batch_simulate_dag" else 2)

        def shim(*args: Any, **kwargs: Any) -> Any:
            if not rec.enabled:
                return fn(*args, **kwargs)
            return rec.call(name, fn, args, kwargs, tag=rows(args))
    elif name == "dag.random_graph":
        def shim(*args: Any, **kwargs: Any) -> Any:
            if not rec.enabled:
                return fn(*args, **kwargs)
            corr = (fn.__name__, args, tuple(sorted(
                (k, v) for k, v in kwargs.items() if k != "rng")), _rng_state(kwargs))
            return rec.call(name, fn, args, kwargs, corr=repr(corr))
    elif name == "cache.get":
        def shim(self: Any, spec: Any) -> Any:
            if not rec.enabled:
                return fn(self, spec)
            before = self.stats.memory_hits
            return rec.call(
                name, fn, (self, spec), {}, corr=spec,
                tag=lambda entry: None if entry is None else (
                    "memory" if self.stats.memory_hits > before else "disk"),
            )
    elif name == "graph_store.get":
        def shim(*args: Any, **kwargs: Any) -> Any:
            if not rec.enabled:
                return fn(*args, **kwargs)
            return rec.call(name, fn, args, kwargs,
                            tag=lambda graph: "hit" if graph is not None else None)
    elif name == "executor.run_campaign":
        def shim(*args: Any, **kwargs: Any) -> Any:
            if not rec.enabled:
                return fn(*args, **kwargs)
            outcome = rec.call(name, fn, args, kwargs)
            rec.outcomes.append(outcome.stats.to_dict())
            return outcome
    elif name == "executor.plan_units":
        def shim(*args: Any, **kwargs: Any) -> Any:
            if not rec.enabled:
                return fn(*args, **kwargs)
            planned = rec.call(name, fn, args, kwargs)
            rec.units += len(planned[0])
            return planned
    elif name == "backends.run_work_stealing":
        def shim(*args: Any, **kwargs: Any) -> Any:
            if not rec.enabled:
                return fn(*args, **kwargs)
            return rec.call_iter(name, fn(*args, **kwargs))
    elif name in ("executor.execute_spec", "executor.execute_spec_cached",
                  "cache.put", "salts.salt_for_spec"):
        spec_at = 1 if name == "cache.put" else 0

        def shim(*args: Any, **kwargs: Any) -> Any:
            if not rec.enabled:
                return fn(*args, **kwargs)
            return rec.call(name, fn, args, kwargs, corr=args[spec_at])
    else:
        def shim(*args: Any, **kwargs: Any) -> Any:
            if not rec.enabled:
                return fn(*args, **kwargs)
            return rec.call(name, fn, args, kwargs)

    return functools.wraps(fn)(shim)


def _async_shim(rec: Recorder, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    async def shim(self: Any, spec: Any, *args: Any, **kwargs: Any) -> Any:
        coro = fn(self, spec, *args, **kwargs)
        if not rec.enabled:
            return await coro
        corr = spec[0] if isinstance(spec, list) and spec else spec
        return await rec.call_async(name, coro, corr=corr)

    return shim


def _resolve(module: str, path: str) -> tuple[Any, str, Any]:
    owner: Any = sys.modules[module]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _rebind(original: Any, shim: Any) -> None:
    """Point every module-level reference to *original* at *shim*.

    Covers the defining module, every ``from X import f`` binding and
    module-level registry dicts; modules imported later pick the shim up
    from the defining module.
    """
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = shim
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = shim


def install() -> Recorder:
    """Import the traced layers, wrap their functions and return the recorder."""
    import importlib

    modules = {module for _, module, _ in SYNC_TARGETS + ASYNC_TARGETS}
    for module in sorted(modules) + ["repro.cli", "repro.campaign", "repro.service.cli"]:
        importlib.import_module(module)
    rec = Recorder()
    for targets, make in ((SYNC_TARGETS, _sync_shim), (ASYNC_TARGETS, _async_shim)):
        for name, module, path in targets:
            owner, attr, original = _resolve(module, path)
            shim = make(rec, name, original)
            if isinstance(owner, type):
                setattr(owner, attr, shim)
            else:
                _rebind(original, shim)
    return rec
