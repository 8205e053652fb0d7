"""Typed request/response models for the scheduling service.

The service speaks plain JSON over HTTP, but every request is parsed
into the frozen dataclasses here before anything executes — pydagu-style
typed specs with three properties the rest of the layer leans on:

* **strict validation** — unknown keys, wrong types and inconsistent
  (mode, algorithm, bound) combinations are rejected with a
  :class:`ValidationError` naming the offending field path, so a bad
  request dies at the door (HTTP 400) instead of inside a worker;
* **empty-value coercion** — ``null``, ``""``, ``{}`` and ``[]`` read
  as "field absent" and fall back to the model default, so hand-written
  ``curl`` payloads can omit or blank any optional field;
* **canonical round-tripping** — :meth:`ScheduleRequest.to_dict` /
  :meth:`ScheduleRequest.from_dict` are inverses and
  :meth:`ScheduleRequest.canonical_json` is byte-stable, mirroring the
  discipline of :mod:`repro.campaign.spec`.

A request maps 1:1 onto the campaign cache: ``to_instance_spec()``
yields the :class:`~repro.campaign.spec.InstanceSpec` the engine
executes and :meth:`ScheduleRequest.request_key` is exactly that spec's
``spec_hash`` — the tenant never enters the hash (it selects a cache
*namespace*, see :mod:`repro.service.dispatch`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.campaign.spec import CODE_VERSION, MODES, SEEDED_WORKLOADS, InstanceSpec
from repro.io import canonical_dumps

__all__ = [
    "ValidationError",
    "RetryPolicy",
    "WorkloadSpec",
    "PlatformSpec",
    "PolicySpec",
    "ScheduleRequest",
    "BatchRequest",
    "load_request",
    "load_request_text",
    "load_request_file",
    "WORKLOAD_FAMILIES",
    "INDEPENDENT_ALGORITHMS",
    "DAG_ALGORITHM_FAMILIES",
    "RANK_SCHEMES",
    "MAX_BATCH_SIZE",
]

#: Workload generator families the engine knows how to build.  Mirrors
#: the registries in :mod:`repro.campaign.executor` (duplicated so the
#: model layer stays importable without pulling in the simulator).
WORKLOAD_FAMILIES = ("chains", "cholesky", "layered", "lu", "qr")

#: Schedulers valid in ``independent`` mode (Figure 6 pipeline).
INDEPENDENT_ALGORITHMS = ("dualhp", "heft", "heteroprio")

#: Algorithm families valid in ``dag`` mode; the full name is
#: ``"<family>-<ranking>"`` (e.g. ``heteroprio-min``).
DAG_ALGORITHM_FAMILIES = ("buckets", "dualhp", "heft", "heteroprio")

#: Priority ranking schemes accepted by ``assign_priorities``.
RANK_SCHEMES = ("avg", "min", "fifo")

#: Lower-bound methods per mode.
_DAG_BOUNDS = ("auto", "lp", "mixed")
_INDEPENDENT_BOUNDS = ("area", "auto")

#: Hard ceiling on batch fan-out per request.
MAX_BATCH_SIZE = 1024

#: Tenant ids become cache directory names; keep them filesystem-safe.
_TENANT_ALLOWED = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)
_TENANT_MAX_LEN = 64


class ValidationError(ValueError):
    """A request failed validation; ``errors`` lists ``path: problem``."""

    def __init__(self, errors: list[str] | str):
        self.errors = [errors] if isinstance(errors, str) else list(errors)
        super().__init__("; ".join(self.errors))


# -- coercion helpers ---------------------------------------------------------


def _is_empty(value: Any) -> bool:
    """Pydagu-style empty-value test: absent, null, "", {} and [] coerce
    to the field default."""
    return value is None or (isinstance(value, (str, dict, list)) and not value)


def _check_keys(data: Mapping[str, Any], allowed: tuple[str, ...], path: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValidationError(
            f"{path}: unknown field(s) {', '.join(unknown)} "
            f"(expected a subset of {', '.join(allowed)})"
        )


def _as_mapping(value: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ValidationError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{path}: expected a string, got {type(value).__name__}")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if isinstance(value, bool):
        return value
    raise ValidationError(f"{path}: expected a boolean, got {type(value).__name__}")


def _as_int(value: Any, path: str, *, minimum: int | None = None) -> int:
    # Accept integral floats and numeric strings (curl payloads quote
    # freely); reject anything lossy.
    if isinstance(value, bool):
        raise ValidationError(f"{path}: expected an integer, got a boolean")
    if isinstance(value, float):
        if not value.is_integer():
            raise ValidationError(f"{path}: expected an integer, got {value!r}")
        value = int(value)
    elif isinstance(value, str):
        try:
            value = int(value, 10)
        except ValueError:
            raise ValidationError(
                f"{path}: expected an integer, got {value!r}"
            ) from None
    if not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_float(value: Any, path: str, *, minimum: float | None = None) -> float:
    if isinstance(value, bool):
        raise ValidationError(f"{path}: expected a number, got a boolean")
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise ValidationError(
                f"{path}: expected a number, got {value!r}"
            ) from None
    if not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected a number, got {type(value).__name__}")
    value = float(value)
    if minimum is not None and value < minimum:
        raise ValidationError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _field(data: Mapping[str, Any], name: str, default: Any) -> Any:
    """The value of *name* in *data*, with empty-value coercion."""
    value = data.get(name)
    return default if _is_empty(value) else value


# -- models -------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How the job queue retries a failing request.

    ``limit`` extra attempts beyond the first, waiting
    ``interval_s * backoff**(attempt-1)`` (capped at ``max_interval_s``)
    between attempts, stretched by up to ``jitter`` (a fraction) of
    deterministic, token-seeded noise so coordinated clients do not
    retry in lockstep.
    """

    limit: int = 0
    interval_s: float = 0.5
    backoff: float = 2.0
    max_interval_s: float = 30.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        errors = []
        if self.limit < 0:
            errors.append(f"retry.limit: must be >= 0, got {self.limit}")
        if self.interval_s <= 0:
            errors.append(f"retry.interval_s: must be > 0, got {self.interval_s}")
        if self.backoff < 1.0:
            errors.append(f"retry.backoff: must be >= 1, got {self.backoff}")
        if self.max_interval_s <= 0:
            errors.append(
                f"retry.max_interval_s: must be > 0, got {self.max_interval_s}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            errors.append(f"retry.jitter: must be in [0, 1], got {self.jitter}")
        if errors:
            raise ValidationError(errors)

    def delay_for(self, attempt: int, *, token: str = "") -> float:
        """Seconds to wait after failed attempt number *attempt* (1-based).

        Deterministic: the jitter fraction is drawn from a
        ``random.Random`` seeded with ``token`` and the attempt number,
        so a given (job, attempt) always waits the same time.
        """
        base = min(self.interval_s * self.backoff ** (attempt - 1), self.max_interval_s)
        if self.jitter <= 0.0:
            return base
        fraction = random.Random(f"{token}:{attempt}").random()
        return base * (1.0 + self.jitter * fraction)

    def to_dict(self) -> dict[str, Any]:
        return {
            "limit": self.limit,
            "interval_s": self.interval_s,
            "backoff": self.backoff,
            "max_interval_s": self.max_interval_s,
            "jitter": self.jitter,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, path: str = "retry") -> "RetryPolicy":
        data = _as_mapping(data, path)
        _check_keys(data, ("limit", "interval_s", "backoff", "max_interval_s", "jitter"), path)
        defaults = cls()
        return cls(
            limit=_as_int(_field(data, "limit", defaults.limit), f"{path}.limit"),
            interval_s=_as_float(
                _field(data, "interval_s", defaults.interval_s), f"{path}.interval_s"
            ),
            backoff=_as_float(
                _field(data, "backoff", defaults.backoff), f"{path}.backoff"
            ),
            max_interval_s=_as_float(
                _field(data, "max_interval_s", defaults.max_interval_s),
                f"{path}.max_interval_s",
            ),
            jitter=_as_float(_field(data, "jitter", defaults.jitter), f"{path}.jitter"),
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """What to schedule: a named generator family and its parameters."""

    family: str
    size: int
    seed: int | None = None
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.family not in WORKLOAD_FAMILIES:
            raise ValidationError(
                f"workload.family: unknown family {self.family!r} "
                f"(expected one of {', '.join(WORKLOAD_FAMILIES)})"
            )
        if self.size < 1:
            raise ValidationError(f"workload.size: must be >= 1, got {self.size}")
        if self.seed is None and self.family in SEEDED_WORKLOADS:
            raise ValidationError(
                f"workload.seed: family {self.family!r} is randomized and "
                "requires an explicit seed"
            )
        object.__setattr__(
            self, "params", tuple(sorted(tuple(p) for p in self.params))
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "size": self.size,
            "seed": self.seed,
            "params": {name: value for name, value in self.params},
        }

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], *, path: str = "workload"
    ) -> "WorkloadSpec":
        data = _as_mapping(data, path)
        _check_keys(data, ("family", "size", "seed", "params"), path)
        if _is_empty(data.get("family")):
            raise ValidationError(f"{path}.family: required")
        if _is_empty(data.get("size")):
            raise ValidationError(f"{path}.size: required")
        seed_raw = data.get("seed")
        params_raw = _field(data, "params", {})
        params_map = _as_mapping(params_raw, f"{path}.params")
        params = tuple(
            (
                _as_str(name, f"{path}.params key"),
                _as_float(value, f"{path}.params.{name}"),
            )
            for name, value in params_map.items()
        )
        return cls(
            family=_as_str(data["family"], f"{path}.family"),
            size=_as_int(data["size"], f"{path}.size"),
            seed=None if _is_empty(seed_raw) else _as_int(seed_raw, f"{path}.seed"),
            params=params,
        )


@dataclass(frozen=True)
class PlatformSpec:
    """The machine shape; defaults to the paper's 20 CPU + 4 GPU node."""

    num_cpus: int = 20
    num_gpus: int = 4

    def __post_init__(self) -> None:
        if self.num_cpus < 0 or self.num_gpus < 0:
            raise ValidationError("platform: resource counts must be non-negative")
        if self.num_cpus == 0 and self.num_gpus == 0:
            raise ValidationError("platform: needs at least one CPU or GPU")

    def to_dict(self) -> dict[str, Any]:
        return {"num_cpus": self.num_cpus, "num_gpus": self.num_gpus}

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], *, path: str = "platform"
    ) -> "PlatformSpec":
        data = _as_mapping(data, path)
        _check_keys(data, ("num_cpus", "num_gpus"), path)
        defaults = cls()
        return cls(
            num_cpus=_as_int(
                _field(data, "num_cpus", defaults.num_cpus), f"{path}.num_cpus"
            ),
            num_gpus=_as_int(
                _field(data, "num_gpus", defaults.num_gpus), f"{path}.num_gpus"
            ),
        )


@dataclass(frozen=True)
class PolicySpec:
    """Which scheduler runs the workload, in which mode, against which bound."""

    algorithm: str
    mode: str = "dag"
    bound: str = "auto"

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(
                f"policy.mode: unknown mode {self.mode!r} "
                f"(expected one of {', '.join(MODES)})"
            )
        if self.mode == "independent":
            if self.algorithm not in INDEPENDENT_ALGORITHMS:
                raise ValidationError(
                    f"policy.algorithm: {self.algorithm!r} is not an "
                    "independent-mode scheduler (expected one of "
                    f"{', '.join(INDEPENDENT_ALGORITHMS)})"
                )
            if self.bound not in _INDEPENDENT_BOUNDS:
                raise ValidationError(
                    f"policy.bound: independent mode uses the area bound, "
                    f"not {self.bound!r}"
                )
        else:
            family, _, ranking = self.algorithm.partition("-")
            if family not in DAG_ALGORITHM_FAMILIES:
                raise ValidationError(
                    f"policy.algorithm: unknown algorithm family {family!r} "
                    f"(expected one of {', '.join(DAG_ALGORITHM_FAMILIES)})"
                )
            if ranking and ranking not in RANK_SCHEMES:
                raise ValidationError(
                    f"policy.algorithm: unknown ranking {ranking!r} "
                    f"(expected one of {', '.join(RANK_SCHEMES)})"
                )
            if self.bound not in _DAG_BOUNDS:
                raise ValidationError(
                    f"policy.bound: unknown bound {self.bound!r} "
                    f"(expected one of {', '.join(_DAG_BOUNDS)})"
                )

    def to_dict(self) -> dict[str, Any]:
        return {"algorithm": self.algorithm, "mode": self.mode, "bound": self.bound}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, path: str = "policy") -> "PolicySpec":
        data = _as_mapping(data, path)
        _check_keys(data, ("algorithm", "mode", "bound"), path)
        if _is_empty(data.get("algorithm")):
            raise ValidationError(f"{path}.algorithm: required")
        defaults_mode = "dag"
        mode = _as_str(_field(data, "mode", defaults_mode), f"{path}.mode")
        default_bound = "area" if mode == "independent" else "auto"
        return cls(
            algorithm=_as_str(data["algorithm"], f"{path}.algorithm"),
            mode=mode,
            bound=_as_str(_field(data, "bound", default_bound), f"{path}.bound"),
        )


def _validate_tenant(tenant: str) -> str:
    """Tenant ids are folded into cache *paths*; refuse anything that
    could escape the namespace directory."""
    if len(tenant) > _TENANT_MAX_LEN:
        raise ValidationError(
            f"tenant: at most {_TENANT_MAX_LEN} characters, got {len(tenant)}"
        )
    if tenant in (".", ".."):
        raise ValidationError(f"tenant: {tenant!r} is not a valid namespace")
    bad = sorted(set(tenant) - _TENANT_ALLOWED)
    if bad:
        raise ValidationError(
            f"tenant: invalid character(s) {', '.join(map(repr, bad))} "
            "(allowed: letters, digits, '.', '_', '-')"
        )
    return tenant


@dataclass(frozen=True)
class ScheduleRequest:
    """One scheduling request: workload + platform + policy (+ QoS knobs).

    ``tenant`` selects a cache namespace (a directory, never part of the
    content hash); ``retry`` governs how the job queue handles transient
    failures of this request.
    """

    workload: WorkloadSpec
    policy: PolicySpec
    platform: PlatformSpec = PlatformSpec()
    tenant: str = ""
    retry: RetryPolicy = RetryPolicy()
    _spec: InstanceSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _validate_tenant(self.tenant)
        # Build the spec now, so semantic spec errors (seed rules etc.)
        # surface at validation time rather than inside a worker, and
        # keep it: every later key of this request reuses its hash memo.
        try:
            spec = InstanceSpec(
                workload=self.workload.family,
                size=self.workload.size,
                algorithm=self.policy.algorithm,
                mode=self.policy.mode,
                num_cpus=self.platform.num_cpus,
                num_gpus=self.platform.num_gpus,
                bound=self.policy.bound,
                seed=self.workload.seed,
                params=self.workload.params,
            )
        except ValueError as exc:
            raise ValidationError(str(exc)) from None
        object.__setattr__(self, "_spec", spec)

    def to_instance_spec(self) -> InstanceSpec:
        """The campaign spec this request executes as (one per request)."""
        return self._spec

    def request_key(self, *, salt: str = CODE_VERSION) -> str:
        """The cache key this request maps onto — exactly the spec hash.

        Equal requests (any field order, any empty-value spelling) get
        equal keys; the tenant deliberately never enters the hash.
        """
        return self.to_instance_spec().spec_hash(salt=salt)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "schedule",
            "workload": self.workload.to_dict(),
            "platform": self.platform.to_dict(),
            "policy": self.policy.to_dict(),
            "tenant": self.tenant,
            "retry": self.retry.to_dict(),
        }

    def canonical_json(self) -> str:
        """Byte-stable JSON encoding (sorted keys, canonical floats)."""
        return canonical_dumps(self.to_dict())

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], *, path: str = "request"
    ) -> "ScheduleRequest":
        data = _as_mapping(data, path)
        _check_keys(
            data, ("kind", "workload", "platform", "policy", "tenant", "retry"), path
        )
        kind = _field(data, "kind", "schedule")
        if kind != "schedule":
            raise ValidationError(f"{path}.kind: expected 'schedule', got {kind!r}")
        if _is_empty(data.get("workload")):
            raise ValidationError(f"{path}.workload: required")
        if _is_empty(data.get("policy")):
            raise ValidationError(f"{path}.policy: required")
        platform_raw = _field(data, "platform", None)
        retry_raw = _field(data, "retry", None)
        return cls(
            workload=WorkloadSpec.from_dict(data["workload"], path=f"{path}.workload"),
            policy=PolicySpec.from_dict(data["policy"], path=f"{path}.policy"),
            platform=(
                PlatformSpec()
                if platform_raw is None
                else PlatformSpec.from_dict(platform_raw, path=f"{path}.platform")
            ),
            tenant=_as_str(_field(data, "tenant", ""), f"{path}.tenant"),
            retry=(
                RetryPolicy()
                if retry_raw is None
                else RetryPolicy.from_dict(retry_raw, path=f"{path}.retry")
            ),
        )


@dataclass(frozen=True)
class BatchRequest:
    """Several schedule requests submitted as one unit.

    ``continue_on_error=True`` (the default) runs every item regardless
    of failures; ``False`` cancels the not-yet-started remainder after
    the first failed item.
    """

    requests: tuple[ScheduleRequest, ...]
    continue_on_error: bool = True

    def __post_init__(self) -> None:
        if not self.requests:
            raise ValidationError("batch.requests: must not be empty")
        if len(self.requests) > MAX_BATCH_SIZE:
            raise ValidationError(
                f"batch.requests: at most {MAX_BATCH_SIZE} items, "
                f"got {len(self.requests)}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "batch",
            "continue_on_error": self.continue_on_error,
            "requests": [request.to_dict() for request in self.requests],
        }

    def canonical_json(self) -> str:
        return canonical_dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], *, path: str = "batch") -> "BatchRequest":
        data = _as_mapping(data, path)
        _check_keys(data, ("kind", "requests", "continue_on_error"), path)
        kind = _field(data, "kind", "batch")
        if kind != "batch":
            raise ValidationError(f"{path}.kind: expected 'batch', got {kind!r}")
        raw_requests = data.get("requests")
        if _is_empty(raw_requests):
            raise ValidationError(f"{path}.requests: required")
        if not isinstance(raw_requests, list):
            raise ValidationError(
                f"{path}.requests: expected a list, got {type(raw_requests).__name__}"
            )
        return cls(
            requests=tuple(
                ScheduleRequest.from_dict(item, path=f"{path}.requests[{i}]")
                for i, item in enumerate(raw_requests)
            ),
            continue_on_error=_as_bool(
                _field(data, "continue_on_error", True), f"{path}.continue_on_error"
            ),
        )


# -- parsing entry points -----------------------------------------------------


def load_request(data: Mapping[str, Any]) -> ScheduleRequest | BatchRequest:
    """Parse a decoded JSON payload into the matching request model.

    Dispatches on ``kind`` when present, else on the ``requests`` field
    (a batch) — so both the CLI and the server validate through this one
    code path.
    """
    data = _as_mapping(data, "request")
    kind = data.get("kind")
    if kind == "batch" or (kind is None and "requests" in data):
        return BatchRequest.from_dict(data)
    return ScheduleRequest.from_dict(data)


def load_request_text(text: str) -> ScheduleRequest | BatchRequest:
    """Parse raw JSON text (HTTP body / file contents) into a request."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ValidationError(f"request body is not valid JSON: {exc}") from None
    return load_request(payload)


def load_request_file(path: str | Path) -> ScheduleRequest | BatchRequest:
    """Parse a request (or batch) from a JSON file on disk."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read spec file {path}: {exc}") from None
    return load_request_text(text)
