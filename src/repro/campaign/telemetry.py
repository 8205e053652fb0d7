"""Structured telemetry for campaign runs.

Two pieces:

* :class:`CampaignStats` — cache hit/miss and timing counters for one
  :func:`~repro.campaign.executor.run_campaign` call;
* :func:`write_manifest` — a JSON manifest of the run (campaign id,
  specs, stats) dropped next to the cache so a campaign is auditable
  after the fact.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.io import canonical_dumps

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign.cache import ResultCache
    from repro.campaign.spec import InstanceSpec

__all__ = ["CampaignStats", "campaign_id", "write_manifest"]


@dataclass
class CampaignStats:
    """Counters of one campaign run.

    ``exec_s`` sums the per-instance simulation times (CPU cost paid this
    run), ``cached_s`` the recorded cost of the instances served from
    cache (CPU cost *avoided*), and ``wall_s`` the end-to-end wall clock
    — with ``jobs > 1``, ``exec_s`` exceeding ``wall_s`` is the speedup
    made visible.

    Cache hits split by tier: ``memory_hits`` + ``disk_hits`` = ``hits``.
    ``batched`` counts the executed instances that went through the
    lockstep batch engine; the scalar remainder is broken out by the
    routing rule that kept it scalar — ``fallback_policy`` (the
    ``dag-mode`` rule: DAG-mode specs always run scalar, attributed per
    algorithm in ``fallback_by_algorithm``), ``fallback_small`` (the
    ``below-threshold`` rule: an independent-mode group smaller than
    ``LOCKSTEP_MIN_ROWS``) and ``fallback_runtime`` (the engine declined
    at run time, e.g. ragged task counts).  ``backend`` names the path
    that ran the misses — ``serial`` (inline) at one job,
    ``work-stealing`` above — and ``steals`` counts work-stealing
    transfers.
    """

    total: int = 0
    hits: int = 0
    misses: int = 0
    executed: int = 0
    batched: int = 0
    jobs: int = 1
    exec_s: float = 0.0
    cached_s: float = 0.0
    wall_s: float = 0.0
    memory_hits: int = 0
    disk_hits: int = 0
    fallback_policy: int = 0
    fallback_by_algorithm: dict = field(default_factory=dict)
    fallback_small: int = 0
    fallback_runtime: int = 0
    steals: int = 0
    backend: str = "serial"

    @property
    def hit_rate(self) -> float:
        """Fraction of instances served from cache (0 when empty)."""
        return self.hits / self.total if self.total else 0.0

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "hits": self.hits,
            "misses": self.misses,
            "executed": self.executed,
            "batched": self.batched,
            "jobs": self.jobs,
            "exec_s": round(self.exec_s, 6),
            "cached_s": round(self.cached_s, 6),
            "wall_s": round(self.wall_s, 6),
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "fallback_policy": self.fallback_policy,
            "fallback_by_algorithm": dict(sorted(self.fallback_by_algorithm.items())),
            "fallback_small": self.fallback_small,
            "fallback_runtime": self.fallback_runtime,
            "steals": self.steals,
            "backend": self.backend,
        }

    def _hits_detail(self) -> str:
        if not self.hits:
            return ""
        return f"; {self.memory_hits} mem, {self.disk_hits} disk"

    def _executed_detail(self) -> str:
        parts = []
        if self.batched:
            parts.append(f"{self.batched} batched")
        fallbacks = []
        if self.fallback_policy:
            detail = ""
            if self.fallback_by_algorithm:
                detail = " [" + ", ".join(
                    f"{alg}: {count}"
                    for alg, count in sorted(self.fallback_by_algorithm.items())
                ) + "]"
            fallbacks.append(f"{self.fallback_policy} dag-mode{detail}")
        if self.fallback_small:
            fallbacks.append(f"{self.fallback_small} below-threshold")
        if self.fallback_runtime:
            fallbacks.append(f"{self.fallback_runtime} runtime")
        if fallbacks:
            parts.append("scalar: " + ", ".join(fallbacks))
        return f"({'; '.join(parts)}) " if parts else ""

    def summary(self) -> str:
        """One-line human-readable digest for CLI output."""
        backend = f" [{self.backend}" + (
            f", {self.steals} steals]" if self.steals else "]"
        )
        return (
            f"{self.total} instances: {self.hits} cache hits "
            f"({100.0 * self.hit_rate:.0f}%{self._hits_detail()}), "
            f"{self.executed} executed "
            + self._executed_detail()
            + f"on {self.jobs} worker(s){backend}; "
            f"sim {self.exec_s:.2f}s, wall {self.wall_s:.2f}s"
            + (f", saved ~{self.cached_s:.2f}s" if self.cached_s > 0 else "")
        )


def campaign_id(specs: Sequence["InstanceSpec"], *, salt: str) -> str:
    """Stable identifier of a spec set (order-sensitive, salt-mixed)."""
    digest = hashlib.sha256()
    digest.update(salt.encode("ascii"))
    for spec in specs:
        digest.update(spec.spec_hash(salt=salt).encode("ascii"))
    return digest.hexdigest()[:16]


@dataclass
class RunManifest:
    """What one campaign run did, as plain data."""

    campaign: str
    salt: str
    stats: CampaignStats
    specs: list = field(default_factory=list)
    started_at: float = 0.0

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "campaign": self.campaign,
            "salt": self.salt,
            "started_at": round(self.started_at, 3),
            "stats": self.stats.to_dict(),
            "specs": self.specs,
        }


def write_manifest(
    cache: "ResultCache",
    specs: Sequence["InstanceSpec"],
    stats: CampaignStats,
    *,
    started_at: float | None = None,
) -> Path:
    """Write the run manifest under ``<cache root>/manifests/``.

    The file name is the campaign id, so re-running the same spec set
    overwrites its manifest with the latest stats (the per-instance
    history lives in the cache entries themselves).
    """
    manifest = RunManifest(
        campaign=campaign_id(specs, salt=cache.salt),
        salt=cache.salt,
        stats=stats,
        specs=[spec.to_dict() for spec in specs],
        started_at=time.time() if started_at is None else started_at,
    )
    directory = cache.root / "manifests"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{manifest.campaign}.json"
    path.write_text(canonical_dumps(manifest.to_dict(), indent=1) + "\n")
    return path
