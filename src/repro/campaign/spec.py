"""Instance specs: pure, hashable descriptions of one simulation unit.

A campaign is a set of :class:`InstanceSpec` values, each describing one
(workload, platform, algorithm, bound) combination to simulate.  Specs
are deliberately *data*, not objects-with-behaviour: everything needed
to reproduce a run is captured in plain scalars, so a spec can be

* hashed — :meth:`InstanceSpec.spec_hash` is the content address used by
  the on-disk result cache (:mod:`repro.campaign.cache`);
* pickled — the parallel executor ships specs to worker processes;
* round-tripped through JSON — run manifests store the spec verbatim.

Workloads are named generators: the tiled factorization families of
Section 6 (``cholesky``/``qr``/``lu``, sized by the tile count) plus the
synthetic random families (``layered``/``chains``, sized by their shape
parameter and a seed).  Randomness therefore enters a campaign only
through explicit spec seeds; see
:func:`repro.campaign.executor.derive_seeds` for deterministic per-spec
seed derivation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.core.platform import Platform
from repro.io import canonical_dumps

__all__ = ["CODE_VERSION", "InstanceSpec", "MODES"]

#: Code-version salt mixed into every cache key.  Bump whenever the
#: semantics of the simulators, schedulers, bounds or timing models
#: change: every previously cached result is then invalidated at once.
CODE_VERSION = "2026.08-1"

#: The two execution modes: schedule the workload's tasks as an
#: independent set (Section 6.1, Figure 6) or simulate the full DAG
#: under an online policy (Section 6.2, Figures 7-9).
MODES = ("independent", "dag")

#: Workload families whose generators take a seed (synthetic graphs).
SEEDED_WORKLOADS = ("layered", "chains")


def _digest(spec: "InstanceSpec", salt: str) -> str:
    """SHA-256 of *spec*'s canonical JSON under *salt* (no memo)."""
    payload = canonical_dumps({"salt": salt, "spec": spec.to_dict()})
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class InstanceSpec:
    """One unit of campaign work, fully described by plain data.

    Parameters
    ----------
    workload:
        Generator family: ``cholesky``/``qr``/``lu`` (tiled
        factorizations) or ``layered``/``chains`` (random graphs).
    size:
        The generator's size parameter — tile count for factorizations,
        layer/chain count for the random families.
    algorithm:
        Scheduler name: ``heteroprio``/``dualhp``/``heft`` in
        ``independent`` mode, a paper policy name such as
        ``heteroprio-min`` in ``dag`` mode.
    mode:
        ``"independent"`` (edges dropped, area-bound normalisation) or
        ``"dag"`` (runtime simulation, dependency-aware bound).
    num_cpus, num_gpus:
        The platform shape (the paper's node is 20 + 4).
    bound:
        Lower-bound method: ``"area"`` in independent mode, one of the
        :func:`repro.bounds.dag_lp.dag_lower_bound` methods otherwise.
    seed:
        Seed for the random workload families; ``None`` for the
        deterministic factorization generators.
    params:
        Extra generator keyword arguments as a sorted tuple of
        ``(name, value)`` pairs, kept canonical so equal specs hash
        equally.
    """

    workload: str
    size: int
    algorithm: str
    mode: str = "dag"
    num_cpus: int = 20
    num_gpus: int = 4
    bound: str = "auto"
    seed: int | None = None
    params: tuple[tuple[str, float], ...] = field(default=())
    #: :meth:`spec_hash` memo of this object, per salt (not spec data).
    _hashes: dict[str, str] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if self.num_cpus < 0 or self.num_gpus < 0:
            raise ValueError("resource counts must be non-negative")
        if self.seed is None and self.workload in SEEDED_WORKLOADS:
            raise ValueError(f"workload {self.workload!r} requires a seed")
        # Canonicalise params so construction order never affects the hash.
        object.__setattr__(self, "params", tuple(sorted(tuple(p) for p in self.params)))

    @property
    def platform(self) -> Platform:
        """The platform this spec runs on."""
        return Platform(num_cpus=self.num_cpus, num_gpus=self.num_gpus)

    def with_seed(self, seed: int) -> "InstanceSpec":
        """A copy of this spec with a different workload seed."""
        return replace(self, seed=seed)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data representation (stable, JSON-serialisable)."""
        return {
            "workload": self.workload,
            "size": self.size,
            "algorithm": self.algorithm,
            "mode": self.mode,
            "num_cpus": self.num_cpus,
            "num_gpus": self.num_gpus,
            "bound": self.bound,
            "seed": self.seed,
            "params": [[name, value] for name, value in self.params],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "InstanceSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            workload=str(data["workload"]),
            size=int(data["size"]),
            algorithm=str(data["algorithm"]),
            mode=str(data.get("mode", "dag")),
            num_cpus=int(data.get("num_cpus", 20)),
            num_gpus=int(data.get("num_gpus", 4)),
            bound=str(data.get("bound", "auto")),
            seed=None if data.get("seed") is None else int(data["seed"]),
            params=tuple((str(n), v) for n, v in data.get("params", ())),
        )

    def spec_hash(self, *, salt: str = CODE_VERSION) -> str:
        """Content address of this spec under the given code-version salt.

        The address is the SHA-256 of the canonical JSON encoding of the
        spec together with the salt; editing the salt therefore
        invalidates every previously stored result.

        Memoised on this object, per salt.  The memo is never shared
        between specs that merely compare equal: ``params=(("width",
        4),)`` and ``(("width", 4.0),)``, or ``seed=1`` and
        ``seed=True``, are ``==`` but encode (and so hash) differently.
        """
        key = self._hashes.get(salt)
        if key is None:
            key = self._hashes[salt] = _digest(self, salt)
        return key

    def label(self) -> str:
        """Short human-readable identifier (used in logs and manifests)."""
        seed = f"@{self.seed}" if self.seed is not None else ""
        return (
            f"{self.workload}{self.size}{seed}:{self.algorithm}"
            f"[{self.mode},{self.num_cpus}c+{self.num_gpus}g]"
        )
