"""Tiered (memory + disk), content-addressed result cache for campaigns.

Each cached entry is one JSON file at ``<root>/<hh>/<hash>.json`` where
``hash`` is :meth:`InstanceSpec.spec_hash` under the entry's *effective*
salt and ``hh`` its first two hex digits (a fan-out shard so directories
stay small at production scale).  Entries are written atomically (temp
file + rename), so concurrent campaigns sharing a cache directory can
only ever observe complete entries.

Two tiers sit in front of the executor:

* a bounded in-process **memory tier** (LRU over decoded entries) that
  turns repeat warm hits from a disk read + JSON parse into a dict
  copy — the tier every long-lived service and every warm re-render
  hits;
* the **disk tier**, pruned on demand (:meth:`prune`, ``repro cache
  --prune``) with deterministic LRU eviction: reads refresh an entry's
  mtime, so :meth:`prune` drops the least-recently-used files first,
  ties broken by file name.

**Selective salts** — the effective salt of a spec is derived from the
dependency closure of the modules its execution path reaches
(:func:`repro.campaign.salts.salt_for_spec`), so editing one scheduler
re-keys only the entries that executed it.

The payload stores the spec and its effective salt verbatim, and a read
verifies both against the requester — a hash collision or a stale salt
can therefore never leak a wrong result.  Non-finite metric values are
tunnelled through JSON as tagged strings, keeping the files canonical.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.campaign.salts import salt_for_spec
from repro.campaign.spec import CODE_VERSION, InstanceSpec
from repro.io import canonical_dumps

__all__ = [
    "CacheStats",
    "ResultCache",
    "CACHE_FORMAT_VERSION",
    "MEMORY_ENTRIES",
    "encode_value",
    "decode_value",
]

CACHE_FORMAT_VERSION = 1

#: Memory-tier capacity in entries.  Entries are small decoded dicts
#: (~10 scalars), so the tier costs well under a megabyte while covering
#: every figure grid.
MEMORY_ENTRIES = 512

_NONFINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _encode_value(value: Any) -> Any:
    """Replace non-finite floats with a tagged marker (JSON-canonical)."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return {"$float": "nan"}
        return {"$float": "inf" if value > 0 else "-inf"}
    if isinstance(value, dict):
        return {key: _encode_value(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"$float"}:
            return _NONFINITE[value["$float"]]
        return {key: _decode_value(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


#: Public names for the NaN/inf tunnelling codec: metrics payloads that
#: must cross a JSON boundary (cache files, the service's NDJSON wire
#: format) encode with :func:`encode_value` and restore with
#: :func:`decode_value`.
encode_value = _encode_value
decode_value = _decode_value


def _decoded_body(payload: dict[str, Any]) -> dict[str, Any] | None:
    """The decoded entry of a parsed file, or ``None`` if its body is malformed.

    A well-formed body decodes, its ``metrics`` to a dict and its
    ``elapsed_s`` to a number; any other entry is a miss for
    :meth:`ResultCache.get` and garbage for :meth:`ResultCache.gc`.
    """
    try:
        entry: dict[str, Any] = _decode_value(payload)
    except (KeyError, TypeError):  # an unknown or unhashable "$float" tag
        return None
    elapsed = entry.get("elapsed_s")
    if (
        not isinstance(entry.get("metrics"), dict)
        or isinstance(elapsed, bool)
        or not isinstance(elapsed, (int, float))
    ):
        return None
    return entry


def _entry_copy(entry: dict[str, Any]) -> dict[str, Any]:
    """A mutation-safe copy of a cached entry (metrics re-dicted)."""
    copied = dict(entry)
    copied["metrics"] = dict(entry.get("metrics", {}))
    return copied


@dataclass
class CacheStats:
    """Tier counters of one :class:`ResultCache` (per process)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    memory_evictions: int = 0
    disk_evictions: int = 0

    def snapshot(self) -> "CacheStats":
        """A frozen copy (for before/after deltas around a campaign)."""
        return dataclasses.replace(self)

    def to_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


class ResultCache:
    """Tiered, sharded, content-addressed store of per-instance metrics.

    Parameters
    ----------
    root:
        Directory of the disk tier (created if missing).
    salt:
        Base code-version salt, mixed with each spec's module-closure
        digest into the effective salt (see module docstring).

    The memory tier holds up to :data:`MEMORY_ENTRIES` entries; the disk
    tier grows until :meth:`prune` caps it.
    """

    def __init__(self, root: str | Path, *, salt: str = CODE_VERSION):
        self.root = Path(root)
        self.salt = salt
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, dict[str, Any]]" = OrderedDict()
        self._memory_lock = threading.Lock()
        self.root.mkdir(parents=True, exist_ok=True)

    # Caches get pickled into worker processes (the service's pool
    # ships tenant caches with each job); locks do not pickle and
    # per-child tiers and counters start fresh — parent-side state is
    # parent-only.
    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        state["_memory"] = OrderedDict()
        state["_memory_lock"] = None
        state["stats"] = CacheStats()
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._memory_lock = threading.Lock()

    # -- addressing ----------------------------------------------------------

    def salt_for(self, spec: InstanceSpec) -> str:
        """The effective salt of *spec* under this cache."""
        return salt_for_spec(spec, base=self.salt)

    def key(self, spec: InstanceSpec) -> str:
        """The content address of *spec* under its effective salt."""
        return spec.spec_hash(salt=self.salt_for(spec))

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def path_for(self, spec: InstanceSpec) -> Path:
        """Where *spec*'s entry lives (whether or not it exists yet)."""
        return self._path(self.key(spec))

    # -- memory tier ---------------------------------------------------------

    def _memory_get(self, key: str) -> dict[str, Any] | None:
        with self._memory_lock:
            entry = self._memory.get(key)
            if entry is None:
                return None
            self._memory.move_to_end(key)
            return _entry_copy(entry)

    def _memory_put(self, key: str, entry: dict[str, Any]) -> None:
        with self._memory_lock:
            self._memory[key] = _entry_copy(entry)
            self._memory.move_to_end(key)
            while len(self._memory) > MEMORY_ENTRIES:
                self._memory.popitem(last=False)
                self.stats.memory_evictions += 1

    def _memory_drop(self, key: str) -> None:
        with self._memory_lock:
            self._memory.pop(key, None)

    # -- read/write ----------------------------------------------------------

    def _load_disk(
        self, path: Path, *, salt: str, spec: InstanceSpec
    ) -> dict[str, Any] | None:
        """Read + validate one disk entry; any mismatch is a miss."""
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CACHE_FORMAT_VERSION
            or payload.get("salt") != salt
            or payload.get("spec") != spec.to_dict()
        ):
            return None
        return _decoded_body(payload)

    def get(self, spec: InstanceSpec) -> dict[str, Any] | None:
        """The stored entry for *spec*, or ``None`` on a miss.

        Lookup order: memory tier, then disk tier (a read refreshes the
        LRU mtime and feeds the memory tier).  Corrupt, malformed or
        mismatched entries (wrong salt, wrong spec, a ``metrics`` that is
        not an object) count as misses rather than errors; the executor
        recomputes and overwrites them.
        """
        effective = self.salt_for(spec)
        key = spec.spec_hash(salt=effective)
        entry = self._memory_get(key)
        if entry is not None:
            self.stats.memory_hits += 1
            return entry
        path = self._path(key)
        entry = self._load_disk(path, salt=effective, spec=spec)
        if entry is not None:
            self.stats.disk_hits += 1
            try:
                os.utime(path)  # refresh LRU recency for prune()
            except OSError:
                pass
            self._memory_put(key, entry)
            return entry
        self.stats.misses += 1
        return None

    def put(
        self,
        spec: InstanceSpec,
        metrics: dict[str, Any],
        *,
        elapsed_s: float = 0.0,
    ) -> Path:
        """Store *metrics* for *spec* atomically; returns the entry path.

        Feeds both tiers: the memory tier receives the JSON round-trip
        of the payload, so a memory hit is bit-identical to the disk
        read it replaces.
        """
        effective = self.salt_for(spec)
        key = spec.spec_hash(salt=effective)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "salt": effective,
            "spec": spec.to_dict(),
            "metrics": _encode_value(dict(metrics)),
            "elapsed_s": float(elapsed_s),
        }
        text = canonical_dumps(payload, indent=1)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text + "\n")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.puts += 1
        entry: dict[str, Any] = _decode_value(json.loads(text))
        entry["metrics"] = dict(entry.get("metrics", {}))
        self._memory_put(key, entry)
        return path

    # -- maintenance ---------------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_paths())

    def iter_paths(self) -> Iterator[Path]:
        """All entry files currently stored (any salt)."""
        if not self.root.exists():
            return
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir() and len(shard.name) == 2:
                yield from sorted(shard.glob("*.json"))

    def disk_usage(self) -> tuple[int, int]:
        """``(entries, bytes)`` of the disk tier right now."""
        entries = 0
        total = 0
        for path in self.iter_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return entries, total

    def prune(
        self, *, max_bytes: int | None = None, max_entries: int | None = None
    ) -> int:
        """Evict least-recently-used disk entries down to the caps.

        Deterministic: candidates are ordered by ``(mtime_ns, name)``
        oldest first — reads refresh mtime, so recently served entries
        survive.  Evicted entries also leave the memory tier (an entry
        the operator pruned must actually be gone).  Returns the number
        of files removed; no cap at all removes nothing.
        """
        if max_bytes is None and max_entries is None:
            return 0
        entries: list[tuple[int, str, Path, int]] = []
        total = 0
        for path in self.iter_paths():
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime_ns, path.name, path, st.st_size))
            total += st.st_size
        count = len(entries)

        def within_caps() -> bool:
            if max_bytes is not None and total > max_bytes:
                return False
            if max_entries is not None and count > max_entries:
                return False
            return True

        if within_caps():
            return 0
        entries.sort()
        removed = 0
        for _mtime, name, path, size in entries:
            if within_caps():
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            count -= 1
            removed += 1
            self.stats.disk_evictions += 1
            self._memory_drop(name[: -len(".json")])
        return removed

    def gc(self) -> int:
        """Drop entries no longer readable under the current salts.

        Keeps entries stored under their current effective salt; removes
        everything else — foreign salts, superseded closures, corrupt or
        malformed files, entries filed under the wrong name.  Returns the
        number of files removed.
        """
        removed = 0
        for path in list(self.iter_paths()):
            if not self._gc_keep(path):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def _gc_keep(self, path: Path) -> bool:
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return False
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CACHE_FORMAT_VERSION
            or _decoded_body(payload) is None
        ):
            return False
        try:
            spec = InstanceSpec.from_dict(payload.get("spec", {}))
        except (KeyError, TypeError, ValueError):
            return False
        stored_salt = payload.get("salt")
        if not isinstance(stored_salt, str):
            return False
        if path.stem != spec.spec_hash(salt=stored_salt):
            return False  # unreachable: filed under the wrong address
        return stored_salt == self.salt_for(spec)

    def clear(self) -> int:
        """Delete every entry (any salt, both tiers); returns disk count."""
        with self._memory_lock:
            self._memory.clear()
        removed = 0
        for path in list(self.iter_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
