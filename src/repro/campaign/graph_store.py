"""Content-addressed on-disk store of compiled task graphs.

The campaign engine builds every factorization workload as a
:class:`~repro.dag.compiled.CompiledGraph` — a handful of flat numpy
arrays — exactly once per ``(generator, n_tiles, timing-model)`` key.
This store persists those arrays as one ``.npz`` per key at
``<root>/<hh>/<hash>.npz``, mirroring the result cache's layout
(:mod:`repro.campaign.cache`): ``hash`` is the SHA-256 of the canonical
JSON key under the cache's code-version salt and ``hh`` its first two
hex digits (the same fan-out shard).  Worker processes forked by a
campaign inherit the store handle and either load a graph in one
``np.load`` or build it and publish it for every later worker, run, and
process.

Entries are written atomically (temp file + rename) so concurrent
campaigns sharing a store can only observe complete files, and every
read validates an embedded metadata record against the requested key —
a hash collision, stale salt, or corrupt file degrades to a rebuild,
never to a wrong graph.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.campaign.salts import workload_salt
from repro.campaign.spec import CODE_VERSION
from repro.dag.compiled import CompiledGraph
from repro.io import canonical_dumps

__all__ = ["GraphStore", "GRAPH_FORMAT_VERSION"]

GRAPH_FORMAT_VERSION = 1

#: Timing-model identifier for the calibrated deterministic tables the
#: factorization generators default to.  Noisy models are never stored:
#: their durations depend on RNG state, not on the key.
REFERENCE_TIMING = "reference"

#: What reading a damaged entry can raise.  Besides truncation and bad
#: arrays, ``zipfile`` raises ``RuntimeError`` for a member whose header
#: claims encryption and ``NotImplementedError`` for an unsupported flag
#: bit or compression method.
_UNREADABLE = (
    OSError,
    EOFError,
    KeyError,
    TypeError,
    ValueError,
    RuntimeError,
    NotImplementedError,
    zipfile.BadZipFile,
)


class GraphStore:
    """Sharded, content-addressed store of compiled workload graphs.

    A graph's key mixes in the closure salt of its workload *generator*
    module (:func:`repro.campaign.salts.workload_salt`), matching the
    result cache: editing ``dag/cholesky.py`` re-keys the cholesky
    graphs even while the base ``CODE_VERSION`` stands still — without
    this, selective result recomputes would rebuild from a stale
    compiled graph and cache wrong metrics under fresh keys.
    """

    def __init__(self, root: str | Path, *, salt: str = CODE_VERSION):
        self.root = Path(root)
        self.salt = salt
        self.root.mkdir(parents=True, exist_ok=True)

    # -- addressing ----------------------------------------------------------

    def _meta(self, workload: str, size: int, timing: str) -> dict:
        return {
            "format": GRAPH_FORMAT_VERSION,
            "salt": workload_salt(workload, base=self.salt),
            "size": int(size),
            "timing": timing,
            "workload": workload,
        }

    def key(self, workload: str, size: int, *, timing: str = REFERENCE_TIMING) -> str:
        """The content address of one graph under this store's salt."""
        payload = canonical_dumps(self._meta(workload, size, timing))
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    def path_for(
        self, workload: str, size: int, *, timing: str = REFERENCE_TIMING
    ) -> Path:
        """Where the graph's entry lives (whether or not it exists yet)."""
        key = self.key(workload, size, timing=timing)
        return self.root / key[:2] / f"{key}.npz"

    # -- read/write ----------------------------------------------------------

    def get(
        self, workload: str, size: int, *, timing: str = REFERENCE_TIMING
    ) -> CompiledGraph | None:
        """The stored compiled graph, or ``None`` on a miss.

        Corrupt or mismatched entries (damaged zip headers or data,
        wrong salt, wrong key) count as misses rather than errors; the
        caller rebuilds and overwrites.
        """
        path = self.path_for(workload, size, timing=timing)
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["meta"][()]))
                if meta != self._meta(workload, size, timing):
                    return None
                return CompiledGraph.from_arrays(str(data["name"][()]), data)
        except _UNREADABLE:
            return None

    def put(
        self,
        graph: CompiledGraph,
        workload: str,
        size: int,
        *,
        timing: str = REFERENCE_TIMING,
    ) -> Path:
        """Store *graph* atomically under its key; returns the entry path."""
        path = self.path_for(workload, size, timing=timing)
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = canonical_dumps(self._meta(workload, size, timing))
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".npz")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, meta=meta, name=graph.name, **graph.to_arrays())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
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
                yield from sorted(shard.glob("*.npz"))

    def gc(self) -> int:
        """Drop every entry :meth:`get` would not serve; returns the count.

        Removes graphs under superseded salts (an edited generator, a
        new ``CODE_VERSION``), foreign or corrupt files, and entries
        filed under the wrong address.
        """
        removed = 0
        for path in list(self.iter_paths()):
            try:
                with np.load(path, allow_pickle=False) as data:
                    meta = json.loads(str(data["meta"][()]))
                workload, size = str(meta["workload"]), int(meta["size"])
                timing = str(meta["timing"])
                keep = (
                    path == self.path_for(workload, size, timing=timing)
                    and self.get(workload, size, timing=timing) is not None
                )
            except _UNREADABLE:
                keep = False
            if not keep:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def clear(self) -> int:
        """Delete every entry (any salt); returns the number removed."""
        removed = 0
        for path in list(self.iter_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
