"""Output checks: reference digests, the paper's oracle and cross-pass equality.

``references.json`` holds digests recorded from the program at the
commit that introduced this benchmark (``run.py --record-references``):

* ``figures`` — the rendered text of each figure panel, and of the whole
  ``repro campaign`` stdout (which ``figures-ws`` must equal byte for
  byte);
* ``seed-sweep`` — the record lines of the sweep, for the default and
  the held-out seed;
* ``serve`` — the metrics payload of every single request in the stream
  universe, by spec label.

Seeds without a recorded sweep digest are checked by re-executing a
sample of specs on the scalar path in-process instead.  Every payload
must also satisfy the oracle: the area/LP lower bound never exceeds the
makespan (``ratio >= 1``).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

#: Relative slack of the oracle (bound and makespan are float sums).
ORACLE_RTOL = 1e-9


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_references() -> dict:
    try:
        return json.loads(REFERENCES.read_text())
    except FileNotFoundError:
        return {}


@dataclass
class Checks:
    """Attempted and failed operations of one run, with the reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, problem: str) -> bool:
        """Count one checked operation; record *problem* when not *ok*."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 50:
                self.problems.append(problem)
        return ok

    def oracle(self, metrics: dict, label: str) -> bool:
        """The paper's oracle on one payload: lower bound <= makespan."""
        makespan, bound = metrics.get("makespan"), metrics.get("lower_bound")
        ok = (
            isinstance(makespan, (int, float)) and isinstance(bound, (int, float))
            and math.isfinite(makespan) and 0 < bound <= makespan * (1 + ORACLE_RTOL)
        )
        return self.expect(ok, f"oracle violated for {label}: {metrics}")


def split_panels(stdout: str) -> dict[str, str]:
    """Figure panels of a ``repro campaign`` stdout, keyed by title line."""
    panels: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = panels.setdefault(line, [])
        if current is not None:
            current.append(line)
    return {title: "\n".join(lines).rstrip("\n") for title, lines in panels.items()}


def check_figures(checks: Checks, stdout: str, refs: dict, label: str) -> None:
    """One figures pass: each panel and the whole stdout against the reference."""
    panels = split_panels(stdout)
    expected = refs.get("panels", {})
    checks.expect(set(panels) == set(expected),
                  f"{label}: panels {sorted(panels)} != {sorted(expected)}")
    for title, text in panels.items():
        checks.expect(digest(text) == expected.get(title),
                      f"{label}: panel {title!r} differs from the reference")
    checks.expect(digest(stdout) == refs.get("stdout"),
                  f"{label}: stdout differs from the reference")


def check_cache_payloads(checks: Checks, cache_dir: Path, expected: int) -> None:
    """Oracle on every result entry a cold campaign pass wrote."""
    entries = [p for p in cache_dir.glob("??/*.json")]
    checks.expect(len(entries) == expected,
                  f"cache holds {len(entries)} results, expected {expected}")
    for path in entries:
        payload = json.loads(path.read_text())
        checks.oracle(payload["metrics"], path.name)


def sweep_records(stdout: str) -> list[tuple[str, dict]]:
    """``(label, metrics)`` of each record line of ``repro campaign --spec``."""
    records = []
    for line in stdout.splitlines():
        label, sep, payload = line.partition(": ")
        if sep:
            records.append((label, json.loads(payload)))
    return records


def canonical(value: object) -> str:
    """The program's canonical JSON text of a decoded payload."""
    from repro.io import canonical_dumps

    return canonical_dumps(value)


def scalar_matches(checks: Checks, payload: dict, metrics: dict, label: str) -> bool:
    """Re-execute one request's spec on the scalar path and compare payloads.

    *metrics* is the payload as it came over the wire or out of the CLI
    (JSON-decoded, in the cache codec's encoding).
    """
    from repro.campaign import encode_value, execute_spec
    from repro.service.models import ScheduleRequest

    spec = ScheduleRequest.from_dict(payload).to_instance_spec()
    expected = canonical(encode_value(execute_spec(spec)))
    return checks.expect(canonical(metrics) == expected,
                         f"{label}: payload differs from the scalar path")
