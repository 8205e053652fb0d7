"""Record ``references.json`` from the program as it is now.

Run ``python3 perfbench/run.py --record-references`` only at a commit
whose outputs are known good: every later run is checked against what
this writes.  The serve references come from ``repro campaign --spec``
over the stream universe, so the service path is checked against the
campaign path.
"""

from __future__ import annotations

import json
import os

import checks as chk
import serve_load
from programs import Programs
from run import DEFAULT_SEED, HELD_OUT_SEED
from workloads import FIGURES, sweep_request


def record() -> None:
    refs: dict = {}
    with Programs(f"pbref{os.getpid()}") as programs:
        def campaign(argv: list[str]) -> str:
            return programs.run([*argv, "--cache-dir", str(programs.path("cache"))]).stdout

        def spec_run(request: dict) -> str:
            spec_file = programs.path("spec.json")
            spec_file.write_text(json.dumps(request))
            return campaign(["campaign", "--spec", str(spec_file), "--jobs", "1",
                             "--backend", "serial"])

        stdout = campaign(FIGURES)
        refs["figures"] = {
            "stdout": chk.digest(stdout),
            "panels": {t: chk.digest(text) for t, text in chk.split_panels(stdout).items()},
        }
        refs["seed-sweep"] = {
            str(seed): chk.digest(spec_run(sweep_request(seed)))
            for seed in (DEFAULT_SEED, HELD_OUT_SEED)
        }
        singles = serve_load.universe(tenants=("",))
        records = chk.sweep_records(spec_run({"kind": "batch", "requests": singles}))
        refs["serve"] = {
            serve_load.key(payload): chk.digest(chk.canonical(metrics))
            for payload, (_, metrics) in zip(singles, records, strict=True)
        }
    chk.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {chk.REFERENCES}")
