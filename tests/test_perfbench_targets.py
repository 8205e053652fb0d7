"""perfbench's tracer wraps program functions by name: pin those names.

``perfbench/tracer.py`` resolves every traced ``(module, attribute
path)`` when it installs, so a deleted or renamed function makes every
``perfbench/run.py --trace 1`` run fail with ``AttributeError``.  This
test resolves each target with the tracer's own import-and-getattr
walk.  It never calls ``install()``: that would rebind module globals
of this test process.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    targets = tracer.SYNC_TARGETS + tracer.ASYNC_TARGETS
    assert targets
    unresolved = []
    for name, module, path in targets:
        try:
            importlib.import_module(module)
            _, _, original = tracer._resolve(module, path)
        except (ImportError, AttributeError) as exc:
            unresolved.append(f"{name}: {module}.{path} ({exc})")
            continue
        if not callable(original):
            unresolved.append(f"{name}: {module}.{path} is not callable")
    assert not unresolved, "\n".join(unresolved)
