"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.analysis.fingerprint import MANIFEST_PATH
from repro.core.platform import Platform
from repro.core.task import Instance, Task

REPO_ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# Plain fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_platform() -> Platform:
    return Platform(num_cpus=2, num_gpus=1)


@pytest.fixture
def paper_platform() -> Platform:
    return Platform(num_cpus=20, num_gpus=4)


@pytest.fixture()
def repo_copy(tmp_path: Path) -> Path:
    """A minimal copy of the repo: salted sources + the real manifest."""
    copy = tmp_path / "repo"
    shutil.copytree(
        REPO_ROOT / "src" / "repro",
        copy / "src" / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    (copy / "analysis").mkdir()
    shutil.copy(REPO_ROOT / MANIFEST_PATH, copy / MANIFEST_PATH)
    return copy


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

#: Positive, well-conditioned durations (avoid denormals and huge ratios
#: that would only exercise float noise, not scheduling logic).
durations = st.floats(
    min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def tasks(draw) -> Task:
    return Task(cpu_time=draw(durations), gpu_time=draw(durations))


@st.composite
def instances(draw, min_tasks: int = 1, max_tasks: int = 12) -> Instance:
    n = draw(st.integers(min_value=min_tasks, max_value=max_tasks))
    return Instance([draw(tasks()) for _ in range(n)])


@st.composite
def platforms(draw, max_cpus: int = 4, max_gpus: int = 3) -> Platform:
    m = draw(st.integers(min_value=1, max_value=max_cpus))
    n = draw(st.integers(min_value=1, max_value=max_gpus))
    return Platform(num_cpus=m, num_gpus=n)


# ---------------------------------------------------------------------------
# Assertion helpers
# ---------------------------------------------------------------------------


def assert_schedule_consistent(schedule, instance=None) -> None:
    """Validate and additionally check the makespan matches placements."""
    schedule.validate(instance)
    completed = schedule.completed_placements()
    if completed:
        assert schedule.makespan == max(p.end for p in completed)


def assert_precedence_respected(schedule, graph, eps: float = 1e-9) -> None:
    """Every completed task starts after all its predecessors complete."""
    finish = {p.task: p.end for p in schedule.completed_placements()}
    start = {p.task: p.start for p in schedule.completed_placements()}
    for pred, succ in graph.edges():
        assert start[succ] >= finish[pred] - eps, (
            f"{succ.name} started at {start[succ]} before "
            f"{pred.name} finished at {finish[pred]}"
        )
