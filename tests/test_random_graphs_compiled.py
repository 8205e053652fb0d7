"""Differential pins: the block-drawn random families vs the scalar generators.

``layered_random_compiled`` and ``random_chain_compiled`` draw their
random streams in blocks and emit ``CompiledGraph``s.  They must be a
pure performance change against the frozen scalar generators in
``tests/reference_runtime.py``: byte-equal arrays (durations, both CSR
pairs, kinds, labels) and name, the same generator end state (callers
draw several graphs from one generator), ``TaskGraph`` wrappers equal
in tasks and ``edges()`` order, and event-for-event equal DAG-mode
simulations and equal lower bounds.  That identity keeps every
random-family payload unchanged.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from reference_runtime import reference_layered_random_graph, reference_random_chain_graph
from repro.bounds.dag_lp import dag_lower_bound
from repro.campaign.executor import derive_seeds
from repro.core.platform import Platform
from repro.dag.compiled import CompiledGraph
from repro.dag.priorities import assign_priorities
from repro.dag.random_graphs import (
    layered_random_compiled,
    layered_random_graph,
    random_chain_compiled,
    random_chain_graph,
)
from repro.experiments.workloads import PAPER_PLATFORM
from repro.schedulers.online import POLICIES, make_policy
from repro.simulator.runtime import simulate

#: The default parameters run every seed; each non-default setting and
#: the wrappers run a prefix (the reference generator is the cost).
SEEDS = derive_seeds(2017, 300)
PARAM_SEEDS = 60
WRAPPER_SEEDS = 20

#: family -> (reference, compiled builder, TaskGraph wrapper)
FAMILIES = {
    "layered": (reference_layered_random_graph, layered_random_compiled, layered_random_graph),
    "chains": (reference_random_chain_graph, random_chain_compiled, random_chain_graph),
}

SHAPES = [(1, 7), (9, 1), (16, 16), (20, 3)]

RANGES = {"cpu_range": (1, 3), "accel_range": (0.5, 4.0)}

PARAMS = {
    "layered": [
        {},
        {"edge_probability": 0.0},  # every layer falls back to ``integers``
        {"edge_probability": 0.05},
        {"edge_probability": 1.0},
        RANGES,
    ],
    "chains": [
        {},
        {"cross_probability": 0.0},
        {"cross_probability": 0.9},
        RANGES,
    ],
}

CASES = [
    pytest.param(family, shape, params, id=f"{family}-{shape[0]}x{shape[1]}-{params}")
    for family in FAMILIES
    for shape in SHAPES
    for params in PARAMS[family]
]


def both(family: str, shape: tuple[int, int], params: dict, seed: int):
    """``(reference graph, its rng, compiled graph, its rng)`` for one seed."""
    reference, compiled, _ = FAMILIES[family]
    ref_rng = np.random.default_rng(seed)
    new_rng = np.random.default_rng(seed)
    return (
        reference(*shape, ref_rng, **params),
        ref_rng,
        compiled(*shape, new_rng, **params),
        new_rng,
    )


def edge_names(graph) -> list[tuple[str, str]]:
    return [(p.name, s.name) for p, s in graph.edges()]


@pytest.mark.parametrize("family, shape, params", CASES)
def test_arrays_and_rng_end_state_equal_reference(family, shape, params):
    for seed in SEEDS if not params else SEEDS[:PARAM_SEEDS]:
        ref, ref_rng, new, new_rng = both(family, shape, params, seed)
        expected = CompiledGraph.from_task_graph(ref)
        assert new.name == expected.name
        got, want = new.to_arrays(), expected.to_arrays()
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].dtype == want[key].dtype, (seed, key)
            assert got[key].shape == want[key].shape, (seed, key)
            assert got[key].tobytes() == want[key].tobytes(), (seed, key)
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state, seed


@pytest.mark.parametrize("family, shape, params", CASES)
def test_task_graph_wrappers_equal_reference(family, shape, params):
    reference, _, wrapper = FAMILIES[family]
    for seed in SEEDS[:WRAPPER_SEEDS]:
        ref = reference(*shape, np.random.default_rng(seed), **params)
        new = wrapper(*shape, np.random.default_rng(seed), **params)
        assert new.name == ref.name
        assert [(t.name, t.kind, t.cpu_time, t.gpu_time) for t in new] == [
            (t.name, t.kind, t.cpu_time, t.gpu_time) for t in ref
        ]
        assert edge_names(new) == edge_names(ref)


def test_one_generator_draws_several_graphs_alike():
    """Graphs drawn back to back from one generator match the reference's."""
    ref_rng = np.random.default_rng(SEEDS[0])
    new_rng = np.random.default_rng(SEEDS[0])
    for _ in range(3):
        for family, (reference, compiled, _) in FAMILIES.items():
            for params in PARAMS[family]:
                expected = CompiledGraph.from_task_graph(reference(5, 4, ref_rng, **params))
                got = compiled(5, 4, new_rng, **params)
                assert got.cpu_times.tobytes() == expected.cpu_times.tobytes()
                assert got.succ_indices.tobytes() == expected.succ_indices.tobytes()
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize(
    "shape, params",
    [
        ((0, 3), {}),
        ((3, 0), {}),
        ((3, 3), {"cpu_range": (0.0, 0.0)}),  # zero durations: Task's own check
        ((3, 3), {"cpu_range": (2.0, 1.0)}),  # uniform: high < low
        ((3, 3), {"accel_range": (0.0, 4.0)}),  # uniform: infinite log range
        ((3, 3), {"accel_range": (1e300, 1e-300)}),  # uniform: high < low
    ],
    ids=repr,
)
def test_validation_errors_match_reference(family, shape, params):
    reference, compiled, _ = FAMILIES[family]
    with pytest.raises(Exception) as expected:
        with np.errstate(divide="ignore"):
            reference(*shape, np.random.default_rng(1), **params)
    with pytest.raises(expected.type, match=_literal(str(expected.value))):
        with np.errstate(divide="ignore"):
            compiled(*shape, np.random.default_rng(1), **params)


def _literal(text: str) -> str:
    return f"^{re.escape(text)}$"


# ---------------------------------------------------------------------------
# DAG mode: event-for-event equal simulations, equal lower bounds
# ---------------------------------------------------------------------------

PLATFORMS = [PAPER_PLATFORM, Platform(num_cpus=2, num_gpus=1), Platform(num_cpus=1, num_gpus=3)]

DAG_GRAPHS = [
    pytest.param("layered", (6, 5), {}, id="layered-6x5"),
    pytest.param("layered", (5, 6), {"edge_probability": 0.05}, id="layered-5x6-p0.05"),
    pytest.param("chains", (4, 6), {}, id="chains-4x6"),
    pytest.param("chains", (5, 5), {"cross_probability": 0.9}, id="chains-5x5-c0.9"),
]


def events(schedule) -> list[tuple]:
    return [
        (p.task.name, p.worker.kind.name, p.worker.index, p.start, p.end, p.aborted)
        for p in schedule.placements
    ]


@pytest.mark.parametrize("family, shape, params", DAG_GRAPHS)
@pytest.mark.parametrize("platform", PLATFORMS, ids=lambda p: f"{p.num_cpus}c{p.num_gpus}g")
def test_dag_mode_identical(family, shape, params, platform):
    for seed in SEEDS[:3]:
        ref, _, new, _ = both(family, shape, params, seed)
        assert dag_lower_bound(new.as_task_graph(), platform) == dag_lower_bound(ref, platform)
        for prefix in POLICIES:
            for scheme in ("avg", "min"):
                algorithm = f"{prefix}-{scheme}"
                assign_priorities(ref, platform, scheme)
                assign_priorities(new, platform, scheme)
                want = simulate(ref, platform, make_policy(algorithm))
                got = simulate(new, platform, make_policy(algorithm))
                assert events(got) == events(want), (seed, algorithm)
