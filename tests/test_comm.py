"""Tests for the communication substrate (model, directory, runtime)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.heft import CommAwareHeftPolicy
from repro.comm.memory import DataDirectory
from repro.comm.model import (
    RAM,
    CommunicationModel,
    ZERO_COMM,
    gpu_memory,
    location_of,
)
from repro.comm.runtime import simulate_with_comm
from repro.core.platform import Platform, ResourceKind, Worker
from repro.core.task import Task
from repro.dag.cholesky import TILE_BYTES, cholesky_graph
from repro.dag.dataflow import AccessMode, DataflowTracker
from repro.dag.graph import TaskGraph
from repro.dag.priorities import assign_priorities
from repro.dag.qr import qr_graph
from repro.schedulers.online import POLICIES, HeteroPrioPolicy, make_policy
from repro.simulator import simulate

from conftest import assert_precedence_respected


class TestCommunicationModel:
    def test_same_location_is_free(self):
        model = CommunicationModel()
        assert model.transfer_time(RAM, RAM, TILE_BYTES) == 0.0
        assert model.transfer_time(gpu_memory(1), gpu_memory(1), TILE_BYTES) == 0.0

    def test_host_device_is_one_hop(self):
        model = CommunicationModel(bandwidth=1e9, latency=1e-3, scale=1.0)
        assert model.transfer_time(RAM, gpu_memory(0), 1_000_000) == pytest.approx(
            1e-3 + 1e-3
        )

    def test_gpu_to_gpu_is_two_hops(self):
        model = CommunicationModel(bandwidth=1e9, latency=1e-3, scale=1.0)
        one_hop = model.transfer_time(RAM, gpu_memory(0), 500)
        assert model.transfer_time(gpu_memory(1), gpu_memory(0), 500) == pytest.approx(
            2 * one_hop
        )

    def test_scale_zero_kills_all_transfers(self):
        assert ZERO_COMM.transfer_time(RAM, gpu_memory(0), 10**9) == 0.0

    def test_scaled_copy(self):
        model = CommunicationModel()
        double = model.scaled(2.0)
        assert double.transfer_time(RAM, gpu_memory(0), 1000) == pytest.approx(
            2 * model.transfer_time(RAM, gpu_memory(0), 1000)
        )

    def test_tile_transfer_magnitude(self):
        # A 7.4 MB tile over PCIe-class link: sub-millisecond but
        # comparable to the GPU kernel durations (the interesting regime).
        t = CommunicationModel().link_time(TILE_BYTES)
        assert 1e-4 < t < 2e-3

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CommunicationModel(bandwidth=0.0)
        with pytest.raises(ValueError):
            CommunicationModel(latency=-1.0)
        with pytest.raises(ValueError):
            CommunicationModel().link_time(-5)

    def test_location_of_workers(self):
        assert location_of(Worker(ResourceKind.CPU, 3)) == RAM
        assert location_of(Worker(ResourceKind.GPU, 2)) == gpu_memory(2)


class TestDataDirectory:
    def test_initial_copies_in_ram(self):
        d = DataDirectory()
        assert d.copies("A") == {RAM}
        assert d.has_copy("A", RAM)
        assert not d.has_copy("A", gpu_memory(0))

    def test_read_replicates(self):
        d = DataDirectory()
        d.add_copy("A", gpu_memory(0))
        assert d.copies("A") == {RAM, gpu_memory(0)}

    def test_write_invalidates(self):
        d = DataDirectory()
        d.add_copy("A", gpu_memory(0))
        d.write("A", gpu_memory(1))
        assert d.copies("A") == {gpu_memory(1)}

    def test_cheapest_source_prefers_local(self):
        d = DataDirectory()
        d.add_copy("A", gpu_memory(0))
        model = CommunicationModel()
        src, cost = d.cheapest_source("A", gpu_memory(0), TILE_BYTES, model)
        assert cost == 0.0

    def test_cheapest_source_prefers_ram_over_other_gpu(self):
        d = DataDirectory()
        d.add_copy("A", gpu_memory(1))
        model = CommunicationModel()
        src, cost = d.cheapest_source("A", gpu_memory(0), TILE_BYTES, model)
        assert src == RAM  # one hop instead of two

    def test_invalidate_all(self):
        d = DataDirectory()
        d.write("A", gpu_memory(0))
        d.invalidate_all()
        assert d.copies("A") == {RAM}

    def test_invalidate_selected(self):
        d = DataDirectory()
        d.write("A", gpu_memory(0))
        d.write("B", gpu_memory(1))
        d.invalidate_all(["A"])
        assert d.copies("A") == {RAM}
        assert d.copies("B") == {gpu_memory(1)}


def _two_kernel_graph() -> TaskGraph:
    tracker = DataflowTracker("toy", default_handle_bytes=TILE_BYTES)
    producer = Task(cpu_time=1.0, gpu_time=0.1, name="producer")
    consumer = Task(cpu_time=1.0, gpu_time=0.1, name="consumer")
    tracker.submit(producer, [("A", AccessMode.READ_WRITE)])
    tracker.submit(consumer, [("A", AccessMode.READ_WRITE)])
    return tracker.graph


class TestCommRuntime:
    def test_zero_comm_matches_plain_simulator(self):
        # Placement for placement, for every POLICIES prefix.
        # CommAwareHeftPolicy is left out: its worker tie-break differs
        # from HeftPolicy's by design, so it may place tasks apart at an
        # equal makespan.
        for build in (cholesky_graph, qr_graph):
            for n_tiles in (4, 8):
                graph = build(n_tiles)
                for platform in (Platform(4, 2), Platform(3, 1), Platform(1, 2)):
                    assign_priorities(graph, platform, "min")
                    for policy in POLICIES.values():
                        plain = simulate(graph, platform, policy())
                        with_zero = simulate_with_comm(
                            graph, platform, policy(), model=ZERO_COMM
                        )
                        assert with_zero.schedule.placements == plain.placements
                        assert with_zero.makespan == plain.makespan
                        assert with_zero.transfers == []

    def test_transfers_are_traced(self):
        platform = Platform(1, 1)
        result = simulate_with_comm(_two_kernel_graph(), platform, HeteroPrioPolicy())
        # Both kernels run on the GPU: one fetch of A from RAM.
        assert result.transfer_volume() == TILE_BYTES
        assert len(result.transfers) == 1
        assert result.transfers[0].source == RAM

    def test_transfer_delays_lengthen_makespan(self):
        platform = Platform(1, 1)
        graph = _two_kernel_graph()
        free = simulate_with_comm(graph, platform, HeteroPrioPolicy(), model=ZERO_COMM)
        paid = simulate_with_comm(graph, platform, HeteroPrioPolicy())
        assert paid.makespan > free.makespan

    def test_written_data_stays_on_gpu(self):
        # producer writes A on the GPU; consumer on the same GPU needs no
        # second transfer.
        platform = Platform(1, 1)
        result = simulate_with_comm(_two_kernel_graph(), platform, HeteroPrioPolicy())
        consumer_transfers = [t for t in result.transfers if t.task.name == "consumer"]
        assert consumer_transfers == []

    def test_precedence_respected_with_transfers(self, rng):
        platform = Platform(4, 2)
        graph = cholesky_graph(8)
        assign_priorities(graph, platform, "min")
        result = simulate_with_comm(graph, platform, make_policy("heteroprio-min"))
        result.schedule.validate()
        assert_precedence_respected(result.schedule, graph)

    def test_compute_intervals_have_exact_durations(self):
        platform = Platform(2, 1)
        graph = cholesky_graph(4)
        assign_priorities(graph, platform, "min")
        result = simulate_with_comm(graph, platform, make_policy("heteroprio-min"))
        for p in result.schedule.completed_placements():
            assert p.duration == pytest.approx(p.full_duration)

    def test_transfer_accounting_consistent(self):
        platform = Platform(2, 2)
        graph = cholesky_graph(6)
        assign_priorities(graph, platform, "min")
        result = simulate_with_comm(graph, platform, make_policy("heteroprio-min"))
        assert result.transfer_time() > 0
        for t in result.transfers:
            assert t.end > t.start
            assert t.size_bytes == TILE_BYTES

    @given(scale=st.floats(min_value=0.0, max_value=4.0, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_all_tasks_complete_at_any_scale(self, scale):
        platform = Platform(2, 1)
        graph = cholesky_graph(4)
        assign_priorities(graph, platform, "min")
        result = simulate_with_comm(
            graph, platform, make_policy("heteroprio-min"),
            model=CommunicationModel(scale=scale),
        )
        assert len(result.schedule.completed_placements()) == len(graph)


class TestCommAwareHeft:
    def test_beats_plain_heft_under_heavy_transfers(self):
        platform = Platform(20, 4)
        graph = cholesky_graph(12)
        model = CommunicationModel(scale=2.0)
        assign_priorities(graph, platform, "avg")
        plain = simulate_with_comm(
            graph, platform, make_policy("heft-avg"), model=model
        )
        aware = simulate_with_comm(graph, platform, CommAwareHeftPolicy(), model=model)
        assert aware.makespan < plain.makespan

    def test_degrades_to_plain_heft_without_comm(self):
        platform = Platform(4, 2)
        graph = cholesky_graph(6)
        assign_priorities(graph, platform, "avg")
        plain = simulate_with_comm(
            graph, platform, make_policy("heft-avg"), model=ZERO_COMM
        )
        aware = simulate_with_comm(
            graph, platform, CommAwareHeftPolicy(), model=ZERO_COMM
        )
        assert aware.makespan == pytest.approx(plain.makespan)

    def test_works_without_attach(self):
        # Used outside the comm runtime it behaves like plain HEFT.
        platform = Platform(2, 1)
        graph = cholesky_graph(4)
        assign_priorities(graph, platform, "avg")
        schedule = simulate(graph, platform, CommAwareHeftPolicy())
        assert len(schedule.completed_placements()) == len(graph)


class TestCommExperiment:
    def test_runs_and_has_expected_shape(self):
        from repro.experiments.comm_sensitivity import run

        result = run("cholesky", n_tiles=8, scales=(0.0, 1.0, 2.0))
        hp = result.series_by_label("heteroprio-min").values
        heft = result.series_by_label("heft-avg").values
        # Ratios grow with the transfer scale, and HeteroPrio stays ahead
        # of plain HEFT under heavy communication.
        assert hp[0] < hp[-1]
        assert hp[-1] < heft[-1]
