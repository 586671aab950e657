"""Tests for links, the torus network, the NIC model, and the machine."""

import dataclasses

import pytest

from repro.errors import TopologyError
from repro.hardware import Machine, MachineConfig
from repro.hardware.config import tiny as tiny_config
from repro.hardware.link import Link
from repro.hardware.nic import TransferKind
from repro.hardware.router import TorusNetwork
from repro.hardware.topology import Torus3D
from repro.lrts.factory import make_machine
from repro.units import KB, MB, us


class TestLink:
    def test_uncontended_timing(self):
        lk = Link("l", bandwidth=1e9, latency=1e-7)
        start, head = lk.reserve(now=0.0, nbytes=1000)
        assert start == 0.0
        assert head == pytest.approx(1e-7)
        assert lk.available_at == pytest.approx(1e-6)

    def test_horizons_lane_by_lane(self):
        one = Link("l", bandwidth=1e9, latency=1e-7)
        assert one.horizons == (0.0,)
        one.reserve(0.0, 1000)
        assert one.horizons == (one.available_at,) == (pytest.approx(1e-6),)
        port = Link("p", bandwidth=1e9, latency=1e-7, lanes=3)
        port.reserve(0.0, 1000)
        port.reserve(0.0, 2000)
        assert port.horizons == (pytest.approx(1e-6), pytest.approx(2e-6), 0.0)
        assert port.available_at == 0.0

    def test_contention_serializes(self):
        lk = Link("l", bandwidth=1e9, latency=1e-7)
        lk.reserve(0.0, 1000)  # occupies until 1us
        start, _ = lk.reserve(0.0, 1000)
        assert start == pytest.approx(1e-6)

    def test_min_occupancy_floor(self):
        lk = Link("l", bandwidth=1e9, latency=1e-7)
        lk.reserve(0.0, 8, min_occupancy=5e-8)
        assert lk.available_at == pytest.approx(5e-8)

    def test_counters(self):
        lk = Link("l", 1e9, 1e-7)
        lk.reserve(0.0, 100)
        lk.reserve(0.0, 200)
        assert lk.bytes_carried == 300
        assert lk.transfers == 2


class TestTorusNetwork:
    def _net(self, dims=(4, 4, 4), **cfg_kw):
        cfg = MachineConfig(**cfg_kw)
        return TorusNetwork(Torus3D(dims), cfg), cfg

    def test_latency_grows_with_hops(self):
        net, cfg = self._net()
        near = net.transfer(0.0, (0, 0, 0), (1, 0, 0), 8)
        # rebuild to reset link state
        net2, _ = self._net()
        far = net2.transfer(0.0, (0, 0, 0), (2, 2, 2), 8)
        assert far.arrival > near.arrival
        assert far.hops == 6 and near.hops == 1

    def test_bandwidth_cap_applies(self):
        net, cfg = self._net()
        slow = net.transfer(0.0, (0, 0, 0), (1, 0, 0), 1 * MB, bandwidth_cap=1e9)
        net2, _ = self._net()
        fast = net2.transfer(0.0, (0, 0, 0), (1, 0, 0), 1 * MB, bandwidth_cap=6e9)
        assert slow.arrival > fast.arrival

    def test_injection_port_serializes_beyond_its_lanes(self):
        """More concurrent big messages than port lanes must queue."""
        net, cfg = self._net()
        results = [
            net.transfer(0.0, (0, 0, 0), (1, 0, 0), 1 * MB)
            for _ in range(cfg.nic_port_lanes + 1)
        ]
        # the lane-count-plus-first message waits a full occupancy
        assert results[-1].depart >= 1 * MB / cfg.link_bandwidth
        # but the first `lanes` proceed together
        assert results[cfg.nic_port_lanes - 1].depart < 1 * MB / cfg.link_bandwidth

    def test_link_lanes_allow_concurrency(self):
        lk = Link("l", bandwidth=1e9, latency=1e-7, lanes=2)
        s1, _ = lk.reserve(0.0, 1000)
        s2, _ = lk.reserve(0.0, 1000)
        s3, _ = lk.reserve(0.0, 1000)
        assert s1 == 0.0 and s2 == 0.0
        assert s3 == 1e-6

    def test_adaptive_routing_spreads_load(self):
        # Backlog the +x link out of the origin directly (as cross traffic
        # would), then send to a corner: the adaptive router should leave
        # via y or z first, the dimension-ordered router must wait.
        net, cfg = self._net(adaptive_routing=True)
        net.link((0, 0, 0), (1, 0, 0)).reserve(0.0, 20 * MB)
        t_adaptive = net.transfer(0.0, (0, 0, 0), (1, 1, 1), 1 * KB).arrival

        net2, _ = self._net(adaptive_routing=False)
        net2.link((0, 0, 0), (1, 0, 0)).reserve(0.0, 20 * MB)
        t_dor = net2.transfer(0.0, (0, 0, 0), (1, 1, 1), 1 * KB).arrival
        assert t_adaptive < t_dor

    def test_deterministic_routing_same_result(self):
        def run():
            net, _ = self._net()
            out = []
            for i in range(10):
                t = net.transfer(0.0, (0, 0, 0), (2, 3, 1), 128 * (i + 1))
                out.append(round(t.arrival * 1e12))
            return out

        assert run() == run()


class TestNic:
    def _machine(self, n_nodes=4):
        return Machine(n_nodes=n_nodes, config=tiny_config())

    def test_smsg_small_message_latency_near_calibration(self):
        """Pure SMSG 8-byte latency should be ~1.2us (paper §V.A)."""
        m = self._machine()
        arrivals = []
        m.nodes[0].nic.smsg_send(m.nodes[1], 8, arrivals.append)
        m.engine.run()
        assert len(arrivals) == 1
        assert 0.9 * us < arrivals[0] < 1.6 * us

    def test_fma_beats_bte_for_small(self):
        m = self._machine()
        done = {}
        m.nodes[0].nic.post_transfer(
            TransferKind.FMA_PUT, m.nodes[1].coord, 256,
            on_remote_data=lambda t: done.setdefault("fma", t))
        m2 = self._machine()
        m2.nodes[0].nic.post_transfer(
            TransferKind.BTE_PUT, m2.nodes[1].coord, 256,
            on_remote_data=lambda t: done.setdefault("bte", t))
        m.engine.run()
        m2.engine.run()
        assert done["fma"] < done["bte"]

    def test_bte_beats_fma_for_large(self):
        done = {}
        m = self._machine()
        m.nodes[0].nic.post_transfer(
            TransferKind.FMA_PUT, m.nodes[1].coord, 64 * KB,
            on_remote_data=lambda t: done.setdefault("fma", t))
        m2 = self._machine()
        m2.nodes[0].nic.post_transfer(
            TransferKind.BTE_PUT, m2.nodes[1].coord, 64 * KB,
            on_remote_data=lambda t: done.setdefault("bte", t))
        m.engine.run()
        m2.engine.run()
        assert done["bte"] < done["fma"]

    def test_fma_occupies_cpu_proportionally_to_size(self):
        m = self._machine()
        cpu_small = m.nodes[0].nic.post_transfer(
            TransferKind.FMA_PUT, m.nodes[1].coord, 64)
        cpu_big = m.nodes[0].nic.post_transfer(
            TransferKind.FMA_PUT, m.nodes[1].coord, 64 * KB)
        assert cpu_big > cpu_small * 10

    def test_bte_cpu_cost_is_flat(self):
        m = self._machine()
        cpu_small = m.nodes[0].nic.post_transfer(
            TransferKind.BTE_PUT, m.nodes[1].coord, 64)
        cpu_big = m.nodes[0].nic.post_transfer(
            TransferKind.BTE_PUT, m.nodes[1].coord, 4 * MB)
        assert cpu_big == pytest.approx(cpu_small)

    def test_bte_engine_serializes_transfers(self):
        m = self._machine()
        done = []
        nic = m.nodes[0].nic
        nic.post_transfer(TransferKind.BTE_PUT, m.nodes[1].coord, 1 * MB,
                          on_remote_data=done.append)
        nic.post_transfer(TransferKind.BTE_PUT, m.nodes[2].coord, 1 * MB,
                          on_remote_data=done.append)
        m.engine.run()
        assert len(done) == 2
        gap = abs(done[1] - done[0])
        assert gap > 0.8 * (1 * MB / m.config.bte_put_bandwidth)

    def test_get_local_cq_fires_after_roundtrip(self):
        m = self._machine()
        got = []
        m.nodes[0].nic.post_transfer(
            TransferKind.BTE_GET, m.nodes[1].coord, 4 * KB,
            on_local_cq=got.append)
        m.engine.run()
        assert len(got) == 1
        # must include at least two network traversals
        assert got[0] > 2 * (2 * m.config.nic_latency)

    def test_best_kind_selection(self):
        m = self._machine()
        nic = m.nodes[0].nic
        assert nic.best_kind(512, put=False) is TransferKind.FMA_GET
        assert nic.best_kind(64 * KB, put=False) is TransferKind.BTE_GET
        assert nic.best_kind(512, put=True) is TransferKind.FMA_PUT
        assert nic.best_kind(64 * KB, put=True) is TransferKind.BTE_PUT

    def test_loopback_delivery(self):
        m = self._machine()
        got = []
        m.nodes[0].nic.loopback_send(4 * KB, got.append)
        m.engine.run()
        assert len(got) == 1
        assert got[0] > 0


class TestMachine:
    def test_pe_mapping_block_layout(self):
        m = Machine(n_nodes=3, config=tiny_config(cores_per_node=4))
        assert m.n_pes == 12
        assert m.node_of_pe(0).node_id == 0
        assert m.node_of_pe(3).node_id == 0
        assert m.node_of_pe(4).node_id == 1
        assert m.core_of_pe(6) == 2
        assert m.same_node(4, 7)
        assert not m.same_node(3, 4)

    def test_pe_out_of_range(self):
        m = Machine(n_nodes=2, config=tiny_config(cores_per_node=4))
        with pytest.raises(TopologyError):
            m.node_of_pe(8)

    def test_for_pes_rounds_up_to_whole_nodes(self):
        m = make_machine(n_pes=10, config=tiny_config(cores_per_node=4))
        assert m.n_nodes == 3
        assert m.n_pes == 12

    def test_node_pe_ranges_partition(self):
        m = Machine(n_nodes=4, config=tiny_config(cores_per_node=4))
        seen = []
        for node in m.nodes:
            seen.extend(node.pes())
        assert seen == list(range(m.n_pes))

    def test_node_tables_are_built_by_the_first_read(self):
        m = Machine(n_nodes=2, config=tiny_config(cores_per_node=4))
        lazy = ("memory", "gpus")
        assert not any(name in vars(node) for node in m.nodes for name in lazy)
        node = m.nodes[1]
        block = node.memory.malloc(4 * KB)
        assert node.memory is vars(node)["memory"]
        assert block.node_id == 1 and node.memory.used == 4 * KB
        assert node.gpus == [] and "gpus" in vars(node)
        # the other node was not touched
        assert not any(name in vars(m.nodes[0]) for name in lazy)

    def test_zero_nodes_rejected(self):
        with pytest.raises(TopologyError):
            Machine(n_nodes=0)


class TestConfig:
    def test_cost_helpers_monotone_in_size(self):
        cfg = MachineConfig()
        assert cfg.t_register(1 * MB) > cfg.t_register(4 * KB) > 0
        assert cfg.t_malloc(1 * MB) > cfg.t_malloc(64)
        assert cfg.t_memcpy(1 * MB) > cfg.t_memcpy(64)

    def test_smsg_max_shrinks_with_job_size(self):
        cfg = MachineConfig()
        assert cfg.smsg_max_size(64) == 1024
        assert cfg.smsg_max_size(1000) == 512
        assert cfg.smsg_max_size(5000) == 128

    def test_rdma_kind_crossover(self):
        cfg = MachineConfig()
        assert cfg.rdma_kind_for(1024) == "fma"
        assert cfg.rdma_kind_for(cfg.fma_bte_crossover) == "bte"

    def test_replace_makes_new_config(self):
        cfg = MachineConfig()
        cfg2 = cfg.replace(cores_per_node=1)
        assert cfg2.cores_per_node == 1
        assert cfg.cores_per_node == 24

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(MachineConfig)
                 if f.type == "float"])
    def test_durations_and_bandwidths_are_validated(self, name):
        # a duration (CPU cost, latency, gap) may be 0, a bandwidth may not
        bandwidth = name.endswith("_bandwidth")
        for bad in (-1e-9, float("nan")) + ((0.0,) if bandwidth else ()):
            with pytest.raises(ValueError, match=name):
                MachineConfig(**{name: bad})
        if not bandwidth:
            assert getattr(MachineConfig(**{name: 0.0}), name) == 0.0

    def test_frozen(self):
        cfg = MachineConfig()
        with pytest.raises(Exception):
            cfg.cores_per_node = 5  # type: ignore[misc]
