"""Tests for the fault-injection subsystem and the layer's recovery machinery."""

import pytest

from repro.apps.pingpong import charm_pingpong
from repro.errors import (
    SimulationError,
    UgniError,
    UgniTransactionError,
)
from repro.faults import FaultConfig, FaultInjector, LinkFlap, NodeCrash, install_faults
from repro.hardware import Machine
from repro.hardware.config import tiny as tiny_config
from repro.lrts.factory import make_runtime
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.units import KB


REL = UgniLayerConfig(reliability=True)


def make_machine(n_nodes=4, seed=0, observe=False):
    cfg = tiny_config(cores_per_node=2).replace(observe=observe)
    return Machine(n_nodes=n_nodes, config=cfg, seed=seed)


def counted(m, category, event):
    """How many ``category/event`` reports the machine's observer counted."""
    return m.observer.snapshot().get(f"counter/{category}/{event}", 0)


class TestErrorHierarchy:
    def test_transaction_error_rc(self):
        assert issubclass(UgniTransactionError, UgniError)
        assert UgniTransactionError.rc == "GNI_RC_TRANSACTION_ERROR"


class TestFaultConfig:
    def test_rate_validation(self):
        with pytest.raises(SimulationError):
            FaultConfig(smsg_drop_rate=1.5)
        with pytest.raises(SimulationError):
            FaultConfig(rdma_error_rate=-0.1)


class TestInjector:
    def test_install_is_exclusive(self):
        m = make_machine()
        install_faults(m)
        with pytest.raises(SimulationError):
            install_faults(m)

    def test_deterministic_decisions(self):
        """Same seed -> the same fault schedule, draw for draw."""
        def decisions(seed):
            m = make_machine(seed=seed)
            inj = FaultInjector(m, FaultConfig(smsg_drop_rate=0.3))
            return [inj.smsg_delivery_fails(0, 2) for _ in range(64)]

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)

    def test_zero_rates_draw_no_rng(self):
        m = make_machine()
        inj = FaultInjector(m, FaultConfig())
        before = inj.rng.bit_generator.state
        assert not inj.smsg_delivery_fails(0, 2)
        assert inj.smsg_stall_delay(0, 2) == 0.0
        assert not inj.rdma_fails(0, 1)
        assert inj.rng.bit_generator.state == before

    def test_node_crash_halts_pes_and_kills_traffic(self):
        m = make_machine(observe=True)
        conv, layer = make_runtime(machine=m, n_pes=m.n_pes, layer="ugni",
                                   layer_config=REL,
                                   fault_schedule=[NodeCrash(at=0.0, node_id=1)])
        m.engine.run(until=1e-3)
        dead = m.nodes[1]
        assert not dead.alive
        assert m.faults.node_crashes == 1
        for rank in dead.pes():
            assert conv.pes[rank]._blocked
        # traffic toward the dead node now fails at the fabric
        assert m.faults.smsg_delivery_fails(0, dead.first_pe)
        assert m.faults.rdma_fails(0, 1)
        assert counted(m, "fault", "node_crash") == 1


class TestLinkFaults:
    def test_flap_degrades_and_recovers(self):
        m = make_machine(observe=True)
        a, b = m.nodes[0].coord, m.nodes[1].coord
        install_faults(m, schedule=[LinkFlap(at=1e-6, frm=a, to=b, duration=5e-6)])
        lk = m.network.link(a, b)
        m.engine.run(until=2e-6)
        assert lk.state == "down"
        assert m.network.route_mode == "dimension-ordered"
        assert lk.effective_bandwidth < lk.bandwidth
        m.engine.run(until=1e-3)
        assert lk.state == "up"
        assert m.network.route_mode == "adaptive"
        assert counted(m, "fault", "link_down") == 1
        assert counted(m, "fault", "link_up") == 1
        # the event's detail reaches the flight record
        (down,) = [r for r in m.observer.flight.records
                   if r.event == "link_down"]
        assert down.where == (a, b) and down.detail == {"duration": 5e-6}

    def test_degraded_link_slows_transfers(self):
        m = make_machine()
        a, b = m.nodes[0].coord, m.nodes[1].coord
        healthy = m.network.transfer(0.0, a, b, 64 * KB).arrival
        m2 = make_machine()
        m2.network.degrade_link(a, b, 0.1)
        degraded = m2.network.transfer(0.0, a, b, 64 * KB).arrival
        assert degraded > healthy
        # routed while a fault was active: counted, until the link is back
        m2.network.restore_link(a, b)
        m2.network.transfer(1.0, a, b, 64 * KB)
        assert (m.network.degraded_routes, m2.network.degraded_routes,
                m2.network.messages_routed) == (0, 1, 2)

    def test_router_steps_around_down_link(self):
        # 1x2x2 torus: two minimal directions from (0,0,0) to (0,1,1)
        m = Machine(n_nodes=4, config=tiny_config(cores_per_node=1))
        assert m.topology.dims == (1, 2, 2)
        src, dst = (0, 0, 0), (0, 1, 1)
        net = m.network
        net.fail_link(src, (0, 1, 0))
        assert net.transfer(0.0, src, dst, 64).hops == 2
        # the first hop went round the down link, along z
        down, around = net.link(src, (0, 1, 0)), net.link(src, (0, 0, 1))
        assert (down.state, around.state) == ("down", "up")
        assert (down.transfers, around.transfers) == (0, 1)
        assert net.link((0, 0, 1), dst).transfers == 1


class TestRecovery:
    def test_pingpong_survives_smsg_drops(self):
        r = charm_pingpong(64, layer_config=REL,
                           faults=FaultConfig(smsg_drop_rate=0.1))
        assert r.stats["rel_retransmits"] > 0
        assert r.stats["rel_failed"] == 0
        assert r.stats["smsg_in_flight"] == 0
        assert r.stats["smsg_credits_used"] == 0
        assert r.stats["faults"]["smsg_dropped"] > 0

    def test_duplicates_are_suppressed(self):
        # an aggressive timeout retransmits packets whose ack is merely
        # slow (or was itself dropped) -> receiver sees duplicates
        lc = REL.replace(retry_backoff_base=5e-6, retry_backoff_max=10e-6)
        r = charm_pingpong(64, layer_config=lc,
                           faults=FaultConfig(smsg_drop_rate=0.15))
        assert r.stats["rel_duplicates"] > 0
        # every duplicate was a retransmit of something already delivered;
        # exactly-once held (the run completed in order) with none abandoned
        assert r.stats["rel_retransmits"] >= r.stats["rel_duplicates"]
        assert r.stats["rel_failed"] == 0
        assert r.stats["smsg_in_flight"] == 0

    def test_smsg_stalls_slow_but_deliver(self):
        base = charm_pingpong(64, layer_config=REL)
        stalled = charm_pingpong(64, layer_config=REL,
                                 faults=FaultConfig(smsg_stall_rate=0.3))
        assert stalled.stats["faults"]["smsg_stalled"] > 0
        assert stalled.one_way_latency > base.one_way_latency
        assert stalled.stats["smsg_in_flight"] == 0

    def test_rendezvous_get_retries_on_transaction_error(self):
        r = charm_pingpong(64 * KB, layer_config=REL,
                           faults=FaultConfig(rdma_error_rate=0.2))
        assert r.stats["post_retries"] > 0
        assert r.stats["post_failures"] == 0
        assert r.stats["faults"]["rdma_failed"] == r.stats["post_retries"]

    def test_persistent_rearms_registration(self):
        r = charm_pingpong(4 * KB, persistent=True, layer_config=REL,
                           faults=FaultConfig(rdma_error_rate=0.2))
        assert r.stats["persistent_rearms"] > 0
        assert r.stats["persistent_rearms"] == r.stats["post_retries"]

    def test_error_without_reliability_raises(self):
        with pytest.raises(UgniTransactionError):
            charm_pingpong(64 * KB, faults=FaultConfig(rdma_error_rate=1.0))


class TestBitIdentity:
    def test_no_injector_vs_zero_rate_injector(self):
        plain = charm_pingpong(64)
        zeroed = charm_pingpong(64, faults=FaultConfig())
        assert plain.one_way_latency == zeroed.one_way_latency

    def test_reliability_off_is_default(self):
        assert not UgniLayerConfig().reliability

    def test_zero_rate_with_reliability_is_self_consistent(self):
        a = charm_pingpong(64, layer_config=REL)
        b = charm_pingpong(64, layer_config=REL, faults=FaultConfig())
        assert a.one_way_latency == b.one_way_latency
        assert a.stats["rel_retransmits"] == b.stats["rel_retransmits"] == 0


class TestReporting:
    def test_fault_report_counts(self):
        m = make_machine(observe=True)
        conv, layer = make_runtime(machine=m, n_pes=m.n_pes, layer="ugni",
                                   layer_config=REL,
                                   faults=FaultConfig(smsg_drop_rate=0.5))
        from repro.converse.scheduler import Message
        h = conv.register_handler(lambda pe, msg: None)
        for i in range(10):
            conv.send_from_outside(0, Message(h, 0, 0, 0))
        # drive cross-node traffic to generate drops
        h2 = conv.register_handler(
            lambda pe, msg: conv.send(pe, 2, Message(h, pe.rank, 2, 64)))
        for i in range(20):
            conv.send_from_outside(0, Message(h2, 0, 0, 0))
        conv.run(until=0.1)
        assert counted(m, "fault", "smsg_drop") == m.faults.smsg_dropped > 0
        assert (counted(m, "recovery", "retransmit")
                == layer.rel_retransmits > 0)
