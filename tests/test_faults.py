"""Tests for the fault-injection subsystem and the layer's recovery machinery."""

import pytest

from repro.apps.pingpong import charm_pingpong
from repro.converse.scheduler import Message
from repro.errors import (
    SimulationError,
    UgniError,
    UgniTransactionError,
)
from repro.faults import FaultConfig, FaultInjector, NodeCrash, install_faults
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

    def test_crash_during_a_blocking_mpi_recv_keeps_the_pe_halted(self):
        """The 64 KB GET completes after node 1 died under its blocking
        MPI_Recv: the PE stays blocked, is charged nothing more, and the
        message counts once, as dropped, not as delivered."""
        conv, lrts = make_runtime(
            n_nodes=2, layer="mpi", config=tiny_config(cores_per_node=1),
            fault_schedule=[NodeCrash(at=12.7e-6, node_id=1)])
        got = []
        hid = conv.register_handler(lambda pe, msg: got.append(msg))
        conv.machine.engine.post_at(0.0, lambda: conv.send(
            conv.pes[0], 1, Message(hid, 0, 1, 64 * KB, None)))
        pe = conv.pes[1]
        conv.run(until=12.7e-6 + 1e-12)
        assert pe.halted and pe._blocked and lrts.blocking_recvs == 1
        at_crash = (pe.vtime, pe.overhead_time, pe.busy_until)
        conv.run()
        assert pe._blocked
        assert (pe.vtime, pe.overhead_time, pe.busy_until) == at_crash
        assert pe.dropped_dead == 1
        assert lrts.delivered == 0 and got == []


#: one message per receive path whose arrival lands on the PE from engine
#: context: (layer, bytes, cores per node, config fields, layer config,
#: src, dst, device).  A ``"persistent"`` layer config sends over a
#: persistent channel opened at 0 (the send at ``PERSISTENT_SEND_AT``).
ARRIVAL_PATHS = {
    "ugni_smsg": ("ugni", 100, 1, {}, None, 0, 1, False),
    "ugni_msgq": ("ugni", 32, 1, {}, UgniLayerConfig(small_path="msgq"),
                  0, 1, False),
    "rdma_inline": ("rdma", 100, 1, {"topology": "dragonfly"}, None, 0, 1,
                    False),
    "ugni_intranode": ("ugni", 256, 2, {}, None, 2, 3, False),
    "rdma_intranode": ("rdma", 256, 2, {}, None, 2, 3, False),
    "ugni_gpu_staged": ("ugni", 256, 1, {"gpus_per_node": 1}, None, 0, 1,
                        True),
    # the GET rendezvous: the message is queued behind the step that
    # landed it, so a crash can flush it after the layer counted it
    "ugni_rndv": ("ugni", 64 * KB, 1, {}, None, 0, 1, False),
    "rdma_rndv": ("rdma", 64 * KB, 1, {"topology": "dragonfly"}, None, 0, 1,
                  False),
    "mpi_eager": ("mpi", 128, 1, {}, None, 0, 1, False),
    "mpi_rndv": ("mpi", 64 * KB, 1, {}, None, 0, 1, False),
    "mpi_intranode": ("mpi", 256, 2, {}, None, 2, 3, False),
    # its PUT_DONE can be refused by the dead node: lost, not dropped
    "ugni_put_rndv": ("ugni", 64 * KB, 1, {},
                      UgniLayerConfig(rendezvous="put"), 0, 1, False),
    "ugni_nopool_rndv": ("ugni", 64 * KB, 1, {},
                         UgniLayerConfig(use_mempool=False), 0, 1, False),
    "ugni_msgq_rndv": ("ugni", 64 * KB, 1, {},
                       UgniLayerConfig(small_path="msgq"), 0, 1, False),
    "ugni_reliable_smsg": ("ugni", 100, 1, {}, REL, 0, 1, False),
    "ugni_gpu_direct": ("ugni", 256, 1,
                        {"gpus_per_node": 1, "gpu_transport": "direct"},
                        None, 0, 1, True),
    "rdma_eager": ("rdma", 8 * KB, 1, {"topology": "dragonfly"}, None, 0, 1,
                   False),
    "ugni_persistent": ("ugni", 4 * KB, 1, {}, "persistent", 0, 1, False),
}
PERSISTENT_SEND_AT = 50e-6
#: the stats keys that count one application message sent each
SENT_KEYS = ("small_sent", "rendezvous_sent", "persistent_sent",
             "intranode_sent", "inline_sent", "eager_sent", "sent",
             "gpu_staged_sent", "gpu_direct_sent", "gpu_d2d_sent")


def _one_message(path, crash_at=None):
    """Send one message on ``path`` with node 1 crashing at ``crash_at``;
    return ``(delivered, dropped_dead at dst, handler start times,
    ledger)``, the ledger ``(sent, delivered, dropped_dead, lost)`` over
    the whole layer, or ``None`` where the run raised
    :class:`UgniTransactionError`."""
    layer, nbytes, cpn, fields, lcfg, src, dst, device = ARRIVAL_PATHS[path]
    persistent = lcfg == "persistent"
    conv, lrts = make_runtime(
        n_nodes=2, layer=layer, layer_config=None if persistent else lcfg,
        config=tiny_config(cores_per_node=cpn).replace(**fields),
        fault_schedule=([] if crash_at is None
                        else [NodeCrash(at=crash_at, node_id=1)]))
    ran = []
    hid = conv.register_handler(lambda pe, msg: ran.append(pe.vtime))
    msg = Message(hid, src, dst, nbytes, None, device=device)
    if persistent:
        chan = []
        kick = conv.register_handler(lambda pe, m: (
            lrts.send_persistent(pe, chan[0], msg) if chan
            else chan.append(lrts.create_persistent(pe, dst, nbytes))))
        conv.send_from_outside(src, Message(kick, src, src, 0))
        conv.send_from_outside(src, Message(kick, src, src, 0),
                               at=PERSISTENT_SEND_AT)
    else:
        conv.machine.engine.post_at(
            0.0, lambda: conv.send(conv.pes[src], dst, msg))
    try:
        conv.run()
    except UgniTransactionError:
        # no reliability: a post to the dead node raises, by design
        assert not (lcfg and getattr(lcfg, "reliability", False)), path
        ledger = None
    else:
        stats = lrts.stats()
        ledger = (sum(stats.get(k, 0) for k in SENT_KEYS), lrts.delivered,
                  sum(pe.dropped_dead for pe in conv.pes),
                  sum(lrts.lost.values()))
    return lrts.delivered, conv.pes[dst].dropped_dead, ran, ledger


class TestDeliveredOrDropped:
    """A message that reaches a crashed PE is ``dropped_dead`` and not
    ``delivered``: the layer counts a delivery only when ``PE.enqueue``
    takes the message, on every receive path.  And the message has one
    outcome, whenever node 1 crashes: ``sent == delivered + dropped_dead
    + lost`` over the layer.  Without reliability a post to the dead
    node raises :class:`UgniTransactionError` instead (the layer's
    documented behaviour), an accepted outcome the identity is not read
    for."""

    @pytest.mark.parametrize("path", sorted(ARRIVAL_PATHS))
    def test_never_both(self, path):
        (_, _, (ran_at,), ledger) = _one_message(path)
        assert ledger == (1, 1, 0, 0)
        sent_at = (PERSISTENT_SEND_AT if ARRIVAL_PATHS[path][4] == "persistent"
                   else 0.0)
        # node 1 crashes at 40 even steps from the send to the handler,
        # and every 0.1 us over the 5 us before the handler ran
        grid = [sent_at + k * (ran_at - sent_at) / 41 for k in range(1, 41)]
        grid += [ran_at - k * 0.1e-6 for k in range(50)]
        outcomes = set()
        for crash_at in (t for t in grid if t > sent_at):
            delivered, dropped, ran, ledger = _one_message(path, crash_at)
            if ledger is None:
                continue
            assert (delivered, dropped) != (1, 1), (path, crash_at)
            assert delivered == len(ran), (path, crash_at)
            sent, delivered, dropped_dead, lost = ledger
            assert sent == 1 == delivered + dropped_dead + lost, (
                path, crash_at, ledger)
            outcomes.add((delivered, dropped))
        # the grid straddles the arrival: both outcomes happen
        assert {(1, 0), (0, 1)} <= outcomes, outcomes

    def test_a_refused_put_done_loses_the_message(self):
        """The PUT rendezvous's last control is refused by a node that
        crashed after the data landed (the handler runs at 929.8 us): the
        message is lost."""
        for crash_at in (913.5e-6, 920.5e-6, 927.5e-6):
            *_, ledger = _one_message("ugni_put_rndv", crash_at)
            assert ledger == (1, 0, 0, 1), crash_at

    def test_a_get_init_reaching_a_dead_node_drops_the_message(self):
        """The GET rendezvous's INIT lands on the crashed PE: the message
        it carries is ``dropped_dead`` there, once."""
        *_, ledger = _one_message("ugni_rndv", 5e-6)
        assert ledger == (1, 0, 1, 0)


def _ledger_run(layer, lcfg, schedule, drop, nbytes=100, sends=1,
                fields=None):
    """``sends`` messages PE 0 -> PE 1 (nodes 0 and 1) at 0, with the
    injector's SMSG/RC draw replaced by ``drop(src, dst)``; return the
    layer's ledger ``(sent, delivered, dropped_dead, lost by cause)``."""
    conv, lrts = make_runtime(
        n_nodes=2, layer=layer, layer_config=lcfg,
        config=tiny_config(cores_per_node=1).replace(**(fields or {})),
        faults=FaultConfig(), fault_schedule=schedule)
    conv.machine.faults.smsg_delivery_fails = drop
    hid = conv.register_handler(lambda pe, msg: None)
    for _ in range(sends):
        conv.machine.engine.post_at(0.0, lambda: conv.send(
            conv.pes[0], 1, Message(hid, 0, 1, nbytes, None)))
    conv.run()
    stats = lrts.stats()
    return (sum(stats.get(k, 0) for k in SENT_KEYS), lrts.delivered,
            sum(pe.dropped_dead for pe in conv.pes), lrts.lost)


class TestLedgerUnderLoss:
    """Where a sender gives up, the message is lost only if the receiver
    never took it."""

    def test_a_crashed_sender_loses_what_it_never_had_acked(self):
        """Reliable SMSG: the only copy is dropped and the sender's node
        crashes before its retransmit timer fires."""
        drops = iter([True])
        ledger = _ledger_run("ugni", REL, [NodeCrash(at=10e-6, node_id=0)],
                             lambda src, dst: next(drops, False))
        assert ledger == (1, 0, 0, {"sender_crashed": 1})

    def test_a_crashed_sender_loses_its_credit_stalled_sends(self):
        """Without reliability: 200 sends of 900 B outrun the SMSG credit,
        and those still parked when the sender's node crashes never
        leave."""
        sent, delivered, dropped_dead, lost = _ledger_run(
            "ugni", None, [NodeCrash(at=1e-6, node_id=0)],
            lambda src, dst: False, nbytes=900, sends=200)
        assert 0 < delivered < sent == 200
        assert (dropped_dead, lost) == (0, {"sender_crashed": sent - delivered})

    def test_a_give_up_on_a_packet_the_receiver_took_loses_nothing(self):
        """Every ack is dropped: the sender gives up on a packet that was
        delivered, and the ledger keeps it delivered."""
        ledger = _ledger_run("ugni", REL, [], lambda src, dst: src == 1)
        assert ledger == (1, 1, 0, {})

    def test_persistent_sends_queued_behind_a_dead_handshake_are_lost(self):
        """Three sends queue on a new channel whose destination's node
        crashes while the handshake is in flight: the refused setup loses
        each of them, and none is left without an outcome."""
        conv, lrts = make_runtime(
            n_nodes=2, layer="ugni", config=tiny_config(cores_per_node=1),
            faults=FaultConfig(),
            fault_schedule=[NodeCrash(at=1e-6, node_id=1)])
        hid = conv.register_handler(lambda pe, msg: None)

        def open_and_send():
            handle = lrts.create_persistent(conv.pes[0], 1, 1 * KB)
            for _ in range(3):
                lrts.send_persistent(conv.pes[0], handle,
                                     Message(hid, 0, 1, 1 * KB, None))

        conv.machine.engine.post_at(0.0, open_and_send)
        conv.run()
        stats = lrts.stats()
        sent = sum(stats.get(k, 0) for k in SENT_KEYS)
        dropped_dead = sum(pe.dropped_dead for pe in conv.pes)
        assert sent == 3
        assert sent == (lrts.delivered + dropped_dead
                        + sum(lrts.lost.values())), lrts.lost
        assert lrts.lost == {"persist_handshake": 3}

    def test_a_persistent_send_after_its_peer_crashed_is_lost(self):
        """A send on a channel whose handshake can no longer finish is
        lost at once instead of queueing for good."""
        conv, lrts = make_runtime(
            n_nodes=2, layer="ugni", config=tiny_config(cores_per_node=1),
            faults=FaultConfig(),
            fault_schedule=[NodeCrash(at=1e-6, node_id=1)])
        hid = conv.register_handler(lambda pe, msg: None)
        handle = []
        engine = conv.machine.engine
        engine.post_at(0.0, lambda: handle.append(
            lrts.create_persistent(conv.pes[0], 1, 1 * KB)))
        engine.post_at(2e-6, lambda: lrts.send_persistent(
            conv.pes[0], handle[0], Message(hid, 0, 1, 1 * KB, None)))
        conv.run()
        assert (lrts.stats()["persistent_sent"], lrts.lost) == (
            1, {"persist_handshake": 1})
        assert not handle[0].impl.queued

    def test_an_rc_give_up_does_not_strand_the_wqes_behind_it(self,
                                                              monkeypatch):
        """The first of two inline WQEs on one queue pair fails every
        attempt: it is lost, and the second, already at the receiver, is
        delivered rather than held for the missing sequence number."""
        from repro.lrts.rdma_layer.endpoints import RcQueuePair

        xmit = RcQueuePair._xmit
        current = {}

        def tracked(qp, seq, *args):
            current["seq"] = seq
            return xmit(qp, seq, *args)

        monkeypatch.setattr(RcQueuePair, "_xmit", tracked)
        ledger = _ledger_run("rdma", None, [],
                             lambda src, dst: current.get("seq") == 0,
                             sends=2, fields={"topology": "dragonfly"})
        assert ledger == (2, 1, 0, {"rc_giveup": 1})


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
