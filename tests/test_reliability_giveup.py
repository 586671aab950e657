"""Give-up paths of the reliability layer: exhausted retries must
terminate, be reported, and leak nothing.

Regression tests for two silent-loss bugs:

* the guarded post used to abandon a transfer without telling anyone —
  the initiating protocol step waited forever and its rendezvous buffers
  leaked.  Now the protocol's ``*_failed`` step runs in PE context,
  ``post_failures``/``rndv_failed``/``persistent_failed`` are bumped, and
  both sides reclaim their buffers (the ``rndv_fail`` control message).
  The state machine is shared (:mod:`repro.lrts.protocols`), so
  :class:`TestPostGiveUp` runs once per fabric that implements its port.
* ``_rel_seen`` grew a per-pair seen-set forever; it is now a cumulative
  watermark plus a bounded out-of-order window (:class:`_RelRx`).

:class:`TestSharedPostCq` pins what one completion consumer for the whole
job must not change: posts outstanding together keep separate fates,
because the continuation rides on each descriptor.
"""

import pytest

from repro.apps.pingpong import charm_pingpong
from repro.converse.scheduler import Message
from repro.errors import UgniTransactionError
from repro.faults import FaultConfig
from repro.hardware import Machine
from repro.hardware.config import tiny as tiny_config
from repro.lrts.factory import make_runtime
from repro.lrts.messages import ACK_TAG, INIT_TAG
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.lrts.ugni_layer.config import REL_WINDOW_CAP
from repro.lrts.ugni_layer.reliability import _RelRx
from repro.units import KB
from tests._layers import (
    BUDGET,
    CONTROL_GIVEUPS,
    GIVEUPS,
    RETRIES,
    giveup_config,
    live_buffers,
)


def make(layer_config, faults=None, seed=0, layer="ugni"):
    m = Machine(n_nodes=4,
                config=tiny_config(cores_per_node=2).replace(observe=True),
                seed=seed)
    conv, layer = make_runtime(machine=m, n_pes=m.n_pes, layer=layer,
                               layer_config=layer_config, faults=faults)
    return m, conv, layer


def recoveries(m, event):
    return m.observer.snapshot().get(f"counter/recovery/{event}", 0)


class TestSmsgGiveUp:
    def test_total_loss_terminates_and_reports(self):
        """100% drop: every packet exhausts max_retries; the run must
        still reach quiescence (no retry timer lives past the give-up)
        with every abandonment counted and the tx table empty."""
        m, conv, layer = make(giveup_config("ugni"),
                              faults=FaultConfig(smsg_drop_rate=1.0))
        delivered = []
        h = conv.register_handler(lambda pe, msg: delivered.append(msg))
        sender = conv.register_handler(
            lambda pe, msg: conv.send(pe, 2, Message(h, pe.rank, 2, 64)))
        for _ in range(5):
            conv.send_from_outside(0, Message(sender, 0, 0, 0))
        m.engine.run(max_events=1_000_000)  # raises if retries never stop
        s = layer.stats()
        assert s["rel_failed"] == 5
        assert delivered == []
        assert layer.lost == {"rel_failed": 5}  # the ledger: five lost
        assert layer._rel_tx == {}  # every record retired at give-up
        assert recoveries(m, "give_up") == 5
        # mailbox credit reclaimed when each dropped delivery resolved
        assert layer.gni.smsg.credits_used() == 0
        assert m.engine.peek() == float("inf")  # truly quiescent


class TestPostGiveUp:
    layer = "ugni"

    def make(self, **layer_kw):
        return make(giveup_config(self.layer, **layer_kw), layer=self.layer,
                    faults=FaultConfig(rdma_error_rate=1.0))

    @pytest.fixture(params=["get", "put"])
    def mode(self, request):
        """The rendezvous direction of :attr:`UgniLayerConfig.rendezvous`."""
        return request.param

    def test_abandoned_rendezvous_reclaims_both_sides(self, mode):
        """100% RDMA errors: the one-sided post gives up, the failing side
        reclaims its buffer and the ``rndv_fail`` control message lets the
        peer reclaim the one it pinned — nothing leaks, nothing hangs."""
        m, conv, layer = self.make(rendezvous=mode)
        delivered = []
        h = conv.register_handler(lambda pe, msg: delivered.append(msg))
        sender = conv.register_handler(
            lambda pe, msg: conv.send(pe, 2, Message(h, pe.rank, 2, 64 * KB)))
        conv.send_from_outside(0, Message(sender, 0, 0, 0))
        m.engine.run(max_events=1_000_000)
        s = layer.stats()
        assert s[GIVEUPS[self.layer]] == 1
        assert s[RETRIES[self.layer]] == BUDGET
        assert s["rndv_failed"] == 1
        assert delivered == []  # lost and reported, not silently hung
        assert layer.lost == {"rndv_failed": 1}
        assert live_buffers(layer) == 0  # both sides reclaimed
        assert recoveries(m, f"{mode}_failed") == 1
        assert s[CONTROL_GIVEUPS[self.layer]] == 0  # controls unaffected
        assert m.engine.peek() == float("inf")
        if self.layer == "ugni":
            assert s["pool_live_bytes"] == 0
            assert recoveries(m, "post_give_up") == 1

    def test_abandoned_persistent_send_keeps_channel(self):
        """A persistent PUT that exhausts retries is counted as lost; the
        channel's pinned buffers persist by design (no leak of pool
        blocks, no dangling waiter)."""
        m, conv, layer = self.make()
        delivered = []
        h = conv.register_handler(lambda pe, msg: delivered.append(msg))

        def boot(pe, msg):
            handle = layer.create_persistent(pe, 2, 4 * KB)
            layer.send_persistent(pe, handle,
                                  Message(h, pe.rank, 2, 2 * KB))

        hb = conv.register_handler(boot)
        conv.send_from_outside(0, Message(hb, 0, 0, 0))
        m.engine.run(max_events=1_000_000)
        s = layer.stats()
        assert s["persistent_failed"] == 1
        assert s[GIVEUPS[self.layer]] == 1
        assert s[RETRIES[self.layer]] == BUDGET
        assert delivered == [] and layer.lost == {"persistent_failed": 1}
        assert live_buffers(layer) == 0
        assert recoveries(m, "persist_send_failed") == 1
        assert m.engine.peek() == float("inf")
        if self.layer == "ugni":
            assert s["persistent_rearms"] == s["post_retries"]

    def test_late_rndv_fail_after_ack_releases_once(self):
        """Hardening from unifying: the sender's ACK handler used to free
        the send buffer without nulling the slot, so a late ``rndv_fail``
        for the same transfer freed it twice.  Every release now guards
        and nulls."""
        m, conv, layer = make(None, layer=self.layer)
        acked = []
        hid = layer._steps["ack"]
        on_ack = conv._handlers[hid]
        conv._handlers[hid] = lambda pe, msg: (on_ack(pe, msg),
                                               acked.append(msg.payload))
        h = conv.register_handler(lambda pe, msg: None)
        sender = conv.register_handler(
            lambda pe, msg: conv.send(pe, 2, Message(h, pe.rank, 2, 64 * KB)))
        conv.send_from_outside(0, Message(sender, 0, 0, 0))
        conv.run()
        (state,) = acked
        assert state.src is None and live_buffers(layer) == 0
        layer._self_step(conv.pes[0], "rndv_fail", state)
        conv.run()  # a double free raises MemoryError_
        assert live_buffers(layer) == 0


class TestSharedPostCq:
    """Two persistent PUTs outstanding from PE 0 — one to node 1, one to
    node 2 — complete through the rdma engine's one ``on_complete``; only
    posts to node 2 are fault-injected."""

    def run(self, layer_config, node2_fails=lambda attempt: True,
            sanitize=False):
        cfg = tiny_config(cores_per_node=2).replace(observe=True,
                                                    sanitize=sanitize)
        m = Machine(n_nodes=4, config=cfg)
        conv, layer = make_runtime(machine=m, n_pes=m.n_pes, layer="ugni",
                                   layer_config=layer_config,
                                   faults=FaultConfig())
        attempts = []

        def rdma_fails(initiator_node, peer_node):
            if peer_node != 2:
                return False
            attempts.append(peer_node)
            return node2_fails(len(attempts))

        m.faults.rdma_fails = rdma_fails
        delivered, handles, pinned = [], {}, {}
        h = conv.register_handler(lambda pe, msg: delivered.append(msg.dst_pe))

        def boot(pe, msg):
            for dst in (2, 4):  # first PE of node 1, of node 2
                handles[dst] = layer.create_persistent(pe, dst, 4 * KB)
                #: the send window's registration as first pinned
                pinned[dst] = handles[dst].impl.src_win[1]
                layer.send_persistent(pe, handles[dst],
                                      Message(h, pe.rank, dst, 2 * KB))

        conv.send_from_outside(0, Message(conv.register_handler(boot), 0, 0, 0))
        return m, layer, delivered, handles, pinned

    def test_healthy_post_completes_once_failed_one_gives_up_alone(self):
        m, layer, delivered, handles, pinned = self.run(giveup_config("ugni"))
        rdma = layer.gni.rdma
        consume = rdma.on_complete
        assert consume == layer._on_post_complete
        fates = []
        rdma.on_complete = lambda desc, t, failed: (
            fates.append(failed), consume(desc, t, failed))
        m.engine.run(max_events=1_000_000)
        s = layer.stats()
        assert delivered == [2]  # the healthy send arrived, exactly once
        assert handles[2].impl.inflight == handles[4].impl.inflight == 0
        # the failed post kept its own attempt count and its own fate
        assert s["post_retries"] == BUDGET and s["post_failures"] == 1
        assert s["persistent_failed"] == 1
        assert recoveries(m, "persist_send_failed") == 1
        # ... and re-armed only its own send window
        assert s["persistent_rearms"] == BUDGET
        assert handles[2].impl.src_win[1] is pinned[2] and pinned[2].valid
        assert handles[4].impl.src_win[1] is not pinned[4]
        assert not pinned[4].valid
        # all of it through the engine's one on_complete: 1 done +
        # (BUDGET + 1) failed
        assert sorted(fates) == [False] + [True] * (BUDGET + 1)
        assert m.engine.peek() == float("inf")

    def test_retry_count_is_per_descriptor(self):
        """Node 2 fails twice and then heals: its post succeeds on the
        third attempt; the other post's completion on the same CQ neither
        resets nor advances the count."""
        m, layer, delivered, _, _ = self.run(
            giveup_config("ugni"), node2_fails=lambda attempt: attempt <= 2)
        m.engine.run(max_events=1_000_000)
        s = layer.stats()
        assert sorted(delivered) == [2, 4]
        assert s["post_retries"] == s["persistent_rearms"] == 2
        assert s["post_failures"] == s["persistent_failed"] == 0
        assert recoveries(m, "post_retry") == 2
        # the attempt numbers ride the flight records' detail
        assert [rec.detail["attempt"] for rec in m.observer.flight.records
                if rec.event == "post_retry"] == [1, 2]

    def test_error_without_reliability_still_raises(self):
        m, *_ = self.run(UgniLayerConfig())
        with pytest.raises(UgniTransactionError, match="reliability is disabled"):
            m.engine.run(max_events=1_000_000)

    def test_sanitizer_retires_each_post_exactly_once(self):
        """The retire token travels as a completion argument now: one
        ``on_rdma_retire`` per post attempt, whether it ends in done,
        retry or give-up."""
        m, layer, _, _, _ = self.run(giveup_config("ugni"), sanitize=True)
        retired = []
        retire = m.sanitizer.on_rdma_retire
        m.sanitizer.on_rdma_retire = lambda token, t: (
            retired.append(token), retire(token, t))
        m.engine.run(max_events=1_000_000)
        assert len(retired) == len(set(retired)) == BUDGET + 2
        stats = m.sanitizer.stats()
        assert stats["txs_started"] == stats["txs_retired"] == BUDGET + 2


class TestPostGiveUpRdma(TestPostGiveUp):
    layer = "rdma"

    @pytest.fixture(params=["get"])
    def mode(self, request):
        """The rdma layer always pulls (``RdmaLayerConfig.rendezvous``)."""
        return request.param

    def make(self, rendezvous="get"):
        return super().make()

    def test_ack_leaves_before_an_evicting_release(self):
        """The core sends the control message, *then* releases (paper
        Fig. 5).  On this fabric that is observable only when the release
        has to evict from the pin-down cache: the eviction cost must land
        after the ACK was posted, not delay it."""
        cfg = tiny_config(cores_per_node=2).replace(rdma_pin_cache_bytes=1 * KB)
        conv, layer = make_runtime(n_nodes=4, config=cfg, layer="rdma")
        log = []
        control, release = layer._control, layer._release
        layer._control = lambda pe, dst, tag, st: (
            log.append((tag, pe.vtime)), control(pe, dst, tag, st))
        layer._release = lambda pe, buf: (
            release(pe, buf), log.append(("released", pe.vtime)))
        h = conv.register_handler(lambda pe, msg: None)
        sender = conv.register_handler(
            lambda pe, msg: conv.send(pe, 2, Message(h, pe.rank, 2, 64 * KB)))
        conv.send_from_outside(0, Message(sender, 0, 0, 0))
        conv.run()
        assert layer.stats()["pin_evictions"] == 2  # both releases evicted
        (_, t_init), (_, t_ack), (_, t_freed), _ = log
        assert [name for name, _ in log] == [
            INIT_TAG, ACK_TAG, "released", "released"]
        assert t_freed > t_ack  # the eviction was charged after the post

    def test_total_control_loss_reports_every_lost_wqe(self):
        """100% packet loss: every WQE exhausts the RC retry budget and is
        reported as ``rc_giveup`` — to the observer only; this layer never
        wrote to a trace log."""
        m, conv, layer = make(giveup_config("rdma"), layer="rdma",
                              faults=FaultConfig(smsg_drop_rate=1.0))
        delivered = []
        h = conv.register_handler(lambda pe, msg: delivered.append(msg))
        sender = conv.register_handler(
            lambda pe, msg: conv.send(pe, 2, Message(h, pe.rank, 2, 64)))
        for _ in range(5):
            conv.send_from_outside(0, Message(sender, 0, 0, 0))
        m.engine.run(max_events=1_000_000)
        assert delivered == []
        assert layer.stats()["rc_lost"] == 5
        assert recoveries(m, "rc_giveup") == 5
        giveups = [rec for rec in m.observer.flight.records
                   if rec.event == "rc_giveup"]
        assert [rec.where for rec in giveups] == ["qp[0->2]"] * 5
        # each give-up also dumped the ring for the postmortem
        assert sum(d.reason == "recovery:rc_giveup"
                   for d in m.observer.flight.dumps) == 5
        assert m.engine.peek() == float("inf")


class TestDedupWindow:
    def test_watermark_semantics(self):
        rx = _RelRx()
        assert not rx.seen(0)
        rx.mark(0)
        rx.mark(1)
        assert rx.watermark == 1 and rx.window == set()
        rx.mark(5)
        rx.mark(3)
        assert rx.seen(5) and rx.seen(3) and not rx.seen(2)
        assert rx.window == {3, 5}
        rx.mark(2)
        assert rx.watermark == 3 and rx.window == {5}
        rx.mark(4)
        assert rx.watermark == 5 and rx.window == set()
        # everything at or below the watermark counts as seen forever
        assert all(rx.seen(s) for s in range(6))

    def test_force_advance_skips_permanent_gap(self):
        rx = _RelRx()
        for seq in range(1, 10):  # seq 0 abandoned by its sender
            rx.mark(seq)
        assert len(rx.window) == 9
        assert rx.force_advance(4) == 1
        assert rx.watermark == 9 and rx.window == set()
        # a straggler copy of the skipped seq is treated as a duplicate
        assert rx.seen(0)

    def test_window_stays_bounded_under_sustained_loss(self):
        """The receiver's dedup memory must stay O(window), not O(total
        messages) — this is the regression test for the unbounded
        seen-set."""
        lc = UgniLayerConfig(reliability=True, max_retries=30,
                             retry_backoff_base=5e-6, retry_backoff_max=10e-6)
        r = charm_pingpong(64, layer_config=lc,
                           faults=FaultConfig(smsg_drop_rate=0.15), seed=3)
        assert r.stats["rel_duplicates"] > 0  # dedup actually exercised
        assert r.stats["rel_window_peak"] <= REL_WINDOW_CAP
        # with in-order pingpong traffic the window should be tiny
        assert r.stats["rel_window_peak"] <= 4
