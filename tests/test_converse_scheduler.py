"""Tests for the Converse scheduler: execution model, accounting, run queue."""

import collections
import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.converse.scheduler import ConverseRuntime, Message
from repro.hardware import Machine
from repro.hardware.config import tiny as tiny_config
from repro.lrts.ugni_layer import UgniMachineLayer
from repro.units import us


def make_runtime(n_nodes=2, cores_per_node=2, **layer_kw):
    m = Machine(n_nodes=n_nodes, config=tiny_config(cores_per_node=cores_per_node))
    conv = ConverseRuntime(m)
    from repro.lrts.ugni_layer import UgniLayerConfig

    layer = UgniMachineLayer(m, UgniLayerConfig(**layer_kw) if layer_kw else None)
    conv.attach_lrts(layer)
    return m, conv, layer


class TestExecutionModel:
    def test_handler_runs_and_charges_useful_time(self):
        m, conv, _ = make_runtime()
        ran = []

        def handler(pe, msg):
            pe.charge(5 * us, "useful")
            ran.append((pe.rank, msg.payload, pe.vtime))

        hid = conv.register_handler(handler)
        conv.send_from_outside(0, Message(hid, src_pe=0, dst_pe=0, nbytes=8,
                                          payload="x"))
        conv.run()
        assert len(ran) == 1
        assert ran[0][0] == 0 and ran[0][1] == "x"
        assert conv.pes[0].useful_time == pytest.approx(5 * us)
        assert conv.pes[0].overhead_time > 0  # dispatch overhead

    def test_sequential_execution_per_pe(self):
        """Two messages on one PE never overlap in virtual time."""
        m, conv, _ = make_runtime()
        spans = []

        def handler(pe, msg):
            start = pe.vtime
            pe.charge(10 * us, "useful")
            spans.append((start, pe.vtime))

        hid = conv.register_handler(handler)
        for _ in range(3):
            conv.send_from_outside(0, Message(hid, 0, 0, 8))
        conv.run()
        assert len(spans) == 3
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            assert s1 >= e0

    def test_idle_time_accounting(self):
        m, conv, _ = make_runtime()

        def handler(pe, msg):
            pe.charge(2 * us)

        hid = conv.register_handler(handler)
        conv.send_from_outside(0, Message(hid, 0, 0, 8), at=10 * us)
        conv.run()
        pe = conv.pes[0]
        assert pe.idle_time == pytest.approx(10 * us)
        u = pe.utilization()
        assert 0 < u["useful"] < 1

    def test_local_send_bypasses_network(self):
        m, conv, layer = make_runtime()
        got = []

        def replier(pe, msg):
            got.append(msg.payload)

        hid = conv.register_handler(replier)

        def starter(pe, msg):
            conv.send(pe, pe.rank, Message(hid, pe.rank, pe.rank, 8, payload="loop"))

        hs = conv.register_handler(starter)
        conv.send_from_outside(1, Message(hs, 1, 1, 8))
        conv.run()
        assert got == ["loop"]
        assert layer.small_sent == 0  # never touched the machine layer

    def test_vtime_monotone_within_handler(self):
        m, conv, _ = make_runtime()
        seen = []

        def handler(pe, msg):
            t0 = pe.vtime
            pe.charge(1 * us)
            t1 = pe.vtime
            pe.charge(0.0)
            seen.append(t1 - t0)

        hid = conv.register_handler(handler)
        conv.send_from_outside(0, Message(hid, 0, 0, 8))
        conv.run()
        assert seen == [pytest.approx(1 * us)]

    def test_negative_charge_rejected(self):
        m, conv, _ = make_runtime()

        def handler(pe, msg):
            pe.charge(-1.0)

        hid = conv.register_handler(handler)
        conv.send_from_outside(0, Message(hid, 0, 0, 8))
        with pytest.raises(Exception):
            conv.run()

    def test_handler_registration_idempotent(self):
        m, conv, _ = make_runtime()

        def handler(pe, msg):
            pass

        assert conv.register_handler(handler) == conv.register_handler(handler)

    def test_unknown_handler_id(self):
        from repro.errors import CharmError

        m, conv, _ = make_runtime()
        conv.send_from_outside(0, Message(999, 0, 0, 8))
        with pytest.raises(CharmError):
            conv.run()


class _Token:
    """A payload a ``weakref`` can watch (a slotted ``Message`` cannot)."""


class TestRunQueue:
    """The run queue is a list read from a head index; its contract is a
    ``collections.deque``."""

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("enqueue"), st.integers(1, 90)),
        st.tuples(st.just("run"), st.integers(1, 120)),
        st.tuples(st.just("halt"), st.none())), max_size=40))
    def test_against_a_deque(self, ops):
        """Each message is enqueued as an application message that crossed
        a machine layer (``app=msg``), so the PE's ledger counts it: taken
        is ``delivered``, refused or flushed by the halt ``dropped_dead``."""
        m, conv, _ = make_runtime()
        pe, engine = conv.pes[0], m.engine
        ran = []
        hid = conv.register_handler(
            lambda pe, msg: ran.append(msg.payload.serial))
        fifo, want = collections.deque(), []
        watched = {}          # queued payload -> weakref to its token
        dropped = serial = 0
        for op, n in ops:
            if op == "enqueue":
                for _ in range(n):
                    token = _Token()
                    token.serial = serial
                    msg = Message(hid, 0, 0, 8, payload=token)
                    pe.enqueue(msg, app=msg)
                    del msg
                    if pe.halted:
                        dropped += 1
                    else:
                        fifo.append(serial)
                        watched[serial] = weakref.ref(token)
                    serial += 1
                    del token
            elif op == "run":
                for _ in range(n):
                    if fifo:
                        want.append(fifo.popleft())
                    engine.step()
                    self._held(pe, fifo, watched)
            else:
                dropped += len(fifo)
                fifo.clear()
                pe.halt()
            self._held(pe, fifo, watched)
            assert ran == want
            assert (pe.delivered, pe.dropped_dead) == (serial - dropped,
                                                       dropped)
            ran.clear()
            want.clear()

    @staticmethod
    def _held(pe, fifo, watched):
        assert pe.queue_length == len(fifo)
        # a list that is non-empty exactly while a message waits, never
        # longer than twice the live depth + 32
        assert bool(pe._fifo) == bool(fifo)
        assert len(pe._fifo) <= 2 * len(fifo) + 32
        # what was read is let go of, however deep the backlog behind it
        live = set(fifo)
        for serial in [s for s in watched if s not in live]:
            assert watched.pop(serial)() is None

    def test_a_consumed_message_is_released_under_backlog(self):
        """One PE, 200 messages queued, 10 run: the ten are gone although
        the reader has not caught up (a bare head index keeps them)."""
        m, conv, _ = make_runtime()
        pe = conv.pes[0]
        hid = conv.register_handler(lambda pe, msg: None)
        refs = []
        for _ in range(200):
            token = _Token()
            refs.append(weakref.ref(token))
            pe.enqueue(Message(hid, 0, 0, 8, payload=token))
        del token
        for _ in range(10):
            assert m.engine.step()
        gc.collect()
        assert [r() is None for r in refs] == [True] * 10 + [False] * 190
        assert pe.queue_length == 190 and len(pe._fifo) == 200
        for _ in range(95):
            m.engine.step()
        # the consumed prefix became the larger half (at 100) and was cut
        assert pe.queue_length == 95
        assert (len(pe._fifo), pe._head) == (100, 5)
        conv.run()
        assert pe.queue_length == 0 and pe._fifo == [] and pe._head == 0

    def test_an_idle_pe_keeps_no_queue(self):
        m, conv, _ = make_runtime()
        for pe in conv.pes:
            assert pe._fifo == [] and pe._ctx is None
            assert pe.queue_length == 0
        assert conv.pes[1].ctx == {} and conv.pes[1]._ctx is conv.pes[1].ctx
        assert conv.pes[0]._ctx is None


class TestRemoteSend:
    def _pingpong(self, size, rounds=3, **layer_kw):
        """Round-trip ping-pong; returns steady-state (last-round) times.

        Multiple rounds so one-time costs (pool arena setup) amortize, as
        in the paper's thousand-iteration benchmark loop.
        """
        m, conv, layer = make_runtime(n_nodes=2, cores_per_node=1, **layer_kw)
        times = {"round": 0}

        def ponger(pe, msg):
            conv.send(pe, 0, Message(h_done, pe.rank, 0, size))

        def done(pe, msg):
            times["round"] += 1
            times["done"] = pe.vtime
            if times["round"] < rounds:
                start(pe)

        def start(pe):
            times["start"] = pe.vtime
            conv.send(pe, 1, Message(h_pong, pe.rank, 1, size))

        def starter(pe, msg):
            start(pe)

        h_pong = conv.register_handler(ponger)
        h_done = conv.register_handler(done)
        h_start = conv.register_handler(starter)
        conv.send_from_outside(0, Message(h_start, 0, 0, 0))
        conv.run(max_events=100000)
        assert times["round"] == rounds, "ping-pong did not complete"
        return m, conv, layer, times

    def test_small_message_roundtrip(self):
        m, conv, layer, times = self._pingpong(88)
        assert layer.small_sent == 6
        assert layer.delivered == 6
        # one-way ~1.6-2.5us, round trip under 8us
        assert times["done"] - times["start"] < 8 * us

    def test_large_message_rendezvous_roundtrip(self):
        m, conv, layer, times = self._pingpong(64 * 1024)
        assert layer.rendezvous_sent == 6
        assert layer.delivered == 6

    def test_rendezvous_no_mempool_is_slower(self):
        *_, t_pool = self._pingpong(64 * 1024, use_mempool=True)
        *_, t_nopool = self._pingpong(64 * 1024, use_mempool=False)
        lat_pool = t_pool["done"] - t_pool["start"]
        lat_nopool = t_nopool["done"] - t_nopool["start"]
        assert lat_nopool > 1.4 * lat_pool  # Fig 8b: ~50% reduction

    def test_put_rendezvous_also_works_but_get_is_faster(self):
        *_, t_get = self._pingpong(64 * 1024, rendezvous="get")
        *_, t_put = self._pingpong(64 * 1024, rendezvous="put")
        assert t_put["done"] - t_put["start"] > t_get["done"] - t_get["start"]

    def test_message_conservation_random_traffic(self):
        m, conv, layer = make_runtime(n_nodes=3, cores_per_node=2)
        import numpy as np

        got = []

        def sink(pe, msg):
            got.append(msg.payload)

        def spray(pe, msg):
            rng = np.random.default_rng(42)
            for i in range(60):
                dst = int(rng.integers(0, m.n_pes))
                size = int(rng.choice([8, 88, 512, 4096, 65536]))
                conv.send(pe, dst, Message(h_sink, pe.rank, dst, size, payload=i))

        h_sink = conv.register_handler(sink)
        h_spray = conv.register_handler(spray)
        conv.send_from_outside(0, Message(h_spray, 0, 0, 0))
        conv.run(max_events=500000)
        assert sorted(got) == list(range(60))

    def test_no_memory_leak_after_rendezvous(self):
        m, conv, layer, _ = self._pingpong(256 * 1024, use_mempool=False)
        # all registered rendezvous buffers must be gone
        for table in layer.gni.registrations.values():
            assert table.registered_bytes == 0

    def test_pool_reuse_after_traffic(self):
        m, conv, layer, _ = self._pingpong(64 * 1024, use_mempool=True)
        for pool in layer._pools.values():
            assert pool.live_bytes == 0
            pool.check_invariants()


class TestNegativeSize:
    """Every message enters through ``send`` or ``send_from_outside``;
    both refuse a negative size before a trace ID is minted or time is
    charged (below them ``nbytes + LRTS_ENVELOPE`` is positive, so no
    lower layer would notice)."""

    def _runtime(self):
        m = Machine(n_nodes=2, config=tiny_config(
            cores_per_node=1).replace(observe=True))
        conv = ConverseRuntime(m)
        conv.attach_lrts(UgniMachineLayer(m))
        return m, conv, conv.register_handler(lambda pe, msg: None)

    def test_send(self):
        m, conv, h = self._runtime()
        pe = conv.pes[0]
        with pytest.raises(ValueError, match="-5"):
            conv.send(pe, 1, Message(h, 0, 1, -5))
        assert m.observer.tracer.minted() == 0
        assert pe.vtime == pe.overhead_time == conv.messages_sent == 0
        conv.send(pe, 1, Message(h, 0, 1, 0))  # zero is a message
        assert m.observer.tracer.minted() == 1

    def test_send_from_outside(self):
        m, conv, h = self._runtime()
        with pytest.raises(ValueError, match="-5"):
            conv.send_from_outside(1, Message(h, 0, 1, -5))
        with pytest.raises(ValueError, match="-1"):
            conv.broadcast_from_outside(lambda r: Message(h, r, r, -1))
        conv.run()
        assert conv.pes[1].messages_executed == 0


class TestIntranode:
    def _intra_pingpong(self, size, mode):
        m, conv, layer = make_runtime(n_nodes=1, cores_per_node=2, intranode=mode)
        times = {}

        def ponger(pe, msg):
            conv.send(pe, 0, Message(h_done, pe.rank, 0, size))

        def done(pe, msg):
            times["done"] = pe.vtime

        def starter(pe, msg):
            times["start"] = pe.vtime
            conv.send(pe, 1, Message(h_pong, pe.rank, 1, size))

        h_pong = conv.register_handler(ponger)
        h_done = conv.register_handler(done)
        h_start = conv.register_handler(starter)
        conv.send_from_outside(0, Message(h_start, 0, 0, 0))
        conv.run(max_events=100000)
        return times["done"] - times["start"], layer

    def test_all_modes_deliver(self):
        for mode in ("pxshm_single", "pxshm_double", "ugni"):
            lat, layer = self._intra_pingpong(4096, mode)
            assert lat > 0

    def test_single_copy_beats_double_copy_large(self):
        lat_single, _ = self._intra_pingpong(256 * 1024, "pxshm_single")
        lat_double, _ = self._intra_pingpong(256 * 1024, "pxshm_double")
        assert lat_single < lat_double

    def test_pxshm_counts_as_intranode(self):
        _, layer = self._intra_pingpong(4096, "pxshm_single")
        assert layer.intranode_sent == 2
        assert layer.small_sent == 0


class TestPersistent:
    def test_persistent_send_faster_than_rendezvous(self):
        size = 128 * 1024
        m, conv, layer = make_runtime(n_nodes=2, cores_per_node=1)
        times = {}

        def sink(pe, msg):
            times.setdefault("recv", []).append(pe.vtime)

        h_sink = conv.register_handler(sink)
        state = {}

        def starter(pe, msg):
            h = layer.create_persistent(pe, 1, size + 1024)
            state["handle"] = h

        def sender(pe, msg):
            times["sent"] = pe.vtime
            layer.send_persistent(pe, state["handle"],
                                  Message(h_sink, 0, 1, size))

        h_start = conv.register_handler(starter)
        h_send = conv.register_handler(sender)
        conv.send_from_outside(0, Message(h_start, 0, 0, 0))
        conv.run()
        # channel set up; now measure a steady-state persistent send
        conv.send_from_outside(0, Message(h_send, 0, 0, 0), at=m.engine.now)
        conv.run()
        lat_persist = times["recv"][0] - times["sent"]

        # compare with a plain rendezvous send of the same size
        m2, conv2, layer2 = make_runtime(n_nodes=2, cores_per_node=1)
        t2 = {}

        def sink2(pe, msg):
            t2["recv"] = pe.vtime

        def send2(pe, msg):
            t2["sent"] = pe.vtime
            conv2.send(pe, 1, Message(h_sink2, 0, 1, size))

        h_sink2 = conv2.register_handler(sink2)
        h_send2 = conv2.register_handler(send2)
        conv2.send_from_outside(0, Message(h_send2, 0, 0, 0))
        conv2.run()
        lat_rndv = t2["recv"] - t2["sent"]
        assert lat_persist < lat_rndv

    def test_sends_before_ready_are_queued_and_flushed(self):
        m, conv, layer = make_runtime(n_nodes=2, cores_per_node=1)
        got = []

        def sink(pe, msg):
            got.append(msg.payload)

        h_sink = conv.register_handler(sink)

        def starter(pe, msg):
            h = layer.create_persistent(pe, 1, 64 * 1024)
            # fire immediately, before the handshake completes
            for i in range(3):
                layer.send_persistent(pe, h, Message(h_sink, 0, 1, 32 * 1024,
                                                     payload=i))

        h_start = conv.register_handler(starter)
        conv.send_from_outside(0, Message(h_start, 0, 0, 0))
        conv.run()
        assert got == [0, 1, 2]

    def test_oversize_persistent_send_rejected(self):
        from repro.errors import LrtsError

        m, conv, layer = make_runtime(n_nodes=2, cores_per_node=1)

        def starter(pe, msg):
            h = layer.create_persistent(pe, 1, 1024)
            with pytest.raises(LrtsError):
                layer.send_persistent(pe, h, Message(0, 0, 1, 64 * 1024))

        h_start = conv.register_handler(starter)
        conv.send_from_outside(0, Message(h_start, 0, 0, 0))
        conv.run()
