"""Edge-case tests for the uGNI machine layer internals."""

import pytest

from repro.apps.kneighbor import kneighbor
from repro.converse.scheduler import Message
from repro.hardware.config import MachineConfig
from repro.hardware.config import tiny as tiny_config
from repro.lrts.factory import make_runtime
from repro.lrts.ugni_layer import UgniLayerConfig, UgniMachineLayer
from repro.lrts.ugni_layer.config import initial_design
from repro.units import KB, MB
from tests._layers import registered_bytes


def runtime(layer="ugni", **layer_kw):
    cfg_kw = layer_kw.pop("machine", {})
    cfg = tiny_config(cores_per_node=1)
    if cfg_kw:
        cfg = cfg.replace(**cfg_kw)
    return make_runtime(n_pes=4, layer=layer, config=cfg,
                        layer_config=UgniLayerConfig(**layer_kw)
                        if layer_kw else None)


class TestLayerConfig:
    def test_invalid_options_rejected(self):
        with pytest.raises(ValueError):
            UgniLayerConfig(rendezvous="push")
        with pytest.raises(ValueError):
            UgniLayerConfig(intranode="magic")
        with pytest.raises(ValueError):
            UgniLayerConfig(small_path="carrier_pigeon")

    def test_initial_design_flags(self):
        cfg = initial_design()
        assert not cfg.use_mempool
        assert cfg.intranode == "ugni"

    def test_replace(self):
        cfg = UgniLayerConfig().replace(rendezvous="put")
        assert cfg.rendezvous == "put"


class TestCreditExhaustion:
    def test_flood_queues_and_flushes_in_order(self):
        """A burst beyond mailbox credits must queue and still deliver
        everything FIFO."""
        conv, layer = runtime()
        got = []
        h_sink = conv.register_handler(lambda pe, msg: got.append(msg.payload))

        def flood(pe, msg):
            # far more credit than one mailbox holds
            for i in range(2000):
                conv.send(pe, 1, Message(h_sink, 0, 1, 512, payload=i))

        h_flood = conv.register_handler(flood)
        conv.send_from_outside(0, Message(h_flood, 0, 0, 0))
        conv.run(max_events=10**6)
        assert got == list(range(2000))
        assert not layer._pending  # all pending queues drained

    def test_stats_counters(self):
        conv, layer = runtime()
        h_sink = conv.register_handler(lambda pe, msg: None)

        def send3(pe, msg):
            conv.send(pe, 1, Message(h_sink, 0, 1, 88))        # smsg
            conv.send(pe, 2, Message(h_sink, 0, 2, 64 * KB))   # rendezvous
            conv.send(pe, 0, Message(h_sink, 0, 0, 8))         # local

        h = conv.register_handler(send3)
        conv.send_from_outside(0, Message(h, 0, 0, 0))
        conv.run(max_events=10**5)
        s = layer.stats()
        assert s["small_sent"] == 1
        assert s["rendezvous_sent"] == 1
        assert s["delivered"] == 2  # local bypasses the layer


class TestRxHook:
    def test_every_arrival_feeds_its_pe_through_one_bound_method(self):
        conv, layer = runtime()
        got = []
        h_sink = conv.register_handler(
            lambda pe, msg: got.append((pe.rank, msg.payload)))

        def spray(pe, msg):
            for dst in (1, 2, 3):
                conv.send(pe, dst, Message(h_sink, 0, dst, 88, payload=dst))

        conv.send_from_outside(0, Message(conv.register_handler(spray), 0, 0, 0))
        conv.run(max_events=10**5)
        assert sorted(got) == [(1, 1), (2, 2), (3, 3)]
        gni = layer.gni
        assert gni.smsg.on_rx == layer._on_smsg_rx
        assert gni.msgq.on_rx == layer._on_msgq_rx
        assert gni.rdma.on_complete == layer._on_post_complete
        # consumed on arrival: no credit held
        assert gni.smsg.credits_used() == 0
        assert gni.smsg.consumed == gni.smsg.sent > 0


class TestPoolBehaviour:
    def test_pool_expansion_under_large_traffic(self):
        conv, layer = runtime(machine=dict(
            mempool_initial_bytes=256 * 1024,
            mempool_expand_bytes=256 * 1024))
        h_sink = conv.register_handler(lambda pe, msg: None)

        def burst(pe, msg):
            for _ in range(8):
                conv.send(pe, 1, Message(h_sink, 0, 1, 200 * KB))

        h = conv.register_handler(burst)
        conv.send_from_outside(0, Message(h, 0, 0, 0))
        conv.run(max_events=10**6)
        s = layer.stats()
        assert s["pool_expansions"] > 0
        # all pool memory reclaimed after delivery
        for pool in layer._pools.values():
            assert pool.live_bytes == 0

    def test_no_pool_registrations_balance(self):
        conv, layer = runtime(use_mempool=False)
        h_sink = conv.register_handler(lambda pe, msg: None)

        def burst(pe, msg):
            for _ in range(5):
                conv.send(pe, 1, Message(h_sink, 0, 1, 32 * KB))

        h = conv.register_handler(burst)
        conv.send_from_outside(0, Message(h, 0, 0, 0))
        conv.run(max_events=10**6)
        for table in layer.gni.registrations.values():
            assert table.registered_bytes == 0
            assert table.total_registrations == table.total_deregistrations


class TestMsgqPath:
    def test_small_path_msgq_delivers(self):
        conv, layer = runtime(small_path="msgq")
        got = []
        h_sink = conv.register_handler(lambda pe, msg: got.append(msg.payload))

        def send(pe, msg):
            conv.send(pe, 2, Message(h_sink, 0, 2, 20, payload="via-msgq"))

        h = conv.register_handler(send)
        conv.send_from_outside(0, Message(h, 0, 0, 0))
        conv.run(max_events=10**5)
        assert got == ["via-msgq"]
        assert layer.stats()["msgq_memory"] > 0

    def test_a_full_node_queue_makes_the_send_wait(self, monkeypatch):
        """``GNI_RC_NOT_DONE`` from a full MSGQ node queue parks the send
        behind the SMSG credit-stall retry: a 2,000 B queue delivers every
        message the unbounded one does, no sooner, and the sanitizer guard
        finds nothing stranded."""
        flushes = []
        schedule = UgniMachineLayer._schedule_flush
        monkeypatch.setattr(
            UgniMachineLayer, "_schedule_flush",
            lambda self, *a: (flushes.append(a), schedule(self, *a)))

        def run(node_bytes):
            flushes.clear()
            r = kneighbor(32, layer="ugni", n_cores=64, k=8, iters=2,
                          config=MachineConfig(msgq_node_bytes=node_bytes,
                                               cores_per_node=32,
                                               sanitize=True),
                          layer_config=UgniLayerConfig(small_path="msgq"))
            return r, len(flushes)

        (roomy, roomy_waits), (tight, tight_waits) = run(100_000), run(2_000)
        assert roomy_waits == 0 < tight_waits
        assert tight.stats["delivered"] == roomy.stats["delivered"] == 10_303
        assert tight.iteration_time >= roomy.iteration_time

    def test_msgq_overflow_to_rendezvous(self):
        """Messages over the tiny MSGQ limit take the rendezvous path."""
        conv, layer = runtime(small_path="msgq")
        h_sink = conv.register_handler(lambda pe, msg: None)

        def send(pe, msg):
            conv.send(pe, 2, Message(h_sink, 0, 2, 4 * KB))

        h = conv.register_handler(send)
        conv.send_from_outside(0, Message(h, 0, 0, 0))
        conv.run(max_events=10**5)
        assert layer.rendezvous_sent == 1


class TestPersistentEdge:
    #: the channel state machine is shared (repro.lrts.protocols): the
    #: rdma subclass below runs the same cases on the other fabric
    layer = "ugni"

    def test_teardown_releases_buffers(self):
        conv, layer = runtime(self.layer)
        state = {}

        def setup(pe, msg):
            state["h"] = layer.create_persistent(pe, 1, 64 * KB)

        def teardown(pe, msg):
            layer.destroy_persistent(pe, state["h"])

        h1 = conv.register_handler(setup)
        h2 = conv.register_handler(teardown)
        conv.send_from_outside(0, Message(h1, 0, 0, 0))
        conv.run(max_events=10**5)
        conv.send_from_outside(0, Message(h2, 0, 0, 0), at=conv.engine.now)
        conv.run(max_events=10**5)
        assert registered_bytes(layer) == 0

    def test_persistent_wrong_owner_rejected(self):
        from repro.errors import LrtsError

        conv, layer = runtime(self.layer)

        def bad(pe, msg):
            h = layer.create_persistent(pe, 1, 1 * KB)
            h.src_rank = 3  # forged ownership
            with pytest.raises(LrtsError):
                layer.send_persistent(pe, h, Message(0, 0, 1, 100))

        hid = conv.register_handler(bad)
        conv.send_from_outside(0, Message(hid, 0, 0, 0))
        conv.run(max_events=10**5)


class TestPersistentEdgeRdma(TestPersistentEdge):
    layer = "rdma"
