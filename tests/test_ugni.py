"""Tests for the simulated uGNI layer: registration, SMSG, MSGQ, RDMA.

Each test that runs a fabric owns its one consumer: it sets ``on_rx`` /
``on_complete`` and calls ``consume`` itself."""

import pytest

from repro.errors import (
    SimulationError,
    TopologyError,
    UgniInvalidParam,
    UgniNoSpace,
    UgniNotRegistered,
)
from repro.hardware import Machine
from repro.hardware.config import tiny as tiny_config
from repro.ugni import (
    PostDescriptor,
    PostType,
)
from repro.ugni.api import GniJob
from repro.ugni.msgq import MSGQ_HEADER
from repro.ugni.smsg import SMSG_HEADER
from repro.units import KB, MB, us


def make_job(n_nodes=4, cores_per_node=2, seed=0):
    m = Machine(n_nodes=n_nodes, config=tiny_config(cores_per_node=cores_per_node), seed=seed)
    return m, GniJob(m)


def consume_into(fabric):
    """Own ``fabric``'s arrivals: consume each one on the spot and append
    ``(msg, receive cpu)`` to the returned list."""
    got = []
    fabric.on_rx = lambda msg: got.append((msg, fabric.consume(msg)))
    return got


def completions_into(job):
    """Own ``job``'s FMA/BTE completions: ``(desc, t, failed)`` each."""
    done = []
    job.rdma.on_complete = lambda desc, t, failed: done.append(
        (desc, t, failed))
    return done


def _smsg_arrival(m, job):
    job.smsg.send(0, 2, tag=0, nbytes=8)


def _msgq_arrival(m, job):
    job.msgq.send(0, 2, tag=0, nbytes=8)


def _rdma_completion(m, job):
    lh, _ = job.MemRegister(m.nodes[0].memory.malloc(4 * KB))
    rh, _ = job.MemRegister(m.nodes[1].memory.malloc(4 * KB))
    job.rdma.post(0, PostDescriptor(PostType.PUT, local_mem=lh,
                                    remote_mem=rh, length=4 * KB), fma=True)


@pytest.mark.parametrize("start, consumer", [
    (_smsg_arrival, "SmsgFabric.on_rx"),
    (_msgq_arrival, "MsgqFabric.on_rx"),
    (_rdma_completion, "RdmaEngine.on_complete"),
], ids=["smsg", "msgq", "rdma"])
def test_an_arrival_nobody_consumes_is_an_error(start, consumer):
    """Every fabric hands each arrival or completion to its one consumer;
    with none set the run stops, naming the attribute to set."""
    m, job = make_job()
    start(m, job)
    with pytest.raises(SimulationError, match=consumer):
        m.engine.run()


class TestMemRegistration:
    def test_register_returns_cost_scaling_with_pages(self):
        m, job = make_job()
        node = m.nodes[0]
        small = node.memory.malloc(4 * KB)
        big = node.memory.malloc(1 * MB)
        _, cost_small = job.MemRegister(small)
        _, cost_big = job.MemRegister(big)
        assert cost_big > cost_small > 0

    @pytest.mark.sanitize_violations
    def test_deregister_invalidates(self):
        m, job = make_job()
        blk = m.nodes[0].memory.malloc(4 * KB)
        h, _ = job.MemRegister(blk)
        job.MemDeregister(h)
        assert not h.valid
        with pytest.raises(UgniInvalidParam):
            job.MemDeregister(h)

    def test_register_freed_block_rejected(self):
        m, job = make_job()
        blk = m.nodes[0].memory.malloc(64)
        m.nodes[0].memory.free(blk)
        with pytest.raises(UgniInvalidParam):
            job.MemRegister(blk)

    def test_tables_are_built_on_first_touch(self):
        m, job = make_job()
        assert len(job.registrations) == 0
        blk = m.nodes[2].memory.malloc(8 * KB)
        h, _ = job.MemRegister(blk)
        assert list(job.registrations) == [2]
        table = job.registrations[2]
        assert table.node_id == 2 and table.registered_bytes == h.length
        assert job.rdma.registrations is job.registrations
        # indexing is a touch; a node the machine does not have is not one
        assert job.registrations[0].registered_bytes == 0
        assert sorted(job.registrations) == [0, 2]
        for bad in (-1, m.n_nodes):
            with pytest.raises(KeyError):
                job.registrations[bad]
        assert sorted(job.registrations) == [0, 2]

    def test_registered_bytes_accounting(self):
        m, job = make_job()
        table = job.registrations[0]
        blk = m.nodes[0].memory.malloc(8 * KB)
        h, _ = job.MemRegister(blk)
        assert table.registered_bytes == h.length
        job.MemDeregister(h)
        assert table.registered_bytes == 0

    def test_malloc_registered_roundtrip(self):
        m, job = make_job()
        blk, h, cost = job.registrations.malloc_registered(1, 16 * KB)
        assert cost > m.config.t_register(16 * KB)  # includes malloc
        assert h.covers(blk.addr, 16 * KB)
        job.registrations.free_registered(blk, h)
        assert m.nodes[1].memory.used == 0

    @pytest.mark.sanitize_violations
    def test_malloc_registered_prices_eq1_and_roots(self):
        """Exactly Eq. 1's ``Tmalloc + Tregister`` one way and
        ``Tderegister + Tfree`` back; ``why`` roots the region, so a leak
        check passes it, and a region made without one is a leak."""
        cfg = tiny_config().replace(sanitize=True)
        m = Machine(n_nodes=2, config=cfg)
        tables = GniJob(m).registrations
        nbytes = 16 * KB + 3
        blk, h, cost = tables.malloc_registered(1, nbytes, "test.window")
        assert cost == cfg.t_malloc(nbytes) + cfg.t_register(blk.size)
        m.sanitizer.leak_check()
        assert m.sanitizer.violations == []
        bare, bare_h, _ = tables.malloc_registered(0, 64)
        m.sanitizer.leak_check()
        assert [v.kind for v in m.sanitizer.violations] == ["registration-leak"]
        assert tables.free_registered(blk, h) == (
            cfg.t_deregister(h.length) + cfg.t_free(blk.size))
        tables.free_registered(bare, bare_h)
        assert m.nodes[0].memory.used == m.nodes[1].memory.used == 0


class TestSmsg:
    def test_delivery_and_payload(self):
        m, job = make_job()
        got = consume_into(job.smsg)
        cpu = job.smsg.send(0, 2, tag=7, nbytes=88, payload={"hello": 1})
        assert cpu > 0
        m.engine.run()
        ((msg, rcpu),) = got
        assert msg.dst_pe == 2
        assert msg.tag == 7 and msg.payload == {"hello": 1}
        assert msg.src_pe == 0
        assert rcpu > 0

    def test_small_message_latency_calibration(self):
        """8B SMSG inter-node ≈ 1.2us (paper's pure-uGNI number)."""
        m, job = make_job()
        job.smsg.send(0, 2, tag=0, nbytes=8)
        times = []

        def on_rx(msg):
            job.smsg.consume(msg)
            times.append(m.engine.now)

        job.smsg.on_rx = on_rx
        m.engine.run()
        assert len(times) == 1
        assert 0.8 * us < times[0] < 1.8 * us

    def test_one_on_rx_serves_every_pe(self):
        m, job = make_job()
        seen = []

        def on_rx(msg):
            job.smsg.consume(msg)
            seen.append((msg.dst_pe, msg.tag))

        job.smsg.on_rx = on_rx
        job.smsg.send(0, 2, tag=5, nbytes=8)
        job.smsg.send(0, 3, tag=6, nbytes=8)
        job.smsg.send(1, 2, tag=7, nbytes=8)
        m.engine.run()
        # one callable takes every arrival, whichever PE receives it
        assert sorted(seen) == [(2, 5), (2, 7), (3, 6)]
        assert job.smsg.in_flight() == 0

    def test_a_hooked_consumer_releases_credit_at_arrival(self):
        m, job = make_job()
        held = []

        def on_rx(msg):
            before = job.smsg.credits_used()
            cpu = job.smsg.consume(msg)
            held.append((before, job.smsg.credits_used(), cpu))

        job.smsg.on_rx = on_rx
        job.smsg.send(0, 2, tag=0, nbytes=100)
        assert job.smsg.credits_used() == 100 + SMSG_HEADER
        m.engine.run()
        cfg = m.config
        assert held == [(100 + SMSG_HEADER, 0,
                         cfg.smsg_recv_cpu + cfg.t_memcpy(100))]
        assert job.smsg.consumed == 1 and job.smsg.in_flight() == 0

    def test_a_message_holds_credit_until_consumed(self):
        m, job = make_job()
        landed = []
        job.smsg.on_rx = landed.append   # a consumer that consumes later

        def consume_all():
            # landed, not consumed: every message still holds its credit
            assert job.smsg.credits_used() == 4 * (16 + SMSG_HEADER)
            assert job.smsg.consumed == 0 and job.smsg.in_flight() == 4
            for n, msg in enumerate(landed, 1):
                job.smsg.consume(msg)
                assert job.smsg.credits_used() == (4 - n) * (16 + SMSG_HEADER)

        for tag in range(3):
            job.smsg.send(0, 2, tag=tag, nbytes=16)
        job.smsg.send(1, 2, tag=9, nbytes=16)
        # after every arrival, before the drain: a message still held when
        # the heap drains is a sanitizer violation
        m.engine.call_after(1e-3, consume_all)
        m.engine.run()
        got = [(msg.src_pe, msg.tag) for msg in landed]
        # FIFO per connection
        assert [tag for src, tag in got if src == 0] == [0, 1, 2]
        assert sorted(got) == [(0, 0), (0, 1), (0, 2), (1, 9)]
        assert job.smsg.in_flight() == 0

    def test_a_negative_size_is_refused(self):
        m, job = make_job()
        with pytest.raises(UgniInvalidParam):
            job.smsg.send(0, 2, tag=0, nbytes=-1)
        with pytest.raises(UgniInvalidParam):
            job.msgq.send(0, 2, tag=0, nbytes=-1)
        assert job.smsg.credits_used() == 0 and job.smsg.sent == 0
        assert job.msgq.sent == 0 and job.msgq.total_queue_memory == 0
        # zero is a header-only message
        job.smsg.send(0, 2, tag=0, nbytes=0)
        assert job.smsg.credits_used() == SMSG_HEADER

    def test_a_connection_is_an_id_and_a_credit(self, monkeypatch):
        """A pair is a dense id on first touch; the observer's label is
        built on the observed path, per send, and interned."""
        monkeypatch.delenv("REPRO_OBSERVE", raising=False)
        cfg = tiny_config(cores_per_node=2).replace(observe=True)
        m = Machine(n_nodes=4, config=cfg)
        job = GniJob(m)
        labels = []
        m.observer.on_tx = lambda msg, kind, nbytes, label, t: labels.append(
            label)
        for dst in (2, 3, 2):
            job.smsg.send(0, dst, tag=0, nbytes=8)
        assert labels == ["smsg[0->2]", "smsg[0->3]", "smsg[0->2]"]
        assert labels[2] is labels[0]   # one string a pair, however traced
        assert [job.smsg.connection(0, dst) for dst in (2, 3)] == [0, 1]
        assert sorted(job.smsg.pairs()) == [(0, 2, 2 * (8 + SMSG_HEADER)),
                                            (0, 3, 8 + SMSG_HEADER)]
        assert job.smsg.credits_used() == 3 * (8 + SMSG_HEADER)
        assert job.smsg.in_flight() == 3
        # a PE off the machine is refused, not packed into another's key
        with pytest.raises(TopologyError):
            job.smsg.send(0, m.n_pes, tag=0, nbytes=8)
        with pytest.raises(TopologyError):
            job.smsg.send(m.n_pes, 1, tag=0, nbytes=8)
        # ... by ``connection`` itself too, naming the PE and making nothing
        memory = job.smsg.total_mailbox_memory
        for src, dst, bad in ((0, m.n_pes, m.n_pes), (-1, 1, -1),
                              (m.n_pes, -1, m.n_pes)):
            with pytest.raises(TopologyError,
                               match=f"PE {bad} outside machine of "
                                     f"{m.n_pes} PEs"):
                job.smsg.connection(src, dst)
        assert job.smsg.total_mailbox_memory == memory
        assert len(list(job.smsg.pairs())) == 2

    def test_oversize_rejected(self):
        m, job = make_job()
        with pytest.raises(UgniInvalidParam):
            job.smsg.send(0, 2, tag=0, nbytes=job.smsg.max_size + 1)

    def test_send_to_self_rejected(self):
        m, job = make_job()
        with pytest.raises(UgniInvalidParam):
            job.smsg.send(3, 3, tag=0, nbytes=8)

    def test_credit_exhaustion_and_release(self):
        m, job = make_job()
        got = consume_into(job.smsg)
        size = job.smsg.max_size
        sent = 0
        with pytest.raises(UgniNoSpace):
            while True:
                job.smsg.send(0, 2, tag=0, nbytes=size)
                sent += 1
        assert sent > 0
        m.engine.run()
        # every arrival consumed: credits released, sending works again
        assert len(got) == sent and job.smsg.credits_used() == 0
        job.smsg.send(0, 2, tag=0, nbytes=size)

    def test_mailbox_memory_grows_with_connections(self):
        m, job = make_job(n_nodes=4, cores_per_node=2)
        base = job.smsg.total_mailbox_memory
        job.smsg.send(0, 2, tag=0, nbytes=8)
        one = job.smsg.total_mailbox_memory
        job.smsg.send(0, 4, tag=0, nbytes=8)
        job.smsg.send(0, 6, tag=0, nbytes=8)
        three = job.smsg.total_mailbox_memory
        assert base == 0
        assert three == 3 * one

    def test_in_flight_accounting(self):
        m, job = make_job()
        consume_into(job.smsg)
        for i in range(5):
            job.smsg.send(0, 2, tag=i, nbytes=32)
        assert job.smsg.in_flight() == 5
        m.engine.run()
        assert job.smsg.in_flight() == 0

    def test_intranode_uses_loopback(self):
        m, job = make_job(n_nodes=2, cores_per_node=4)
        got = consume_into(job.smsg)
        job.smsg.send(0, 1, tag=0, nbytes=64)  # same node
        m.engine.run()
        assert [msg.dst_pe for msg, _ in got] == [1]

    def test_fifo_per_connection(self):
        m, job = make_job()
        got = consume_into(job.smsg)
        for i in range(10):
            job.smsg.send(0, 2, tag=i, nbytes=16)
        m.engine.run()
        assert [msg.tag for msg, _ in got] == list(range(10))


class TestMsgq:
    def test_delivery_via_node_queue(self):
        m, job = make_job(n_nodes=3, cores_per_node=2)
        got = consume_into(job.msgq)
        job.msgq.send(0, 4, tag=3, nbytes=64, payload="x")
        node_id = m.node_of_pe(4).node_id
        # the message holds its node's queue space until consumed
        assert job.msgq._in_use == {node_id: 64 + MSGQ_HEADER}
        m.engine.run()
        ((msg, cpu),) = got
        assert msg.payload == "x" and msg.dst_pe == 4
        cfg = m.config
        assert cpu == cfg.msgq_recv_cpu + cfg.t_memcpy(64)
        assert job.msgq._in_use == {node_id: 0} and job.msgq.in_flight() == 0

    def test_msgq_slower_than_smsg(self):
        m, job = make_job()
        t_smsg = job.smsg.send(0, 2, tag=0, nbytes=64)
        t_msgq = job.msgq.send(0, 4, tag=0, nbytes=64)
        assert t_msgq > t_smsg

    def test_msgq_memory_scales_with_nodes_not_peers(self):
        m, job = make_job(n_nodes=4, cores_per_node=2)
        for dst in (2, 4, 6):
            job.msgq.send(0, dst, tag=0, nbytes=8)
        # three destination nodes touched -> 3 queue regions
        assert job.msgq.total_queue_memory == 3 * m.config.msgq_node_bytes

    def test_oversize_rejected(self):
        m, job = make_job()
        with pytest.raises(UgniInvalidParam):
            job.msgq.send(0, 2, tag=0, nbytes=job.msgq.max_size + 1)

    def test_queue_overflow(self):
        m, job = make_job()
        with pytest.raises(UgniNoSpace):
            for _ in range(100000):
                job.msgq.send(0, 2, tag=0, nbytes=job.msgq.max_size)
        # a queue that cannot hold one largest message could never drain
        largest = m.config.msgq_max_bytes + MSGQ_HEADER
        for size, ok in ((largest - 1, False), (largest, True)):
            small = Machine(n_nodes=2, config=m.config.replace(
                msgq_node_bytes=size))
            if ok:
                assert GniJob(small).msgq.node_queue_bytes == size
            else:
                with pytest.raises(ValueError, match="msgq_node_bytes"):
                    GniJob(small)


class TestRdma:
    def _registered_pair(self, job, m, size, src=0, dst=1):
        src_blk = m.nodes[src].memory.malloc(size)
        dst_blk = m.nodes[dst].memory.malloc(size)
        src_h, _ = job.MemRegister(src_blk)
        dst_h, _ = job.MemRegister(dst_blk)
        return src_h, dst_h

    def test_get_generates_no_remote_event(self):
        """The uGNI property that forces the paper's ACK_TAG message: a
        GET's one completion is the initiator's ``POST_DONE``."""
        m, job = make_job()
        done = completions_into(job)
        lh, rh = self._registered_pair(job, m, 4 * KB)
        desc = PostDescriptor(PostType.GET, local_mem=lh, remote_mem=rh,
                              length=4 * KB)
        job.rdma.post(0, desc, fma=False)
        m.engine.run()
        assert [(d, failed) for d, _, failed in done] == [(desc, False)]
        assert m.engine.events_executed == 1

    @pytest.mark.sanitize_violations
    def test_unregistered_memory_rejected(self):
        m, job = make_job()
        lh, rh = self._registered_pair(job, m, 4 * KB)
        job.MemDeregister(rh)
        desc = PostDescriptor(PostType.PUT, local_mem=lh, remote_mem=rh, length=4 * KB)
        with pytest.raises(UgniNotRegistered):
            job.rdma.post(0, desc, fma=True)

    def test_out_of_bounds_transaction_rejected(self):
        m, job = make_job()
        lh, rh = self._registered_pair(job, m, 4 * KB)
        desc = PostDescriptor(PostType.PUT, local_mem=lh, remote_mem=rh,
                              length=8 * KB)
        with pytest.raises(UgniNotRegistered):
            job.rdma.post(0, desc, fma=True)

    def test_post_from_wrong_node_rejected(self):
        m, job = make_job()
        lh, rh = self._registered_pair(job, m, 4 * KB)
        desc = PostDescriptor(PostType.PUT, local_mem=lh, remote_mem=rh, length=4 * KB)
        with pytest.raises(UgniInvalidParam):
            job.rdma.post(2, desc, fma=True)

    def test_zero_length_rejected(self):
        m, job = make_job()
        lh, rh = self._registered_pair(job, m, 4 * KB)
        with pytest.raises(UgniInvalidParam):
            PostDescriptor(PostType.PUT, local_mem=lh, remote_mem=rh, length=0)

    def test_bte_completes_after_fma_for_small(self):
        m, job = make_job()
        done = {}
        for name, fma in [("fma", True), ("bte", False)]:
            m2, job2 = make_job()
            completed = completions_into(job2)
            lh, rh = self._registered_pair(job2, m2, 512)
            desc = PostDescriptor(PostType.PUT, local_mem=lh, remote_mem=rh,
                                  length=512)
            job2.rdma.post(0, desc, fma=fma)
            m2.engine.run()
            ((_, done[name], _),) = completed
        assert done["fma"] < done["bte"]

    def test_post_picks_unit_at_crossover(self):
        """``post`` without ``fma`` picks the unit by size (§III.C)."""
        m, job = make_job()
        cfg = m.config
        # below crossover: FMA (CPU cost grows with size)
        lh, rh = self._registered_pair(job, m, 64 * KB)
        small = PostDescriptor(PostType.GET, local_mem=lh, remote_mem=rh, length=1 * KB)
        big = PostDescriptor(PostType.GET, local_mem=lh, remote_mem=rh, length=64 * KB)
        cpu_small = job.rdma.post(0, small)
        cpu_big = job.rdma.post(0, big)
        # FMA for 1K: cpu includes per-byte; BTE for 64K: flat post cost
        assert cpu_small > cfg.fma_issue_cpu
        assert cpu_big == pytest.approx(cfg.bte_post_cpu)

    def test_local_node_post_uses_loopback(self):
        m, job = make_job(n_nodes=2, cores_per_node=4)
        done = completions_into(job)
        src_blk = m.nodes[0].memory.malloc(4 * KB)
        dst_blk = m.nodes[0].memory.malloc(4 * KB)
        lh, _ = job.MemRegister(src_blk)
        rh, _ = job.MemRegister(dst_blk)
        desc = PostDescriptor(PostType.PUT, local_mem=lh, remote_mem=rh,
                              length=4 * KB)
        job.rdma.post(0, desc, fma=True)
        m.engine.run()
        assert [d for d, _, _ in done] == [desc]
