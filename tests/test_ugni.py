"""Tests for the simulated uGNI layer: CQs, registration, SMSG, MSGQ, RDMA."""

import pytest

from repro.errors import (
    TopologyError,
    UgniInvalidParam,
    UgniNoSpace,
    UgniNotRegistered,
)
from repro.hardware import Machine
from repro.hardware.config import tiny as tiny_config
from repro.ugni import (
    CqEventKind,
    PostDescriptor,
    PostType,
)
from repro.ugni.api import GniJob
from repro.ugni.cq import CompletionQueue, CqEntry
from repro.ugni.smsg import SMSG_HEADER
from repro.units import KB, MB, us


def make_job(n_nodes=4, cores_per_node=2, seed=0):
    m = Machine(n_nodes=n_nodes, config=tiny_config(cores_per_node=cores_per_node), seed=seed)
    return m, GniJob(m)


class TestCompletionQueue:
    def test_fifo_order(self):
        m, job = make_job()
        cq = CompletionQueue(m.engine)
        for i in range(3):
            cq.push(CqEntry(CqEventKind.POST_DONE, float(i), tag=i))
        assert [cq.get_event().tag for _ in range(3)] == [0, 1, 2]

    def test_empty_returns_none(self):
        m, job = make_job()
        cq = CompletionQueue(m.engine)
        assert cq.get_event() is None

    def test_overrun_counted_not_dropped(self):
        m, job = make_job()
        cq = CompletionQueue(m.engine, capacity=2)
        for i in range(3):
            cq.push(CqEntry(CqEventKind.POST_DONE, 0.0, tag=i))
        assert cq.overruns == 1
        # the data event is kept AND an explicit ERROR marker is queued
        assert len(cq) == 4
        kinds = [cq.get_event().kind for _ in range(4)]
        assert kinds.count(CqEventKind.ERROR) == 1

    def test_on_event_hook_fires(self):
        m, job = make_job()
        cq = CompletionQueue(m.engine)
        fired = []
        cq.on_event = fired.append
        cq.push(CqEntry(CqEventKind.POST_DONE, 0.0))
        assert fired == [cq]

    def test_invalid_capacity(self):
        m, job = make_job()
        with pytest.raises(UgniInvalidParam):
            CompletionQueue(m.engine, capacity=0)

    def test_at_capacity_fifo_with_markers_behind_their_entry(self):
        m, job = make_job()
        cq = CompletionQueue(m.engine, capacity=3)
        assert cq.peek() is None and len(cq) == 0
        for i in range(5):
            cq.push(CqEntry(CqEventKind.POST_DONE, float(i), tag=i, source=7))
            assert cq.peek().tag == 0
        # entries 3 and 4 found the queue full: each is kept, in order,
        # with its overrun marker queued right behind it
        assert len(cq) == 7 and cq.overruns == cq.error_events == 2
        drained = []
        while cq:
            head = cq.peek()
            assert cq.get_event() is head
            drained.append(head)
        assert [e.tag for e in drained] == [0, 1, 2, 3, "overrun", 4, "overrun"]
        for marker, entry in ((drained[4], drained[3]), (drained[6], drained[5])):
            assert marker.kind is CqEventKind.ERROR
            assert marker.data is entry
            assert (marker.time, marker.source) == (entry.time, 7)
        assert cq.get_event() is None and cq.peek() is None
        assert cq.total_events == 5

    def test_unnamed_cqs_are_numbered_per_engine(self):
        # two fresh engines in one process name their first unnamed CQ
        # alike, whatever was created before (the name is the ``where`` of
        # causal-trace arrive stages)
        names = []
        for _ in range(2):
            m, job = make_job()
            CompletionQueue(m.engine, name="named")
            names.append([CompletionQueue(m.engine).name
                          for _ in range(3)])
        assert names[0] == names[1] == ["cq0", "cq1", "cq2"]


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
        cpu = job.smsg.send(0, 2, tag=7, nbytes=88, payload={"hello": 1})
        assert cpu > 0
        m.engine.run()
        msg, rcpu = job.smsg.get_next(2)
        assert msg is not None
        assert msg.tag == 7 and msg.payload == {"hello": 1}
        assert msg.src_pe == 0
        assert rcpu > 0

    def test_small_message_latency_calibration(self):
        """8B SMSG inter-node ≈ 1.2us (paper's pure-uGNI number)."""
        m, job = make_job()
        job.smsg.send(0, 2, tag=0, nbytes=8)
        times = []
        job.smsg.rx_cq(2).on_event = lambda cq: times.append(m.engine.now)
        m.engine.run()
        assert len(times) == 1
        assert 0.8 * us < times[0] < 1.8 * us

    def test_rx_cq_carries_its_pe_and_the_fabric_hook(self):
        m, job = make_job()
        early = job.smsg.rx_cq(1)
        assert early.pe == 1 and early.on_event is None
        seen = []
        job.smsg.on_rx = lambda cq: seen.append(
            (cq.pe, job.smsg.get_next(cq.pe)[0].tag))
        job.smsg.send(0, 2, tag=5, nbytes=8)
        job.smsg.send(0, 3, tag=6, nbytes=8)
        m.engine.run()
        # one callable hooks every queue made after it was set
        assert sorted(seen) == [(2, 5), (3, 6)]
        assert job.smsg.rx_cq(2).on_event is job.smsg.rx_cq(3).on_event
        assert early.on_event is None

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
        size = job.smsg.max_size
        sent = 0
        with pytest.raises(UgniNoSpace):
            while True:
                job.smsg.send(0, 2, tag=0, nbytes=size)
                sent += 1
        assert sent > 0
        m.engine.run()
        # drain everything: credits release, sending works again
        for _ in range(sent):
            msg, _ = job.smsg.get_next(2)
            assert msg is not None
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
        for i in range(5):
            job.smsg.send(0, 2, tag=i, nbytes=32)
        assert job.smsg.in_flight() == 5
        m.engine.run()
        for _ in range(5):
            job.smsg.get_next(2)
        assert job.smsg.in_flight() == 0

    def test_intranode_uses_loopback(self):
        m, job = make_job(n_nodes=2, cores_per_node=4)
        job.smsg.send(0, 1, tag=0, nbytes=64)  # same node
        m.engine.run()
        msg, _ = job.smsg.get_next(1)
        assert msg is not None

    def test_fifo_per_connection(self):
        m, job = make_job()
        for i in range(10):
            job.smsg.send(0, 2, tag=i, nbytes=16)
        m.engine.run()
        tags = []
        while True:
            msg, _ = job.smsg.get_next(2)
            if msg is None:
                break
            tags.append(msg.tag)
        assert tags == list(range(10))


class TestMsgq:
    def test_delivery_via_node_queue(self):
        m, job = make_job(n_nodes=3, cores_per_node=2)
        job.msgq.send(0, 4, tag=3, nbytes=64, payload="x")
        m.engine.run()
        node_id = m.node_of_pe(4).node_id
        msg, cpu = job.msgq.get_next(node_id)
        assert msg is not None and msg.payload == "x" and msg.dst_pe == 4
        assert cpu > 0

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


class TestRdma:
    def _registered_pair(self, job, m, size, src=0, dst=1, dst_cq=None):
        src_blk = m.nodes[src].memory.malloc(size)
        dst_blk = m.nodes[dst].memory.malloc(size)
        src_h, _ = job.MemRegister(src_blk)
        dst_h, _ = job.MemRegister(dst_blk, cq=dst_cq)
        return src_h, dst_h

    def test_put_generates_local_and_remote_events(self):
        m, job = make_job()
        src_cq, dst_cq = CompletionQueue(m.engine), CompletionQueue(m.engine)
        lh, rh = self._registered_pair(job, m, 4 * KB, dst_cq=dst_cq)
        desc = PostDescriptor(PostType.PUT, local_mem=lh, remote_mem=rh,
                              length=4 * KB, src_cq=src_cq)
        cpu = job.rdma.post(0, desc, fma=True)
        assert cpu > 0
        m.engine.run()
        local = src_cq.get_event()
        remote = dst_cq.get_event()
        assert local.kind is CqEventKind.POST_DONE
        assert remote.kind is CqEventKind.REMOTE_DATA
        # data must land before/with the local completion
        assert remote.time <= local.time

    def test_get_generates_no_remote_event(self):
        """The uGNI property that forces the paper's ACK_TAG message."""
        m, job = make_job()
        src_cq, dst_cq = CompletionQueue(m.engine), CompletionQueue(m.engine)
        lh, rh = self._registered_pair(job, m, 4 * KB, dst_cq=dst_cq)
        desc = PostDescriptor(PostType.GET, local_mem=lh, remote_mem=rh,
                              length=4 * KB, src_cq=src_cq)
        job.rdma.post(0, desc, fma=False)
        m.engine.run()
        assert src_cq.get_event() is not None
        assert dst_cq.get_event() is None

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
            cq = CompletionQueue(m2.engine)
            lh, rh = self._registered_pair(job2, m2, 512)
            desc = PostDescriptor(PostType.PUT, local_mem=lh, remote_mem=rh,
                                  length=512, src_cq=cq)
            job2.rdma.post(0, desc, fma=fma)
            m2.engine.run()
            done[name] = cq.get_event().time
        assert done["fma"] < done["bte"]

    def test_post_best_switches_at_crossover(self):
        m, job = make_job()
        cfg = m.config
        # below crossover: FMA (CPU cost grows with size)
        lh, rh = self._registered_pair(job, m, 64 * KB)
        small = PostDescriptor(PostType.GET, local_mem=lh, remote_mem=rh, length=1 * KB)
        big = PostDescriptor(PostType.GET, local_mem=lh, remote_mem=rh, length=64 * KB)
        cpu_small = job.rdma.post_best(0, small)
        cpu_big = job.rdma.post_best(0, big)
        # FMA for 1K: cpu includes per-byte; BTE for 64K: flat post cost
        assert cpu_small > cfg.fma_issue_cpu
        assert cpu_big == pytest.approx(cfg.bte_post_cpu)

    def test_amo_roundtrip(self):
        m, job = make_job()
        cq = CompletionQueue(m.engine)
        lh, rh = self._registered_pair(job, m, 64)
        desc = PostDescriptor(PostType.AMO, local_mem=lh, remote_mem=rh,
                              length=8, src_cq=cq)
        job.rdma.post(0, desc, fma=True)
        m.engine.run()
        ev = cq.get_event()
        assert ev is not None and ev.kind is CqEventKind.POST_DONE

    def test_local_node_post_uses_loopback(self):
        m, job = make_job(n_nodes=2, cores_per_node=4)
        cq = CompletionQueue(m.engine)
        src_blk = m.nodes[0].memory.malloc(4 * KB)
        dst_blk = m.nodes[0].memory.malloc(4 * KB)
        lh, _ = job.MemRegister(src_blk)
        rh, _ = job.MemRegister(dst_blk)
        desc = PostDescriptor(PostType.PUT, local_mem=lh, remote_mem=rh,
                              length=4 * KB, src_cq=cq)
        job.rdma.post(0, desc, fma=True)
        m.engine.run()
        assert cq.get_event() is not None
