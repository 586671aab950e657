"""Tests for the memory pool, registration cache, and pxshm fabric."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.charm import Chare, Charm
from repro.errors import LrtsError, MemoryError_, UgniInvalidParam
from repro.hardware import Machine
from repro.hardware.config import tiny as tiny_config
from repro.lrts.factory import make_runtime
from repro.lrts.messages import LRTS_ENVELOPE
from repro.memory import MemoryPool, PxshmFabric, RegistrationCache
from repro.ugni.api import GniJob
from repro.units import KB, MB


def make_job(n_nodes=2, cores_per_node=4):
    m = Machine(n_nodes=n_nodes, config=tiny_config(cores_per_node=cores_per_node))
    return m, GniJob(m)


class TestMemoryPool:
    def test_alloc_is_registered(self):
        m, job = make_job()
        pool = MemoryPool(job, node_id=0, initial_bytes=1 * MB)
        blk, cost = pool.alloc(16 * KB)
        assert blk.mem_handle.valid
        assert blk.mem_handle.covers(blk.addr, 16 * KB)
        assert cost == pytest.approx(m.config.mempool_alloc_cpu)

    def test_pool_alloc_much_cheaper_than_malloc_register(self):
        """The point of §IV.B: pool vs malloc+register cost."""
        m, job = make_job()
        pool = MemoryPool(job, node_id=0, initial_bytes=4 * MB)
        _, pool_cost = pool.alloc(64 * KB)
        unpooled = m.config.t_malloc(64 * KB) + m.config.t_register(64 * KB)
        assert pool_cost < unpooled / 10

    def test_free_reuses_space(self):
        m, job = make_job()
        pool = MemoryPool(job, node_id=0, initial_bytes=64 * KB, expand_bytes=64 * KB)
        blocks = []
        # fill most of the arena, free, refill repeatedly: no expansion
        for _ in range(20):
            blk, _ = pool.alloc(48 * KB)
            pool.free(blk)
        assert pool.expansions == 0
        pool.check_invariants()

    def test_overflow_expands_dynamically(self):
        m, job = make_job()
        pool = MemoryPool(job, node_id=0, initial_bytes=64 * KB, expand_bytes=64 * KB)
        a, _ = pool.alloc(48 * KB)
        b, cost = pool.alloc(48 * KB)  # overflow -> new arena
        assert pool.expansions == 1
        assert cost > m.config.t_register(64 * KB)  # expansion charged here
        assert b.mem_handle is not a.mem_handle
        pool.check_invariants()

    def test_an_expansion_holds_two_of_the_blocks_it_was_made_for(self):
        """A 64 KB rendezvous payload plus its envelope is not a multiple
        of 16 B: the arena is sized by the aligned block, so the second
        such block shares the first one's expansion."""
        m, job = make_job()
        pool = MemoryPool(job, node_id=0, initial_bytes=4 * KB,
                          expand_bytes=4 * KB)
        nbytes = 64 * KB + LRTS_ENVELOPE
        a, _ = pool.alloc(nbytes)
        b, cost = pool.alloc(nbytes)
        assert pool.expansions == 1
        assert b.mem_handle is a.mem_handle
        assert cost == m.config.mempool_alloc_cpu
        pool.check_invariants()

    def test_expansion_sized_to_large_request(self):
        m, job = make_job()
        pool = MemoryPool(job, node_id=0, initial_bytes=64 * KB, expand_bytes=64 * KB)
        big, _ = pool.alloc(1 * MB)  # bigger than expand_bytes
        assert big.size >= 1 * MB

    @pytest.mark.sanitize_violations
    def test_double_free_rejected(self):
        m, job = make_job()
        pool = MemoryPool(job, node_id=0, initial_bytes=1 * MB)
        blk, _ = pool.alloc(1 * KB)
        pool.free(blk)
        with pytest.raises(MemoryError_):
            pool.free(blk)

    def test_destroy_returns_node_memory(self):
        m, job = make_job()
        before = m.nodes[0].memory.used
        pool = MemoryPool(job, node_id=0, initial_bytes=1 * MB)
        assert m.nodes[0].memory.used > before
        blk, _ = pool.alloc(4 * KB)
        with pytest.raises(MemoryError_):
            pool.destroy()  # live block
        pool.free(blk)
        pool.destroy()
        assert m.nodes[0].memory.used == before
        assert job.registrations[0].registered_bytes == 0

    def test_setup_cost_reflects_registration(self):
        m, job = make_job()
        pool = MemoryPool(job, node_id=0, initial_bytes=8 * MB)
        assert pool.setup_cost >= m.config.t_register(8 * MB)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(1, 64 * 1024)),
            st.tuples(st.just("free"), st.integers(0, 10**6)),
        ),
        max_size=80,
    ))
    def test_property_pool_invariants(self, ops):
        """Random alloc/free interleavings keep pool accounting exact and
        all blocks inside valid registered arenas."""
        m, job = make_job()
        pool = MemoryPool(job, node_id=0, initial_bytes=256 * KB,
                          expand_bytes=128 * KB)
        live = []
        for op, arg in ops:
            if op == "alloc":
                blk, _ = pool.alloc(arg)
                assert blk.mem_handle.covers(blk.addr, blk.size)
                live.append(blk)
            elif live:
                pool.free(live.pop(arg % len(live)))
        # no two live blocks overlap
        spans = sorted((b.addr, b.end) for b in live)
        for (a0, e0), (a1, _) in zip(spans, spans[1:]):
            assert e0 <= a1
        pool.check_invariants()
        for b in live:
            pool.free(b)
        assert pool.live_bytes == 0
        pool.destroy()
        assert m.nodes[0].memory.used == 0


class TestRegistrationCache:
    def test_hit_is_cheap_miss_is_expensive(self):
        m, job = make_job()
        cache = RegistrationCache(job, node_id=0, capacity=8)
        blk = m.nodes[0].memory.malloc(64 * KB)
        h1, miss_cost = cache.lookup(blk)
        cache.unpin(h1)
        h2, hit_cost = cache.lookup(blk)
        cache.unpin(h2)
        assert h1 is h2
        assert miss_cost > m.config.t_register(64 * KB)
        assert hit_cost == pytest.approx(m.config.udreg_lookup_cpu)
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_deregisters(self):
        m, job = make_job()
        cache = RegistrationCache(job, node_id=0, capacity=2)
        blocks = [m.nodes[0].memory.malloc(4 * KB) for _ in range(3)]
        handles = []
        for b in blocks:
            h, _ = cache.lookup(b)
            cache.unpin(h)
            handles.append(h)
        assert cache.evictions == 1
        assert not handles[0].valid  # oldest got deregistered
        assert handles[1].valid and handles[2].valid

    def test_pinned_entries_survive_eviction(self):
        m, job = make_job()
        cache = RegistrationCache(job, node_id=0, capacity=1)
        a = m.nodes[0].memory.malloc(4 * KB)
        b = m.nodes[0].memory.malloc(4 * KB)
        ha, _ = cache.lookup(a)  # stays pinned
        hb, _ = cache.lookup(b)
        assert ha.valid  # pinned -> not evicted even though capacity=1
        assert hb.valid
        cache.unpin(ha)
        cache.unpin(hb)

    def test_invalidate_on_free(self):
        m, job = make_job()
        cache = RegistrationCache(job, node_id=0)
        blk = m.nodes[0].memory.malloc(4 * KB)
        h, _ = cache.lookup(blk, pin=False)
        cache.invalidate(blk)
        assert not h.valid
        assert len(cache) == 0

    @pytest.mark.sanitize_violations
    def test_invalidate_pinned_rejected(self):
        m, job = make_job()
        cache = RegistrationCache(job, node_id=0)
        blk = m.nodes[0].memory.malloc(4 * KB)
        cache.lookup(blk)
        with pytest.raises(UgniInvalidParam):
            cache.invalidate(blk)

    def test_lookup_freed_block_rejected(self):
        m, job = make_job()
        cache = RegistrationCache(job, node_id=0)
        blk = m.nodes[0].memory.malloc(4 * KB)
        m.nodes[0].memory.free(blk)
        with pytest.raises(UgniInvalidParam):
            cache.lookup(blk)

    def test_unpin_without_pin_rejected(self):
        m, job = make_job()
        cache = RegistrationCache(job, node_id=0)
        blk = m.nodes[0].memory.malloc(4 * KB)
        h, _ = cache.lookup(blk)
        cache.unpin(h)
        with pytest.raises(UgniInvalidParam):
            cache.unpin(h)

    def test_hit_rate(self):
        m, job = make_job()
        cache = RegistrationCache(job, node_id=0)
        blk = m.nodes[0].memory.malloc(4 * KB)
        for _ in range(4):
            h, _ = cache.lookup(blk)
            cache.unpin(h)
        assert cache.hit_rate == pytest.approx(0.75)


class TestPxshm:
    def _deliveries(self):
        out = []

        def deliver(msg, t, recv_cpu):
            out.append((msg, t, recv_cpu))

        return out, deliver

    def test_delivery_same_node(self):
        m, _ = make_job()
        fab = PxshmFabric(m)
        out, deliver = self._deliveries()
        cpu = fab.send(0, 1, 4 * KB, "payload", deliver)
        assert cpu > m.config.t_memcpy(4 * KB)  # sender copy included
        m.engine.run()
        assert len(out) == 1
        msg, t, recv_cpu = out[0]
        assert msg.payload == "payload" and t > 0

    def test_cross_node_rejected(self):
        m, _ = make_job(n_nodes=2, cores_per_node=4)
        fab = PxshmFabric(m)
        with pytest.raises(LrtsError):
            fab.send(0, 4, 64, None, lambda *a: None)

    def test_self_send_rejected(self):
        m, _ = make_job()
        fab = PxshmFabric(m)
        with pytest.raises(LrtsError):
            fab.send(2, 2, 64, None, lambda *a: None)

    def test_single_copy_receiver_cheaper(self):
        m, _ = make_job()
        single = PxshmFabric(m, single_copy=True)
        double = PxshmFabric(m, single_copy=False)
        outs, delivers = self._deliveries()
        outd, deliverd = self._deliveries()
        single.send(0, 1, 64 * KB, None, delivers)
        double.send(2, 3, 64 * KB, None, deliverd)
        m.engine.run()
        assert outs[0][2] < outd[0][2]  # receiver cpu
        # sender cost identical (copy-in both cases)

    def test_region_backpressure(self):
        m, _ = make_job()
        cfg = m.config
        fab = PxshmFabric(m)
        out, deliver = self._deliveries()
        big = cfg.pxshm_region_bytes // 2 + 1
        fab.send(0, 1, big, "a", deliver)
        fab.send(0, 1, big, "b", deliver)  # won't fit until 'a' releases
        assert fab.pending() == 1
        m.engine.run()
        assert [o[0].payload for o in out] == ["a", "b"]
        assert fab.pending() == 0

    def test_message_no_empty_region_can_hold_is_rejected(self):
        # it used to sit in the backlog forever: only a release drains it
        m, _ = make_job()
        fab = PxshmFabric(m)
        out, deliver = self._deliveries()
        region = m.config.pxshm_region_bytes
        with pytest.raises(LrtsError, match="exceeds"):
            fab.send(0, 1, region + 1, None, deliver)
        assert fab.pending() == 0
        fab.send(0, 1, region, "fits", deliver)  # exactly the region
        m.engine.run()
        assert [o[0].payload for o in out] == ["fits"]

    def test_region_memory_accounting(self):
        m, _ = make_job()
        fab = PxshmFabric(m)
        out, deliver = self._deliveries()
        fab.send(0, 1, 64, None, deliver)
        fab.send(0, 2, 64, None, deliver)
        fab.send(1, 0, 64, None, deliver)
        assert fab.region_memory == 3 * m.config.pxshm_region_bytes

    def test_many_messages_all_delivered_in_order(self):
        m, _ = make_job()
        fab = PxshmFabric(m)
        out, deliver = self._deliveries()
        for i in range(200):
            fab.send(0, 1, 32 * KB, i, deliver)
        m.engine.run()
        assert [o[0].payload for o in out] == list(range(200))


class _Sink(Chare):
    def __init__(self):
        self.got = 0

    def take(self):
        self.got += 1


class TestIntranodeOversize:
    """An intranode message larger than the pxshm region (envelope
    included) takes the layer's NIC path; it used to be parked in the
    region's backlog and never sent."""

    @pytest.mark.parametrize("size", [1 * MB, 4 * MB])
    @pytest.mark.parametrize("layer", ["ugni", "rdma", "mpi"])
    def test_delivered_once(self, layer, size):
        conv, lrts = make_runtime(n_nodes=1, layer=layer)
        charm = Charm(conv)
        arr = charm.create_array(_Sink, 2, map="round_robin")
        charm.start(lambda pe: arr[1].take(_size=size))
        charm.run()
        assert charm.collections[arr.aid].local[1][1].got == 1
        stats = lrts.stats()
        assert stats["delivered"] == 1
        if layer != "mpi":
            assert stats["intranode_sent"] == 0
            assert stats["rendezvous_sent"] == 1
            assert lrts.pxshm.pending() == 0

    @pytest.mark.parametrize("layer", ["ugni", "rdma"])
    def test_largest_message_that_fits_still_uses_pxshm(self, layer):
        conv, lrts = make_runtime(n_nodes=1, layer=layer)
        charm = Charm(conv)
        arr = charm.create_array(_Sink, 2, map="round_robin")
        fits = conv.config.pxshm_region_bytes - LRTS_ENVELOPE
        charm.start(lambda pe: arr[1].take(_size=fits))
        charm.run()
        assert charm.collections[arr.aid].local[1][1].got == 1
        assert lrts.stats()["intranode_sent"] == 1

    @pytest.mark.sanitize_violations
    @pytest.mark.parametrize("layer", ["ugni", "rdma"])
    def test_backlog_left_at_drain_is_reported(self, layer):
        cfg = tiny_config().replace(sanitize=True)
        conv, lrts = make_runtime(n_nodes=1, layer=layer, config=cfg)
        # a region whose space never comes back: nothing drains the backlog
        lrts.pxshm._channel(0, 1).used = cfg.pxshm_region_bytes
        lrts.pxshm.send(0, 1, 64, None, lambda *a: None)
        conv.run()
        assert [(v.kind, v.where) for v in conv.machine.sanitizer.violations
                ] == [("stuck-message", "pxshm[0->1]")]
