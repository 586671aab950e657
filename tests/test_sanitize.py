"""Tests for the lifecycle sanitizer and the bugs it was built to catch.

Each seeded-violation test plants one bug class and asserts the sanitizer
names it; they carry ``@pytest.mark.sanitize_violations`` so the conftest
guard does not fail them.  The regression tests for the four lifecycle
bugfixes (persistent teardown, registration cache, memory pool, quiescence
waves) run clean under the sanitizer — the guard double-checks that.
"""

import pytest

from repro import sanitize
from repro.converse.quiescence import QuiescenceDetector
from repro.converse.scheduler import Message
from repro.errors import (
    LrtsError,
    MemoryError_,
    UgniInvalidParam,
    UgniNotRegistered,
)
from repro.hardware import Machine
from repro.hardware.config import tiny as tiny_config
from repro.lrts.factory import make_runtime
from repro.memory.mempool import MemoryPool
from repro.memory.regcache import RegistrationCache
from repro.ugni.api import GniJob
from repro.ugni.rdma import PostDescriptor
from repro.ugni.types import PostType
from repro.units import KB
from tests._layers import registered_bytes


def san_job(n_nodes=2):
    cfg = tiny_config(cores_per_node=1).replace(sanitize=True)
    m = Machine(n_nodes=n_nodes, config=cfg, seed=0)
    return m, GniJob(m)


def san_runtime(n_nodes=2, layer="ugni"):
    cfg = tiny_config(cores_per_node=1).replace(sanitize=True)
    m = Machine(n_nodes=n_nodes, config=cfg, seed=0)
    conv, lrts = make_runtime(machine=m, layer=layer)
    return m, conv, lrts


def kinds(m):
    return {v.kind for v in m.sanitizer.violations}


class TestEnablement:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        m = Machine(n_nodes=2, config=tiny_config(cores_per_node=1), seed=0)
        assert m.sanitizer is None
        assert m.engine.sanitizer is None

    def test_config_flag_enables(self):
        m, _ = san_job()
        assert m.sanitizer is not None
        assert m.engine.sanitizer is m.sanitizer

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        m = Machine(n_nodes=2, config=tiny_config(cores_per_node=1), seed=0)
        assert m.sanitizer is not None

    def test_env_var_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize.sanitize_requested()


class TestSeededViolations:
    @pytest.mark.sanitize_violations
    def test_deregister_under_inflight_rdma(self):
        m, job = san_job()
        src = m.nodes[0].memory.malloc(64 * KB)
        dst = m.nodes[1].memory.malloc(64 * KB)
        h_src, _ = job.MemRegister(src)
        h_dst, _ = job.MemRegister(dst)
        job.rdma.post(0, PostDescriptor(
            post_type=PostType.PUT, local_mem=h_src, remote_mem=h_dst,
            length=64 * KB), fma=False)
        # the BTE transfer is still in flight when the source window dies
        job.MemDeregister(h_src)
        assert "use-after-free-rdma" in kinds(m)

    @pytest.mark.sanitize_violations
    def test_post_naming_deregistered_handle(self):
        m, job = san_job()
        src = m.nodes[0].memory.malloc(4 * KB)
        dst = m.nodes[1].memory.malloc(4 * KB)
        h_src, _ = job.MemRegister(src)
        h_dst, _ = job.MemRegister(dst)
        job.MemDeregister(h_src)
        with pytest.raises((UgniInvalidParam, UgniNotRegistered)):
            job.rdma.post(0, PostDescriptor(
                post_type=PostType.PUT, local_mem=h_src, remote_mem=h_dst,
                length=4 * KB), fma=False)
        assert "use-after-free-rdma" in kinds(m)

    @pytest.mark.sanitize_violations
    def test_rdma_from_freed_pool_block(self):
        m, job = san_job()
        pool = MemoryPool(job, 0, name="uafpool")
        block, _ = pool.alloc(8 * KB)
        pool.free(block)
        dst = m.nodes[1].memory.malloc(8 * KB)
        h_dst, _ = job.MemRegister(dst)
        # the arena registration is still valid, so uGNI validation passes:
        # only the sanitizer knows this span was returned to the pool
        job.rdma.post(0, PostDescriptor(
            post_type=PostType.PUT, local_mem=block.mem_handle,
            remote_mem=h_dst, length=8 * KB, local_addr=block.addr),
            fma=False)
        assert "use-after-free-rdma" in kinds(m)

    @pytest.mark.sanitize_violations
    def test_double_deregister(self):
        m, job = san_job()
        blk = m.nodes[0].memory.malloc(4 * KB)
        h, _ = job.MemRegister(blk)
        job.MemDeregister(h)
        with pytest.raises(UgniInvalidParam):
            job.MemDeregister(h)
        assert "double-deregister" in kinds(m)

    @pytest.mark.sanitize_violations
    def test_pool_double_free(self):
        """Allocated at t0, freed at t1 > t0, freed again: the report
        names t1, the first free, not the allocation time."""
        m, job = san_job()
        pool = MemoryPool(job, 0, name="dfpool")
        block, _ = pool.alloc(1 * KB)  # t0 = 0
        m.engine.advance_to(3e-6)
        pool.free(block)  # t1
        m.engine.advance_to(7e-6)
        with pytest.raises(MemoryError_):
            pool.free(block)
        (violation,) = m.sanitizer.violations
        assert violation.kind == "double-free"
        assert "first freed at t=0.000003000" in violation.detail

    @pytest.mark.sanitize_violations
    def test_foreign_pool_free(self):
        m, job = san_job()
        pool_a = MemoryPool(job, 0, name="pool_a")
        pool_b = MemoryPool(job, 0, name="pool_b")
        block, _ = pool_a.alloc(1 * KB)
        with pytest.raises(MemoryError_):
            pool_b.free(block)
        assert "foreign-pool-free" in kinds(m)
        # the block survived the bad free and its real owner still takes it
        pool_a.free(block)
        assert pool_a.live_blocks == 0

    @pytest.mark.sanitize_violations
    def test_teardown_reports_leaks(self):
        m, job = san_job()
        blk = m.nodes[0].memory.malloc(4 * KB)
        job.MemRegister(blk)          # never deregistered
        pool = MemoryPool(job, 0, name="leakpool")
        pool.alloc(512)               # never freed
        found = {v.kind for v in m.sanitizer.check_teardown()}
        assert "registration-leak" in found
        assert "pool-leak" in found

    @pytest.mark.sanitize_violations
    def test_credit_leak_at_quiescence(self):
        m, job = san_job()
        job.smsg.on_rx = job.smsg.consume
        job.smsg.send(0, 1, 7, 128)
        m.engine.run()
        assert job.smsg.consumed == 1
        # credit held with nothing outstanding
        job.smsg._credits[job.smsg.connection(0, 1)] += 64
        m.engine.run()                # empty heap -> drain checks fire
        assert "credit-leak" in kinds(m)
        (leak,) = [v for v in m.sanitizer.violations
                   if v.kind == "credit-leak"]
        assert leak.where == "smsg[0->1]"
        assert "holds 64 B" in leak.detail

    @pytest.mark.sanitize_violations
    def test_undelivered_message_at_quiescence(self):
        m, job = san_job()
        taken = []
        # a consumer that takes the message without consuming it: it is
        # now neither consumed nor dropped
        job.smsg.on_rx = taken.append
        job.smsg.send(0, 1, 7, 128)
        m.engine.run()
        assert len(taken) == 1
        (lost,) = [v for v in m.sanitizer.violations
                   if v.kind == "stuck-message"]
        assert lost.where == "smsg[0->1]"
        assert "arrived but was never consumed" in lost.detail

    @pytest.mark.sanitize_violations
    def test_pinned_entry_invalidated_behind_cache(self):
        m, job = san_job()
        cache = RegistrationCache(job, 0, capacity=4)
        blk = m.nodes[0].memory.malloc(4 * KB)
        handle, _ = cache.lookup(blk, pin=True)
        job.MemDeregister(handle)     # behind the cache's back
        with pytest.raises(UgniInvalidParam):
            cache.lookup(blk)
        assert "pinned-eviction" in kinds(m)

    def test_clean_raw_exchange_stays_clean(self):
        m, job = san_job()
        job.smsg.on_rx = job.smsg.consume
        job.smsg.send(0, 1, 7, 256)
        m.engine.run()
        assert job.smsg.consumed == 1
        assert m.sanitizer.violations == []
        stats = m.sanitizer.stats()
        assert stats["msgs_sent"] == stats["msgs_resolved"] == 1


class TestRegcacheFixes:
    """Bugfix: stale invalid-handle entries silently dropped pins and fed
    invalid handles to the eviction loop's MemDeregister."""

    def test_stale_unpinned_entry_purged_and_reregistered(self):
        m, job = san_job()
        cache = RegistrationCache(job, 0, capacity=4)
        blk = m.nodes[0].memory.malloc(4 * KB)
        h1, _ = cache.lookup(blk, pin=False)
        job.MemDeregister(h1)
        h2, _ = cache.lookup(blk, pin=False)
        assert h2.valid and h2 is not h1
        assert cache.stale_purges == 1
        assert m.sanitizer.violations == []

    def test_eviction_skips_invalidated_victim(self):
        m, job = san_job()
        cache = RegistrationCache(job, 0, capacity=1)
        blk_a = m.nodes[0].memory.malloc(4 * KB)
        blk_b = m.nodes[0].memory.malloc(8 * KB)
        h_a, _ = cache.lookup(blk_a, pin=False)
        job.MemDeregister(h_a)
        # the old eviction loop deregistered the invalid victim and blew up
        h_b, _ = cache.lookup(blk_b, pin=False)
        assert h_b.valid
        assert len(cache) == 1
        assert cache.stale_purges == 1
        assert m.sanitizer.violations == []

    @pytest.mark.sanitize_violations
    def test_invalidate_keeps_pinned_entry(self):
        m, job = san_job()
        cache = RegistrationCache(job, 0, capacity=4)
        blk = m.nodes[0].memory.malloc(4 * KB)
        handle, _ = cache.lookup(blk, pin=True)
        with pytest.raises(UgniInvalidParam):
            cache.invalidate(blk)
        # the failed invalidate must not have dropped the pinned entry
        assert len(cache) == 1
        cache.unpin(handle)
        assert cache.invalidate(blk) > 0


class TestMempoolFixes:
    """Bugfix: foreign blocks corrupted the arena free list; empty
    expansion arenas pinned registered memory forever."""

    def test_empty_expansion_arena_released(self):
        m, job = san_job()
        pool = MemoryPool(job, 0, initial_bytes=64 * KB,
                          expand_bytes=64 * KB, name="shrink")
        before = pool.registered_bytes
        block, _ = pool.alloc(100 * KB)      # forces an expansion arena
        assert len(pool.arenas) == 2
        pool.free(block)
        assert len(pool.arenas) == 1
        assert pool.arenas_released == 1
        assert pool.registered_bytes == before
        pool.check_invariants()
        assert m.sanitizer.violations == []

    def test_initial_arena_never_released(self):
        m, job = san_job()
        pool = MemoryPool(job, 0, initial_bytes=64 * KB, name="keep")
        block, _ = pool.alloc(1 * KB)
        pool.free(block)
        assert len(pool.arenas) == 1
        assert pool.arenas_released == 0


class TestPersistentFixes:
    """Bugfix: destroy_persistent freed the pinned send window under an
    in-flight PUT and leaked the receiver buffer when called before the
    handshake answered.  The channel state machine is shared
    (repro.lrts.protocols): the rdma subclass below runs the same cases."""

    layer = "ugni"

    def test_destroy_with_put_in_flight_is_deferred(self):
        m, conv, layer = san_runtime(layer=self.layer)
        got = []
        h_sink = conv.register_handler(lambda pe, msg: got.append(msg.payload))
        state = {}

        def starter(pe, msg):
            state["h"] = layer.create_persistent(pe, 1, 64 * KB)

        def kill(pe, msg):
            h = state["h"]
            layer.send_persistent(
                pe, h, Message(h_sink, 0, 1, 32 * KB, payload="last"))
            layer.destroy_persistent(pe, h)      # PUT still in flight
            assert h.impl.closing
            assert h.impl.src_win is not None    # teardown deferred
            layer.destroy_persistent(pe, h)      # idempotent
            with pytest.raises(LrtsError):
                layer.send_persistent(pe, h, Message(h_sink, 0, 1, 1 * KB))

        h1 = conv.register_handler(starter)
        h2 = conv.register_handler(kill)
        conv.send_from_outside(0, Message(h1, 0, 0, 0))
        conv.run()
        conv.send_from_outside(0, Message(h2, 0, 0, 0), at=m.engine.now)
        conv.run()
        assert got == ["last"]                   # the in-flight send landed
        assert not layer._persistent
        assert registered_bytes(layer) == 0      # both windows released
        assert m.sanitizer.violations == []

    def test_destroy_before_ready_is_deferred(self):
        m, conv, layer = san_runtime(layer=self.layer)
        state = {}

        def starter(pe, msg):
            h = state["h"] = layer.create_persistent(pe, 1, 64 * KB)
            layer.destroy_persistent(pe, h)      # handshake not answered yet
            assert h.impl.closing
            assert h.impl.src_win is not None

        h1 = conv.register_handler(starter)
        conv.send_from_outside(0, Message(h1, 0, 0, 0))
        conv.run()
        # the deferred teardown completed once persist_ready arrived,
        # releasing the receiver-side buffer the old code leaked
        assert not layer._persistent
        assert registered_bytes(layer) == 0
        assert m.sanitizer.violations == []

    def test_destroy_with_queued_sends_still_rejected(self):
        m, conv, layer = san_runtime(layer=self.layer)
        h_sink = conv.register_handler(lambda pe, msg: None)

        def starter(pe, msg):
            h = layer.create_persistent(pe, 1, 64 * KB)
            layer.send_persistent(pe, h, Message(h_sink, 0, 1, 1 * KB))
            with pytest.raises(LrtsError):
                layer.destroy_persistent(pe, h)

        h1 = conv.register_handler(starter)
        conv.send_from_outside(0, Message(h1, 0, 0, 0))
        conv.run()


class TestPersistentFixesRdma(TestPersistentFixes):
    layer = "rdma"


class TestQuiescenceFix:
    """Bugfix: _wave_down overwrote the accumulator, discarding any child
    contribution that raced ahead of the parent's own down-wave."""

    def test_child_up_before_parent_down_merges(self):
        conv, _ = make_runtime(n_pes=2, config=tiny_config())
        qd = QuiescenceDetector(conv)
        qd.sent[0] = 3
        qd.processed[0] = 3
        pe0 = conv.pes[0]
        # out-of-order delivery: the child's up-message is handled before
        # PE 0's own down-message
        qd._wave_up(pe0, Message(qd._h_up, 1, 0, 16, payload=(5, 5, 1)))
        assert qd.waves == 0
        qd._wave_down(pe0, Message(qd._h_down, 0, 0, 16))
        # the overwrite bug lost the child's (5, 5, 1) here and the wave
        # stalled forever with waves == 0
        assert qd.waves == 1
        assert qd._prev_totals == (8, 8)
        assert qd._wave_acc == {}

    def test_detection_still_fires_end_to_end(self):
        conv, _ = make_runtime(n_pes=8, config=tiny_config())
        qd = QuiescenceDetector(conv)
        fired = []
        qd.start(fired.append)
        conv.run(max_events=10**5)
        assert fired and qd.waves >= 2


class TestCleanRuns:
    def test_layered_rendezvous_passes_assert_clean(self):
        sanitize.clear_registry()
        m, conv, layer = san_runtime()
        got = []
        h_sink = conv.register_handler(lambda pe, msg: got.append(msg.nbytes))

        def send(pe, msg):
            conv.send(pe, 1, Message(h_sink, 0, 1, 64 * KB))

        hs = conv.register_handler(send)
        conv.send_from_outside(0, Message(hs, 0, 0, 0))
        conv.run()
        assert got == [64 * KB]
        assert layer.rendezvous_sent == 1
        # full audit: conservation at quiescence plus leak checks
        sanitize.assert_clean("layered rendezvous")
        stats = m.sanitizer.stats()
        assert stats["violations"] == 0
        assert stats["txs_started"] == stats["txs_retired"] > 0
        assert stats["msgs_sent"] == stats["msgs_resolved"] > 0

    def test_assert_clean_raises_on_dirty_registry(self):
        sanitize.clear_registry()
        m, job = san_job()
        blk = m.nodes[0].memory.malloc(4 * KB)
        job.MemRegister(blk)  # leaked on purpose
        with pytest.raises(sanitize.SanitizeViolation) as exc:
            sanitize.assert_clean("dirty")
        assert "registration-leak" in str(exc.value)
        # consume the seeded violation so the conftest guard stays quiet
        sanitize.clear_registry()
