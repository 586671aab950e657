"""Tests for the MPI subset: matching, protocols, ordering, requests."""

import pytest

from repro.hardware import Machine
from repro.hardware.config import tiny as tiny_config
from repro.errors import SimulationError
from repro.mpish import ANY, MpiRequest, MpiWorld
from repro.mpish.matching import MatchEngine, Arrival
from repro.mpish.udreg import UdregCache
from repro.units import KB, MB, us


def make_world(n_nodes=2, cores_per_node=2, seed=0):
    m = Machine(n_nodes=n_nodes, config=tiny_config(cores_per_node=cores_per_node),
                seed=seed)
    return m, MpiWorld(m)


def blocking(world, posted, k):
    """A blocking MPI call as a callback chain: pay the just-posted
    request's CPU, then run ``k(req)`` once it has completed."""
    req, cpu = posted
    eng = world.engine
    eng.post_at(eng.now + cpu, req.on_complete, lambda _value: k(req))


def send(world, rank, dst, tag, nbytes, k, payload=None, buf_key=None):
    blocking(world, world.isend(rank, dst, tag, nbytes, payload=payload,
                                buf_key=buf_key), k)


def recv(world, rank, src, tag, k, buf_key=None):
    """Blocking receive; ``k(req)`` reads the arrival off ``req.matched``."""
    blocking(world, world.irecv(rank, src=src, tag=tag, buf_key=buf_key), k)


class TestMatchEngine:
    def _eng(self):
        return MatchEngine(0, tiny_config())

    def _arr(self, src=1, tag=5, seq=0):
        return Arrival(src, 0, tag, 64, None, 0.0, seq=seq)

    def test_exact_match(self):
        eng = self._eng()
        eng.add_unexpected(self._arr(src=1, tag=5))
        arr, _ = eng.match_unexpected(1, 5)
        assert arr is not None
        assert eng.unexpected_depth == 0

    def test_wildcard_source_and_tag(self):
        eng = self._eng()
        eng.add_unexpected(self._arr(src=3, tag=9))
        arr, _ = eng.match_unexpected(ANY, ANY)
        assert arr is not None and arr.src == 3

    def test_no_match_leaves_queue(self):
        eng = self._eng()
        eng.add_unexpected(self._arr(src=1, tag=5))
        arr, _ = eng.match_unexpected(2, 5)
        assert arr is None
        assert eng.unexpected_depth == 1

    def test_fifo_among_matches(self):
        eng = self._eng()
        a = self._arr(src=1, tag=5)
        b = self._arr(src=1, tag=5)
        eng.add_unexpected(a)
        eng.add_unexpected(b)
        got, _ = eng.match_unexpected(1, 5)
        assert got is a

    def test_scan_cost_grows_with_queue_depth(self):
        eng = self._eng()
        for _ in range(50):
            eng.add_unexpected(self._arr(src=1, tag=1))
        # match something at the back
        eng.add_unexpected(self._arr(src=2, tag=2))
        _, deep_cost = eng.match_unexpected(2, 2)
        eng2 = self._eng()
        eng2.add_unexpected(self._arr(src=2, tag=2))
        _, shallow_cost = eng2.match_unexpected(2, 2)
        assert deep_cost > shallow_cost

    def test_probe_does_not_pop(self):
        eng = self._eng()
        eng.add_unexpected(self._arr())
        arr, _ = eng.match_unexpected(ANY, ANY, pop=False)
        assert arr is not None
        assert eng.unexpected_depth == 1


class TestUdreg:
    def test_hit_after_miss(self):
        c = UdregCache(tiny_config(), capacity=4)
        miss = c.lookup("buf", 64 * KB)
        hit = c.lookup("buf", 64 * KB)
        assert miss > hit
        assert c.hit_rate == pytest.approx(0.5)

    def test_smaller_request_hits_existing(self):
        c = UdregCache(tiny_config())
        c.lookup("buf", 64 * KB)
        assert c.lookup("buf", 4 * KB) == pytest.approx(
            tiny_config().udreg_lookup_cpu)

    def test_larger_request_reregisters(self):
        cfg = tiny_config()
        c = UdregCache(cfg)
        c.lookup("buf", 4 * KB)
        cost = c.lookup("buf", 64 * KB)
        assert cost > cfg.t_register(64 * KB)

    def test_eviction(self):
        c = UdregCache(tiny_config(), capacity=2)
        c.lookup("a", 1024)
        c.lookup("b", 1024)
        c.lookup("c", 1024)
        assert c.evictions == 1


class TestMpiRequest:
    def _req(self):
        return MpiRequest("recv", 0, 1, 0, 0)

    def test_complete_runs_waiters_in_order(self):
        req = self._req()
        got = []
        req.on_complete(lambda v: got.append(("a", v)))
        req.on_complete(lambda v: got.append(("b", v)))
        assert not req.completed and got == []
        req.complete(1e-6, 2e-7)
        assert got == [("a", (1e-6, 2e-7)), ("b", (1e-6, 2e-7))]
        assert req.completed and req.value == (1e-6, 2e-7)

    def test_waiter_after_completion_runs_at_once(self):
        req = self._req()
        req.complete(3e-6)
        got = []
        req.on_complete(got.append)
        assert got == [(3e-6, 0.0)]

    def test_double_completion_raises(self):
        req = self._req()
        req.complete(1e-6)
        with pytest.raises(SimulationError, match="already completed"):
            req.complete(2e-6)
        assert req.value == (1e-6, 0.0)


class TestPointToPoint:
    def _pingpong(self, size, iters=3, same_buf=True, n_nodes=2):
        m, world = make_world(n_nodes=n_nodes,
                              cores_per_node=1 if n_nodes > 1 else 2)
        eng = m.engine
        b0, b1 = ("b0", "b1") if same_buf else (None, None)
        lat = []

        def rank0(i):
            if i == iters:
                return
            t0 = eng.now

            def replied(_req):
                lat.append((eng.now - t0) / 2)
                rank0(i + 1)

            send(world, 0, 1, 0, size, buf_key=b0,
                 k=lambda _req: recv(world, 0, 1, 1, replied, buf_key=b0))

        def rank1(i):
            if i < iters:
                recv(world, 1, 0, 0, buf_key=b1,
                     k=lambda _req: send(world, 1, 0, 1, size, buf_key=b1,
                                         k=lambda _req: rank1(i + 1)))

        eng.post_at(0.0, rank0, 0)
        eng.post_at(0.0, rank1, 0)
        eng.run(max_events=100000)
        assert len(lat) == iters
        return lat[-1]  # steady state

    def test_small_message_latency(self):
        """Pure MPI 8B one-way ≈ 1.4-2us (a bit above pure uGNI's 1.2)."""
        lat = self._pingpong(8)
        assert 1.2 * us < lat < 2.5 * us

    def test_latency_monotone_in_size(self):
        sizes = [8, 512, 4 * KB, 64 * KB, 1 * MB]
        lats = [self._pingpong(s) for s in sizes]
        assert all(b > a for a, b in zip(lats, lats[1:]))

    def test_rendezvous_same_buffer_faster_than_fresh(self):
        """Fig 9a: MPI same send/recv buffer beats different buffers >8K."""
        same = self._pingpong(64 * KB, same_buf=True)
        diff = self._pingpong(64 * KB, same_buf=False)
        assert diff > same * 1.2

    def test_intranode_delivery(self):
        lat = self._pingpong(4 * KB, n_nodes=1)
        assert lat > 0

    def test_intranode_large_uses_xpmem_single_copy(self):
        m, world = make_world(n_nodes=1, cores_per_node=2)
        done = []
        send(world, 0, 1, 0, 256 * KB, k=lambda _req: None)
        recv(world, 1, 0, 0, lambda _req: done.append(m.engine.now))
        m.engine.run()
        assert done
        # single copy: latency ≈ xpmem_sync + one memcpy, well under 2x memcpy
        assert done[0] < m.config.xpmem_sync_cpu + 2 * m.config.t_memcpy(256 * KB)

    def test_payload_arrives_intact(self):
        m, world = make_world()
        got = []
        send(world, 0, 2, 7, 100, payload={"k": [1, 2, 3]}, k=lambda _req: None)
        recv(world, 2, 0, 7, lambda req: got.append(req.matched.payload))
        m.engine.run()
        assert got == [{"k": [1, 2, 3]}]

    def test_unexpected_then_late_recv(self):
        m, world = make_world()
        got = []
        send(world, 0, 2, 1, 64, payload="early", k=lambda _req: None)
        # the message arrives long before the recv posts
        m.engine.call_after(
            50 * us, recv, world, 2, 0, 1,
            lambda req: got.append((req.matched.payload, m.engine.now)))
        m.engine.run()
        assert got and got[0][0] == "early"
        assert got[0][1] >= 50 * us

    def test_nonovertaking_order_same_pair(self):
        """Messages of wildly different sizes still arrive in send order."""
        m, world = make_world()
        got = []
        # big eager first (slow), tiny second (fast), back to back (an
        # eager send is complete when posted): order must hold
        world.isend(0, 2, 0, 8 * KB, payload="big")
        world.isend(0, 2, 0, 8, payload="small")

        def received(req):
            got.append(req.matched.payload)
            if len(got) < 2:
                recv(world, 2, 0, 0, received)

        recv(world, 2, 0, 0, received)
        m.engine.run(max_events=100000)
        assert got == ["big", "small"]
        assert world.reordered == 1  # the small one landed first

    def test_isend_returns_before_delivery(self):
        m, world = make_world()
        req, cpu = world.isend(0, 2, 0, 64, payload="x")
        assert req.completed  # eager: buffered completion
        assert world.match_engine(2).unexpected_depth == 0  # not yet arrived
        m.engine.run()
        assert world.match_engine(2).unexpected_depth == 1

    def test_on_unexpected_hook_fires(self):
        m, world = make_world()
        seen = []
        world.on_unexpected[2] = seen.append
        world.isend(0, 2, 0, 64)
        m.engine.run()
        assert len(seen) == 1 and seen[0].dst == 2

    def test_default_hook_serves_ranks_without_their_own(self):
        m, world = make_world()
        default, own = [], []
        world.on_unexpected_default = default.append
        world.on_unexpected[2] = own.append
        world.isend(0, 2, 0, 64)
        world.isend(0, 3, 0, 64)
        world.isend(2, 1, 0, 64)
        m.engine.run()
        assert [a.dst for a in own] == [2]
        assert sorted(a.dst for a in default) == [1, 3]
