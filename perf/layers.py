"""Layer probes: calls into one layer's public functions, nothing else busy.

Each timed probe repeats a fixed batch of operations on an otherwise idle
object until its window has elapsed, three times over, and reports the
fastest pass as operations per host CPU-second.  These are the numbers a
single-layer optimisation moves first; whether the gain reaches a
workload is for the end-to-end metrics to say.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Callable

from repro.apps.kneighbor import kneighbor
from repro.apps.raw.pingpong_mpi import mpi_pingpong
from repro.apps.raw.pingpong_ugni import ugni_pingpong
from repro.charm import Chare, Charm
from repro.converse.scheduler import Message
from repro.hardware.config import MachineConfig
from repro.hardware.link import Link
from repro.hardware.machine import Machine
from repro.lrts.factory import make_runtime
from repro.memory import MemoryPool, PxshmFabric, RegistrationCache
from repro.parallel import ShardedEngine, SweepPoint, run_sweep
from repro.sim import Engine
from repro.ugni.api import GniJob
from repro.units import KB

PASSES = 3


def ops_per_s(batch: Callable[[], int], window: float) -> float:
    """Fastest of ``PASSES`` passes; ``batch()`` returns operations done."""
    best = 0.0
    for _ in range(PASSES):
        ops = 0
        t0 = time.process_time()
        while True:
            ops += batch()
            dt = time.process_time() - t0
            if dt >= window:
                break
        best = max(best, ops / dt)
    return best


def fastest(fn: Callable[[], object]) -> float:
    """CPU seconds of the fastest of ``PASSES`` calls of ``fn``."""
    best = float("inf")
    for _ in range(PASSES):
        t0 = time.process_time()
        fn()
        best = min(best, time.process_time() - t0)
    return best


def _noop(*_args: object) -> None:
    pass


# --------------------------------------------------------------------- #
# sim
# --------------------------------------------------------------------- #
def sim_events(window: float) -> float:
    """arm / fire / cancel: the pattern every reliable SMSG produces."""
    eng = Engine()

    def batch(n: int = 2000) -> int:
        left = [n]

        def tick() -> None:
            eng.call_after(1e-6, _noop).cancel()
            left[0] -= 1
            if left[0]:
                eng.call_after(1e-9, tick)

        before = eng.events_executed
        eng.call_after(1e-9, tick)
        eng.run()
        return eng.events_executed - before

    return ops_per_s(batch, window)


def sim_batch_events(window: float) -> float:
    eng = Engine()
    delays = [1e-7 + i * 1e-9 for i in range(256)]

    def batch() -> int:
        before = eng.events_executed
        for _ in range(8):
            eng.call_after_batch(delays, _noop)
        eng.run()
        return eng.events_executed - before

    return ops_per_s(batch, window)


# --------------------------------------------------------------------- #
# converse / charm
# --------------------------------------------------------------------- #
def converse_local_msgs(window: float) -> float:
    """``PE.enqueue`` -> scheduler -> null handler, on one PE."""
    conv, _ = make_runtime(n_nodes=1)
    hid = conv.register_handler(_noop)
    pe = conv.pes[0]

    def batch(n: int = 1000) -> int:
        for _ in range(n):
            pe.enqueue(Message(hid, 0, 0, 64))
        conv.run()
        return n

    return ops_per_s(batch, window)


class _Spinner(Chare):
    def __init__(self) -> None:
        pass

    def spin(self, left: int) -> None:
        if left:
            self.thisProxy[self.thisIndex].spin(left - 1)


def charm_invokes(window: float) -> float:
    """Proxy self-invocation: envelope, send-to-self, entry dispatch."""
    conv, _ = make_runtime(n_nodes=1)
    charm = Charm(conv)
    arr = charm.create_array(_Spinner, 1, name="spin")

    def batch(n: int = 1000) -> int:
        charm.start(lambda pe: arr[0].spin(n))
        charm.run()
        return n

    return ops_per_s(batch, window)


class _Reducer(Chare):
    def __init__(self) -> None:
        pass

    def go(self, rounds: int) -> None:
        self.rounds = rounds
        self.contribute(1, "sum", self.thisProxy[0].done)

    def done(self, _total: int) -> None:
        if self.rounds > 1:
            self.thisProxy.go(self.rounds - 1)


def charm_contribs(window: float, n: int = 64) -> float:
    """64-element reductions, one element per PE, back to back."""
    conv, _ = make_runtime(n_pes=n)
    charm = Charm(conv)
    arr = charm.create_array(_Reducer, n, map="round_robin", name="red")

    def batch(rounds: int = 10) -> int:
        charm.start(lambda pe: arr.go(rounds))
        charm.run()
        return n * rounds

    return ops_per_s(batch, window)


# --------------------------------------------------------------------- #
# ugni / mpish: the raw ping-pongs, two sends per iteration
# --------------------------------------------------------------------- #
def _pingpong(fn: Callable, size: int, iters: int) -> Callable[[], int]:
    def batch() -> int:
        fn(size, iters=iters, warmup=0)
        return 2 * iters

    return batch


def ugni_memreg(window: float) -> float:
    machine = Machine(n_nodes=1)
    gni = GniJob(machine)
    block = machine.nodes[0].memory.malloc(64 * KB)

    def batch(n: int = 1000) -> int:
        for _ in range(n):
            handle, _cost = gni.MemRegister(block)
            gni.MemDeregister(handle)
        return n

    return ops_per_s(batch, window)


# --------------------------------------------------------------------- #
# hardware
# --------------------------------------------------------------------- #
def _transfers(machine: Machine, pairs: list[tuple[int, int]],
               window: float) -> float:
    net = machine.network
    coords = [machine.topology.coord_of(i) for i in range(machine.n_nodes)]
    routes = [(coords[a], coords[b]) for a, b in pairs]
    clock = [0.0]

    def batch() -> int:
        # time moves on between batches so link backlogs stay bounded
        clock[0] += 1e-3
        now = clock[0]
        for src, dst in routes:
            net.transfer(now, src, dst, 256)
        return len(routes)

    return ops_per_s(batch, window)


def hardware_transfer_near(window: float, n: int = 512) -> float:
    """Ring neighbours on an 8x8x8 torus: what kNeighbor routes."""
    return _transfers(Machine(n_nodes=n),
                      [(i, (i + 1) % n) for i in range(n)], window)


def _random_pairs(n: int, count: int = 4096) -> list[tuple[int, int]]:
    rng = random.Random(0)
    pairs = []
    while len(pairs) < count:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            pairs.append((a, b))
    return pairs


def hardware_transfer_far(window: float, n: int = 512) -> float:
    """Seeded random pairs: a hop-cache working set kNeighbor never has."""
    return _transfers(Machine(n_nodes=n), _random_pairs(n), window)


def hardware_dragonfly_transfer(window: float, n: int = 512) -> float:
    machine = Machine(n_nodes=n, config=MachineConfig(topology="dragonfly"))
    return _transfers(machine, _random_pairs(n), window)


def hardware_link_reserve(window: float) -> float:
    cfg = MachineConfig()
    link = Link("probe", cfg.link_bandwidth, cfg.hop_latency)
    clock = [0.0]

    def batch(n: int = 2000) -> int:
        clock[0] += 1e-3
        now = clock[0]
        for _ in range(n):
            link.reserve(now, 256, cfg.nic_msg_gap)
        return n

    return ops_per_s(batch, window)


def hardware_build_us_per_node(n: int = 4096) -> float:
    return fastest(lambda: Machine(n_nodes=n)) * 1e6 / n


# --------------------------------------------------------------------- #
# memory
# --------------------------------------------------------------------- #
def memory_pool_ops(window: float) -> float:
    """Seeded mixed-size alloc/free against one pool, ~64 blocks live."""
    machine = Machine(n_nodes=1)
    pool = MemoryPool(GniJob(machine), 0)
    rng = random.Random(0)
    sizes = [rng.choice((2 * KB, 16 * KB, 64 * KB, 256 * KB))
             for _ in range(1000)]
    live: deque = deque()

    def batch() -> int:
        for size in sizes:
            block, _cost = pool.alloc(size)
            live.append(block)
            if len(live) > 64:
                pool.free(live.popleft())
        return 2 * len(sizes)

    return ops_per_s(batch, window)


def _regcache(working_set: int, window: float) -> float:
    machine = Machine(n_nodes=1)
    capacity = 64
    cache = RegistrationCache(GniJob(machine), 0, capacity=capacity)
    memory = machine.nodes[0].memory
    blocks = [memory.malloc(4 * KB) for _ in range(working_set)]

    def batch() -> int:
        for block in blocks:
            handle, _cost = cache.lookup(block)
            cache.unpin(handle)
        return len(blocks)

    return ops_per_s(batch, window)


def memory_regcache_hit(window: float) -> float:
    return _regcache(32, window)  # half the capacity: every lookup hits


def memory_regcache_miss(window: float) -> float:
    return _regcache(128, window)  # cyclic over 2x capacity: LRU always misses


def memory_pxshm_sends(window: float) -> float:
    machine = Machine(n_nodes=1)
    fabric = PxshmFabric(machine)
    engine = machine.engine

    def batch(n: int = 500) -> int:
        for _ in range(n):
            fabric.send(0, 1, 256, None, _noop)
        engine.run()
        return n

    return ops_per_s(batch, window)


# --------------------------------------------------------------------- #
# observe / parallel: ratios of whole runs
# --------------------------------------------------------------------- #
def _knb(iters: int, **kw: object) -> None:
    kneighbor(256, layer="ugni", n_cores=64, k=4, iters=iters, **kw)


def _whole_run_iters(window: float) -> int:
    """kNeighbor iterations for the whole-run ratios: 30 at the full 0.5 s
    window, fewer when the driver's run length shrinks the window."""
    return max(5, round(60 * window))


def observe_overhead_ratio(iters: int) -> float:
    """knb_observed / knb_small host time per message, at equal size."""
    on = MachineConfig(observe=True, sanitize=True)
    return (fastest(lambda: _knb(iters, config=on))
            / fastest(lambda: _knb(iters)))


def parallel_sharded(iters: int) -> tuple[float, float]:
    """(sharded / plain host time, sequential fallbacks), timed apart.

    > 1 means sharding costs.  A run that fell back to sequential
    execution is counted, never timed as if it were sharded.
    """
    engines: list[ShardedEngine] = []

    def sharded() -> None:
        engines.append(ShardedEngine(n_shards=3))
        _knb(iters, engine=engines[-1])

    plain_s = fastest(lambda: _knb(iters, engine=Engine()))
    sharded_s = fastest(sharded)
    fallbacks = sum(bool(e.shard_stats()["sequential"]) for e in engines)
    return sharded_s / plain_s, float(fallbacks)


def parallel_sweep_speedup_2(iters: int) -> float:
    """``run_sweep`` of 4 equal points: wall clock at jobs=1 / jobs=2."""
    walls = {}
    for jobs in (1, 2):
        points = [SweepPoint(_knb, (iters,)) for _ in range(4)]
        t0 = time.perf_counter()
        run_sweep(points, jobs=jobs)
        walls[jobs] = time.perf_counter() - t0
    return walls[1] / walls[2]


# --------------------------------------------------------------------- #
def run_probes(window: float) -> dict[str, float]:
    """Every probe, by metric name; ``window`` is seconds per timed pass."""
    iters = _whole_run_iters(window)
    sharded_ratio, fallbacks = parallel_sharded(iters)
    return {
        "sim.events_per_s": sim_events(window),
        "sim.batch_events_per_s": sim_batch_events(window),
        "converse.local_msgs_per_s": converse_local_msgs(window),
        "charm.invokes_per_s": charm_invokes(window),
        "charm.contribs_per_s": charm_contribs(window),
        "ugni.smsg_per_s": ops_per_s(_pingpong(ugni_pingpong, 64, 500), window),
        "ugni.rdma_posts_per_s": ops_per_s(
            _pingpong(ugni_pingpong, 64 * KB, 500), window),
        "ugni.memreg_per_s": ugni_memreg(window),
        "mpish.eager_per_s": ops_per_s(_pingpong(mpi_pingpong, 64, 500), window),
        "mpish.rndv_per_s": ops_per_s(
            _pingpong(mpi_pingpong, 64 * KB, 500), window),
        "hardware.transfer_near_per_s": hardware_transfer_near(window),
        "hardware.transfer_far_per_s": hardware_transfer_far(window),
        "hardware.dragonfly_transfer_per_s": hardware_dragonfly_transfer(window),
        "hardware.link_reserve_per_s": hardware_link_reserve(window),
        "hardware.build_us_per_node": hardware_build_us_per_node(),
        "memory.pool_ops_per_s": memory_pool_ops(window),
        "memory.regcache_hit_per_s": memory_regcache_hit(window),
        "memory.regcache_miss_per_s": memory_regcache_miss(window),
        "memory.pxshm_sends_per_s": memory_pxshm_sends(window),
        "observe.overhead_ratio": observe_overhead_ratio(iters),
        "parallel.sharded_ratio": sharded_ratio,
        "parallel.fallbacks": fallbacks,
        "parallel.sweep_speedup_2": parallel_sweep_speedup_2(iters),
    }
