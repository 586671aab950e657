"""Differential test: the one-object-per-allocation pool vs the frozen one.

``tests/_reference_mempool.py`` is ``MemoryPool`` as it stood when every
allocation made three objects (arena ``MemoryBlock``, ``PoolBlock``
wrapper, and the generator of the ownership scan on free).  Random traces
of allocations, frees, double frees and frees into the wrong pool go
through it and through the live pool side by side, each on its own
machine: every address, size, cost, counter, error message and sanitizer
report must be identical, and so must the node memory left behind.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import MemoryError_
from repro.hardware import Machine
from repro.hardware.config import tiny as tiny_config
from repro.memory import MemoryPool
from repro.ugni.api import GniJob
from repro.units import KB
from tests._reference_mempool import RefMemoryPool

SETTINGS = dict(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: straddle the 64 KB initial arena and the 32 KB expansion step: fits,
#: fills, overflows into one expansion, and needs an arena of its own
_SIZES = [0, -3, 1, 15, 16, 17, 1000, 8 * KB, 31 * KB, 48 * KB, 100 * KB]

_OPS = st.lists(st.one_of(
    st.tuples(st.just("alloc"), st.sampled_from(_SIZES)),
    st.tuples(st.just("alloc"), st.integers(1, 40 * KB)),
    st.tuples(st.just("free"), st.integers(0, 10**6)),
    st.tuples(st.just("free"), st.integers(0, 10**6)),
    st.tuples(st.just("refree"), st.integers(0, 10**6)),
    st.tuples(st.just("foreign"), st.integers(0, 10**6)),
), max_size=120)


class _Side:
    """One pool under test, a second pool to free into by mistake, and
    the machine both live on."""

    def __init__(self, pool_cls):
        self.machine = Machine(
            n_nodes=1, config=tiny_config(cores_per_node=1).replace(sanitize=True))
        job = GniJob(self.machine)
        self.pool = pool_cls(job, node_id=0, initial_bytes=64 * KB,
                             expand_bytes=32 * KB, name="pool")
        self.other = pool_cls(job, node_id=0, initial_bytes=16 * KB,
                              expand_bytes=16 * KB, name="other")
        self.live, self.freed = [], []

    def step(self, op, arg):
        """Apply one op; returns everything a caller could observe."""
        try:
            if op == "alloc":
                block, cost = self.pool.alloc(arg)
                self.live.append(block)
                out = (block.addr, block.size, block.end, block.node_id,
                       block.mem_handle.addr, block.mem_handle.length, cost)
            elif op == "free" and self.live:
                block = self.live.pop(arg % len(self.live))
                self.freed.append(block)
                out = self.pool.free(block)
            elif op == "refree" and self.freed:
                out = self.pool.free(self.freed[arg % len(self.freed)])
            elif op == "foreign" and self.live:
                out = self.other.free(self.live[arg % len(self.live)])
            else:
                out = None
        except MemoryError_ as exc:
            out = str(exc).replace("RefPoolBlock", "PoolBlock")
        return out, self.state()

    def state(self):
        pool = self.pool
        return (pool.expansions, pool.arenas_released, pool.live_blocks,
                pool.live_bytes, pool.total_allocs, pool.capacity,
                pool.registered_bytes, len(pool.arenas),
                self.machine.nodes[0].memory.used,
                [(v.kind, v.where, v.detail)
                 for v in self.machine.sanitizer.violations])

    def finish(self):
        for block in self.live:
            self.pool.free(block)
        self.pool.check_invariants()
        costs = (self.pool.destroy(), self.other.destroy())
        return costs, self.machine.nodes[0].memory.used


@pytest.mark.sanitize_violations
@settings(**SETTINGS)
@given(_OPS)
def test_pool_matches_reference(ops):
    live, ref = _Side(MemoryPool), _Side(RefMemoryPool)
    assert live.pool.setup_cost == ref.pool.setup_cost
    for op, arg in ops:
        assert live.step(op, arg) == ref.step(op, arg), (op, arg)
    assert live.finish() == ref.finish()
    assert live.machine.nodes[0].memory.used == 0
