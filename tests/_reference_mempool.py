"""Frozen reference memory pool: ``MemoryPool`` as it stood before it slimmed.

A verbatim copy of ``repro.memory.mempool`` (``PoolBlock`` wrapping an inner
``MemoryBlock``, ``_Arena.try_alloc``, ``MemoryPool._wrap``) together with
the node allocator it carved its arenas with, taken before the pool became
one object per allocation over ``NodeMemory.take`` / ``give``.  Only the
class names changed (``Ref`` prefix) and the observer registration is gone
(it never changed a result); the sanitizer hooks stay, so the differential
test also compares what a sanitizer is told.
``tests/test_mempool_equivalence.py`` drives it and the live pool with the
same alloc/free traces and requires identical addresses, sizes, costs,
counters and errors.  Do not "fix" or optimise this file: it is the oracle.
"""

from __future__ import annotations

import bisect
from typing import Optional

from repro.errors import MemoryError_


class RefMemoryBlock:
    """A live allocation: ``[addr, addr + size)`` on one node."""

    __slots__ = ("addr", "size", "node_id", "freed")

    def __init__(self, addr: int, size: int, node_id: int):
        self.addr = addr
        self.size = size
        self.node_id = node_id
        self.freed = False

    @property
    def end(self) -> int:
        return self.addr + self.size

    def contains(self, addr: int, nbytes: int = 1) -> bool:
        return self.addr <= addr and addr + nbytes <= self.end

    def __repr__(self) -> str:  # pragma: no cover
        state = "freed" if self.freed else "live"
        return f"<RefMemoryBlock node={self.node_id} [{self.addr:#x}+{self.size}] {state}>"


class RefNodeMemory:
    """First-fit allocator over one node's physical memory."""

    #: all allocations are rounded up to this granularity (malloc alignment)
    ALIGN = 16

    def __init__(self, node_id: int, capacity: int):
        self.node_id = node_id
        self.capacity = capacity
        # Parallel sorted lists: free-range start addresses and sizes.
        self._free_addrs: list[int] = [0]
        self._free_sizes: list[int] = [capacity]
        self.used = 0
        #: lifetime counters for leak diagnostics
        self.total_allocs = 0
        self.total_frees = 0

    # -- allocation ----------------------------------------------------------
    def malloc(self, nbytes: int) -> RefMemoryBlock:
        """Allocate ``nbytes`` (rounded to :data:`ALIGN`); first fit."""
        if nbytes <= 0:
            raise MemoryError_(f"malloc of non-positive size {nbytes}")
        need = -(-nbytes // self.ALIGN) * self.ALIGN
        for i, size in enumerate(self._free_sizes):
            if size >= need:
                addr = self._free_addrs[i]
                if size == need:
                    del self._free_addrs[i]
                    del self._free_sizes[i]
                else:
                    self._free_addrs[i] = addr + need
                    self._free_sizes[i] = size - need
                self.used += need
                self.total_allocs += 1
                return RefMemoryBlock(addr, need, self.node_id)
        raise MemoryError_(
            f"node {self.node_id} out of memory: need {need}, "
            f"used {self.used}/{self.capacity}"
        )

    def free(self, block: RefMemoryBlock) -> None:
        """Return a block; coalesces with adjacent free ranges."""
        if block.node_id != self.node_id:
            raise MemoryError_(
                f"freeing block of node {block.node_id} on node {self.node_id}"
            )
        if block.freed:
            raise MemoryError_(f"double free of {block!r}")
        block.freed = True
        self.used -= block.size
        self.total_frees += 1

        addr, size = block.addr, block.size
        i = bisect.bisect_left(self._free_addrs, addr)
        # coalesce with predecessor
        if i > 0 and self._free_addrs[i - 1] + self._free_sizes[i - 1] == addr:
            i -= 1
            addr = self._free_addrs[i]
            size += self._free_sizes[i]
            del self._free_addrs[i]
            del self._free_sizes[i]
        # coalesce with successor
        if i < len(self._free_addrs) and addr + size == self._free_addrs[i]:
            size += self._free_sizes[i]
            del self._free_addrs[i]
            del self._free_sizes[i]
        self._free_addrs.insert(i, addr)
        self._free_sizes.insert(i, size)

    # -- introspection ---------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        return self.capacity - self.used

    @property
    def largest_free_range(self) -> int:
        return max(self._free_sizes, default=0)

    def check_invariants(self) -> None:
        """Allocator self-check used by property tests."""
        assert self._free_addrs == sorted(self._free_addrs)
        total_free = 0
        prev_end: Optional[int] = None
        for a, s in zip(self._free_addrs, self._free_sizes):
            assert s > 0, "zero-sized free range"
            assert 0 <= a and a + s <= self.capacity, "free range out of bounds"
            if prev_end is not None:
                assert a > prev_end, "free ranges not coalesced/disjoint"
            prev_end = a + s
            total_free += s
        assert total_free + self.used == self.capacity, (
            f"accounting mismatch: free={total_free} used={self.used} "
            f"capacity={self.capacity}"
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<RefNodeMemory node={self.node_id} used={self.used}/{self.capacity} "
            f"ranges={len(self._free_addrs)}>"
        )


class RefPoolBlock:
    """An allocation served from the pool.

    Carries the covering arena's registration handle (:attr:`mem_handle`),
    which is what makes zero-registration RDMA possible.
    """

    __slots__ = ("addr", "size", "node_id", "mem_handle", "_arena", "_inner", "freed")

    def __init__(self, addr: int, size: int, node_id: int, mem_handle,
                 arena: "_RefArena", inner: RefMemoryBlock):
        self.addr = addr
        self.size = size
        self.node_id = node_id
        self.mem_handle = mem_handle
        self._arena = arena
        self._inner = inner
        self.freed = False

    @property
    def end(self) -> int:
        return self.addr + self.size

    def __repr__(self) -> str:  # pragma: no cover
        state = "freed" if self.freed else "live"
        return f"<RefPoolBlock node={self.node_id} [{self.addr:#x}+{self.size}] {state}>"


class _RefArena:
    """One pre-registered slab; internal free list indexes relative offsets."""

    def __init__(self, block: RefMemoryBlock, handle):
        self.block = block
        self.handle = handle
        # Reuse the node allocator algorithm for the interior of the slab.
        self.alloc = RefNodeMemory(block.node_id, block.size)

    @property
    def base(self) -> int:
        return self.block.addr

    def try_alloc(self, nbytes: int) -> Optional[RefMemoryBlock]:
        try:
            return self.alloc.malloc(nbytes)
        except MemoryError_:
            return None


class RefMemoryPool:
    """A per-PE (or per-node, in SMP mode) pre-registered message pool."""

    def __init__(
        self,
        gni,
        node_id: int,
        initial_bytes: Optional[int] = None,
        expand_bytes: Optional[int] = None,
        name: str = "pool",
    ):
        self.gni = gni
        self.machine = gni.machine
        self.config = self.machine.config
        self.node_id = node_id
        self.name = name
        self._san = self.machine.sanitizer
        self.initial_bytes = initial_bytes or self.config.mempool_initial_bytes
        self.expand_bytes = expand_bytes or self.config.mempool_expand_bytes
        self.arenas: list[_RefArena] = []
        #: CPU cost paid at setup (allocate + register the first arena);
        #: charged once by the machine layer at LrtsInit time
        self.setup_cost = self._add_arena(self.initial_bytes)
        #: one-time expansion costs incurred so far (diagnostics)
        self.expansions = 0
        #: empty expansion arenas returned to the node (diagnostics)
        self.arenas_released = 0
        self.live_blocks = 0
        self.live_bytes = 0
        self.total_allocs = 0

    # -- internals -------------------------------------------------------------
    def _add_arena(self, nbytes: int) -> float:
        block, handle, cost = self.gni.registrations.malloc_registered(self.node_id, nbytes)
        self.arenas.append(_RefArena(block, handle))
        if self._san is not None:
            self._san.root_region(handle, f"pool-arena:{self.name}")
        return cost

    # -- API ---------------------------------------------------------------------
    def alloc(self, nbytes: int) -> tuple[RefPoolBlock, float]:
        """Serve an allocation; returns ``(block, cpu_cost)``.

        Overflow triggers dynamic expansion (paper §IV.B): the expansion's
        malloc+register cost is charged to this unlucky caller, after which
        the new arena serves cheaply.
        """
        if nbytes <= 0:
            raise MemoryError_(f"pool alloc of non-positive size {nbytes}")
        cost = self.config.mempool_alloc_cpu
        for arena in self.arenas:
            inner = arena.try_alloc(nbytes)
            if inner is not None:
                return self._wrap(arena, inner), cost
        # overflow: expand with an arena big enough for the request
        grow = max(self.expand_bytes, 2 * nbytes)
        cost += self._add_arena(grow)
        self.expansions += 1
        arena = self.arenas[-1]
        inner = arena.try_alloc(nbytes)
        assert inner is not None, "fresh arena must satisfy the allocation"
        return self._wrap(arena, inner), cost

    def _wrap(self, arena: _RefArena, inner: RefMemoryBlock) -> RefPoolBlock:
        self.live_blocks += 1
        self.live_bytes += inner.size
        self.total_allocs += 1
        block = RefPoolBlock(
            addr=arena.base + inner.addr,
            size=inner.size,
            node_id=self.node_id,
            mem_handle=arena.handle,
            arena=arena,
            inner=inner,
        )
        if self._san is not None:
            self._san.on_pool_alloc(self, block)
        return block

    def free(self, block: RefPoolBlock) -> float:
        """Return a block to its arena; returns cpu cost.

        Rejects double frees and blocks that belong to a different pool (or
        to an arena this pool already released) — handing a foreign block to
        ``RefNodeMemory.free`` would corrupt the arena free list.  An expansion
        arena that empties out is returned to the node, so transient bursts
        do not pin registered memory forever.
        """
        if block.freed:
            if self._san is not None:
                self._san.on_pool_double_free(self, block)
            raise MemoryError_(f"double free of {block!r}")
        arena = block._arena
        if not any(a is arena for a in self.arenas):
            if self._san is not None:
                self._san.on_pool_foreign_free(self, block)
            raise MemoryError_(
                f"free of {block!r}: block does not belong to pool {self.name}"
            )
        if self._san is not None:
            self._san.on_pool_free(self, block)
        block.freed = True
        arena.alloc.free(block._inner)
        self.live_blocks -= 1
        self.live_bytes -= block.size
        cost = self.config.mempool_free_cpu
        if arena.alloc.used == 0 and arena is not self.arenas[0]:
            # empty expansion arena: give the registration and memory back
            self.arenas.remove(arena)
            cost += self.gni.registrations.free_registered(arena.block, arena.handle)
            self.arenas_released += 1
        return cost

    def destroy(self) -> float:
        """Tear the pool down, returning all node memory; returns cpu cost."""
        if self.live_blocks:
            raise MemoryError_(
                f"destroying pool {self.name} with {self.live_blocks} live blocks"
            )
        cost = 0.0
        for arena in self.arenas:
            cost += self.gni.registrations.free_registered(arena.block, arena.handle)
        self.arenas.clear()
        return cost

    # -- introspection ---------------------------------------------------------
    @property
    def capacity(self) -> int:
        return sum(a.block.size for a in self.arenas)

    @property
    def registered_bytes(self) -> int:
        return sum(a.handle.length for a in self.arenas if a.handle.valid)

    def check_invariants(self) -> None:
        for arena in self.arenas:
            arena.alloc.check_invariants()
            assert arena.handle.valid, "arena lost its registration"
        assert self.live_bytes == sum(a.alloc.used for a in self.arenas)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<RefMemoryPool {self.name} node={self.node_id} "
            f"live={self.live_bytes}/{self.capacity} arenas={len(self.arenas)}>"
        )
