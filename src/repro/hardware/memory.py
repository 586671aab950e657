"""Per-node host memory with a real allocator.

Why a real allocator and not just a byte counter: the paper's central
optimization (the memory pool, §IV.B) is an allocation-policy change, and
several of its correctness hazards — double free, overlap, leak on
expansion — only exist if addresses are real.  The node allocator here is a
first-fit free list with address-ordered coalescing; the message pool in
:mod:`repro.memory.mempool` carves its arenas out of blocks obtained from
this allocator, so "pool memory is node memory" holds by construction and
the test suite can assert that all memory returns to baseline.

Allocation *cost* (the time a simulated PE spends in malloc) is not charged
here — it is a property of the calling context, so callers charge
``config.t_malloc(n)`` / ``config.t_free(n)`` to their own PE.
"""

from __future__ import annotations

import bisect
from typing import Optional

from repro.errors import MemoryError_


class MemoryBlock:
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
        return f"<MemoryBlock node={self.node_id} [{self.addr:#x}+{self.size}] {state}>"


class NodeMemory:
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
    def malloc(self, nbytes: int) -> MemoryBlock:
        """Allocate ``nbytes`` (rounded to :data:`ALIGN`); first fit."""
        if nbytes <= 0:
            raise MemoryError_(f"malloc of non-positive size {nbytes}")
        need = -(-nbytes // self.ALIGN) * self.ALIGN
        addr = self.take(need)
        if addr < 0:
            raise MemoryError_(
                f"node {self.node_id} out of memory: need {need}, "
                f"used {self.used}/{self.capacity}"
            )
        return MemoryBlock(addr, need, self.node_id)

    def free(self, block: MemoryBlock) -> None:
        """Return a block; coalesces with adjacent free ranges."""
        if block.node_id != self.node_id:
            raise MemoryError_(
                f"freeing block of node {block.node_id} on node {self.node_id}"
            )
        if block.freed:
            raise MemoryError_(f"double free of {block!r}")
        block.freed = True
        self.give(block.addr, block.size)

    # -- the free list itself: ranges, no block objects ------------------------
    def take(self, need: int) -> int:
        """Carve ``need`` bytes (a multiple of :data:`ALIGN`) out of the
        first free range that fits; returns its address, or -1 when none
        does.  :meth:`malloc` without the block object — the message pool
        keeps its own per-allocation record."""
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
                return addr
        return -1

    def give(self, addr: int, size: int) -> None:
        """Return ``[addr, addr + size)``, a range :meth:`take` handed out,
        coalescing with adjacent free ranges."""
        self.used -= size
        self.total_frees += 1
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
            f"<NodeMemory node={self.node_id} used={self.used}/{self.capacity} "
            f"ranges={len(self._free_addrs)}>"
        )
