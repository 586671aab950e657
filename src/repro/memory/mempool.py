"""The message memory pool (paper §IV.B).

    "we can exploit the use of a memory pool aggressively by pre-allocating
    and registering a relatively large amount of memory, and explicitly
    managing it for Charm++ messages. [...] Since the entire memory pool is
    pre-registered, there is no additional registration cost for each
    message.  In the case when the memory pool overflows, it can be
    dynamically expanded."

The pool owns one or more *arenas*.  Each arena is a block of real node
memory registered once with uGNI; allocations inside an arena are served by
a first-fit free list and inherit the arena's :class:`MemHandle`, so the
rendezvous protocol can RDMA directly into/out of pool blocks with no
per-message registration.  An allocation is one :class:`PoolBlock` and one
range taken from its arena; a free gives the range back.

Cost model: ``alloc``/``free`` return ``mempool_alloc_cpu`` /
``mempool_free_cpu`` (sub-microsecond constant work), versus
``t_malloc + t_register`` for the unpooled path — the difference is Fig. 8b.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import MemoryError_
from repro.hardware.machine import Machine
from repro.hardware.memory import MemoryBlock, NodeMemory
from repro.ugni.api import GniJob
from repro.ugni.memreg import MemHandle

_ALIGN = NodeMemory.ALIGN


class PoolBlock:
    """An allocation served from the pool: the one object made per alloc.

    Carries the covering arena's registration handle (:attr:`mem_handle`),
    which is what makes zero-registration RDMA possible.
    """

    __slots__ = ("addr", "size", "node_id", "mem_handle", "_arena", "freed")

    def __init__(self, addr: int, size: int, node_id: int, mem_handle: MemHandle,
                 arena: "_Arena"):
        self.addr = addr
        self.size = size
        self.node_id = node_id
        self.mem_handle = mem_handle
        self._arena = arena
        self.freed = False

    @property
    def end(self) -> int:
        return self.addr + self.size

    def __repr__(self) -> str:  # pragma: no cover
        state = "freed" if self.freed else "live"
        return f"<PoolBlock node={self.node_id} [{self.addr:#x}+{self.size}] {state}>"


class _Arena:
    """One pre-registered slab; internal free list indexes relative offsets."""

    def __init__(self, block: MemoryBlock, handle: MemHandle):
        self.block = block
        self.handle = handle
        self.base = block.addr
        # Reuse the node allocator algorithm for the interior of the slab:
        # the pool takes and gives back bare ranges of it.
        self.alloc = NodeMemory(block.node_id, block.size)


class MemoryPool:
    """A per-PE (or per-node, in SMP mode) pre-registered message pool."""

    def __init__(
        self,
        gni: GniJob,
        node_id: int,
        initial_bytes: Optional[int] = None,
        expand_bytes: Optional[int] = None,
        name: str = "pool",
    ):
        self.gni = gni
        self.machine: Machine = gni.machine
        self.config = self.machine.config
        self.node_id = node_id
        self.name = name
        self._san = self.machine.sanitizer
        self.initial_bytes = initial_bytes or self.config.mempool_initial_bytes
        self.expand_bytes = expand_bytes or self.config.mempool_expand_bytes
        self.arenas: list[_Arena] = []
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
        obs = self.machine.observer
        if obs is not None:
            obs.register_source(f"pool/{self.name}", self._observe_stats)

    def _observe_stats(self) -> dict:
        """Occupancy snapshot pulled by the metrics registry."""
        return {
            "live_blocks": self.live_blocks,
            "live_bytes": self.live_bytes,
            "total_allocs": self.total_allocs,
            "expansions": self.expansions,
            "arenas_released": self.arenas_released,
            "capacity": self.capacity,
            "registered_bytes": self.registered_bytes,
        }

    # -- internals -------------------------------------------------------------
    def _add_arena(self, nbytes: int) -> float:
        block, handle, cost = self.gni.registrations.malloc_registered(
            self.node_id, nbytes, f"pool-arena:{self.name}")
        self.arenas.append(_Arena(block, handle))
        return cost

    # -- API ---------------------------------------------------------------------
    def alloc(self, nbytes: int) -> tuple[PoolBlock, float]:
        """Serve an allocation; returns ``(block, cpu_cost)``.

        Overflow triggers dynamic expansion (paper §IV.B): the expansion's
        malloc+register cost is charged to this unlucky caller, after which
        the new arena serves cheaply.
        """
        if nbytes <= 0:
            raise MemoryError_(f"pool alloc of non-positive size {nbytes}")
        need = -(-nbytes // _ALIGN) * _ALIGN
        cost = self.config.mempool_alloc_cpu
        for arena in self.arenas:
            offset = arena.alloc.take(need)
            if offset >= 0:
                break
        else:
            # overflow: expand with an arena big enough for the request
            grow = max(self.expand_bytes, 2 * nbytes)
            cost += self._add_arena(grow)
            self.expansions += 1
            arena = self.arenas[-1]
            offset = arena.alloc.take(need)
            assert offset >= 0, "fresh arena must satisfy the allocation"
        self.live_blocks += 1
        self.live_bytes += need
        self.total_allocs += 1
        block = PoolBlock(arena.base + offset, need, self.node_id,
                          arena.handle, arena)
        if self._san is not None:
            self._san.on_pool_alloc(self, block)
        return block, cost

    def free(self, block: PoolBlock) -> float:
        """Return a block to its arena; returns cpu cost.

        Rejects double frees and blocks that belong to a different pool (or
        to an arena this pool already released) — giving a foreign range
        back would corrupt the arena free list.  An expansion arena that
        empties out is returned to the node, so transient bursts do not pin
        registered memory forever.
        """
        if block.freed:
            if self._san is not None:
                self._san.on_pool_double_free(self, block)
            raise MemoryError_(f"double free of {block!r}")
        arena = block._arena
        if arena not in self.arenas:  # arenas compare by identity
            if self._san is not None:
                self._san.on_pool_foreign_free(self, block)
            raise MemoryError_(
                f"free of {block!r}: block does not belong to pool {self.name}"
            )
        if self._san is not None:
            self._san.on_pool_free(self, block)
        block.freed = True
        arena.alloc.give(block.addr - arena.base, block.size)
        self.live_blocks -= 1
        self.live_bytes -= block.size
        cost = self.config.mempool_free_cpu
        if arena.alloc.used == 0 and arena is not self.arenas[0]:
            # empty expansion arena: give the registration and memory back
            self.arenas.remove(arena)
            cost += self.gni.registrations.free_registered(
                arena.block, arena.handle)
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
            cost += self.gni.registrations.free_registered(
                arena.block, arena.handle)
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
            f"<MemoryPool {self.name} node={self.node_id} "
            f"live={self.live_bytes}/{self.capacity} arenas={len(self.arenas)}>"
        )
