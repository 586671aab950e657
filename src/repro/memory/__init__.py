"""Allocation machinery above raw node memory.

* :class:`~repro.memory.mempool.MemoryPool` — the message pool of §IV.B:
  pre-allocated, pre-registered arenas from which the runtime serves every
  Charm++ message, eliminating ``Tmalloc + Tregister`` from the send path.
* :class:`~repro.memory.pxshm.PxshmFabric` — POSIX-shared-memory intra-node
  queues with double-copy and sender-side single-copy modes (Fig. 8c).
* :class:`~repro.memory.regcache.RegistrationCache` — a block-granular
  uDREG-like cache with LRU eviction and pinning.  No runtime path uses
  it; MPI rendezvous gets its same-buffer-fast / fresh-buffer-slow
  behaviour (paper Fig. 9a) from :class:`~repro.mpish.udreg.UdregCache`.
"""

from repro.memory.mempool import MemoryPool, PoolBlock
from repro.memory.pxshm import PxshmFabric
from repro.memory.regcache import RegistrationCache

__all__ = ["MemoryPool", "PoolBlock", "RegistrationCache", "PxshmFabric"]
