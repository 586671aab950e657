"""Per-node accelerators: device memory, copy engines, kernel occupancy.

The GPU follow-ons to the paper (Choi et al., arXiv:2102.12416;
Rengasamy & Vadhiyar, arXiv:2008.05712) extend the message-driven model
with exactly three hardware resources, and this module models all three:

* **device memory** — a real first-fit allocator (the same
  :class:`~repro.hardware.memory.NodeMemory` the host uses), so
  double-free, overlap and leak hazards on device buffers are as real as
  they are for host memory and the sanitizer can shadow them;
* **copy engines** — one serialized DMA engine per direction (h2d, d2h)
  with its own fixed start cost, bandwidth and queue-credit accounting,
  mirroring how the BTE serializes per NIC;
* **kernel slots** — bounded concurrent-kernel occupancy so a chare can
  overlap compute with communication (launch, keep scheduling messages,
  get a completion callback).

Everything here is pure timing/bookkeeping on the discrete-event engine:
completions are scheduled with ``call_at_node`` so
:class:`~repro.parallel.ShardedEngine` tags them with the GPU's node.
Sanitizer hooks follow the repo-wide contract — every call site is
``is None``-guarded and the sanitizer never mutates state, so enabling
it cannot change results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import HardwareError, MemoryError_
from repro.hardware.memory import MemoryBlock, NodeMemory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.config import MachineConfig
    from repro.sim.engine import Engine


class DeviceBuffer:
    """A live device-memory allocation on one GPU.

    Wraps the underlying :class:`MemoryBlock` with the owning GPU so
    frees can be checked for foreign-device misuse, the classic
    multi-GPU bug the sanitizer's ``foreign-device-free`` kind reports.
    """

    __slots__ = ("gpu", "block", "nbytes")

    def __init__(self, gpu: "Gpu", block: MemoryBlock, nbytes: int):
        self.gpu = gpu
        self.block = block
        self.nbytes = nbytes

    @property
    def freed(self) -> bool:
        return self.block.freed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "freed" if self.freed else "live"
        return (f"<DeviceBuffer gpu{self.gpu.gpu_id}@node{self.gpu.node_id} "
                f"[{self.block.addr:#x}+{self.nbytes}] {state}>")


class CopyEngine:
    """One serialized host↔device DMA engine (a single direction).

    Timing model: a copy posted at ``now`` starts when the engine frees
    (``busy_until``), costs ``base + nbytes / bandwidth``, and fully
    serializes with every other copy on the same engine — the exact
    occupancy idiom the BTE uses per NIC.

    Credit contract: :meth:`begin_copy` takes one queue credit and
    returns ``(done, token)``; the credit **must** be retired with
    :meth:`finish_copy` when the copy completes.  :meth:`submit` does
    this automatically by scheduling the retire at ``done``; a caller
    that begins a copy and never finishes it is exactly the bug the
    sanitizer's ``copy-credit-leak`` quiescence audit reports.
    """

    __slots__ = ("engine", "node_id", "gpu_id", "direction", "base",
                 "bandwidth", "queue_depth", "sanitizer", "busy_until",
                 "outstanding", "outstanding_peak", "queue_stalls",
                 "copies", "bytes_copied", "busy_time", "_next_token")

    def __init__(self, engine: "Engine", node_id: int, gpu_id: int,
                 direction: str, base: float, bandwidth: float,
                 queue_depth: int, sanitizer: Any = None):
        self.engine = engine
        self.node_id = node_id
        self.gpu_id = gpu_id
        self.direction = direction
        self.base = base
        self.bandwidth = bandwidth
        self.queue_depth = queue_depth
        self.sanitizer = sanitizer
        self.busy_until = 0.0
        #: credits taken and not yet retired (posted, incomplete copies)
        self.outstanding = 0
        self.outstanding_peak = 0
        #: posts that found the descriptor queue full (host would stall)
        self.queue_stalls = 0
        self.copies = 0
        self.bytes_copied = 0
        self.busy_time = 0.0
        self._next_token = 0

    def begin_copy(self, now: float, nbytes: int) -> tuple[float, int]:
        """Reserve the engine for one copy; returns ``(done, token)``.

        The caller owns the returned queue credit and must retire it via
        :meth:`finish_copy` at (or after) ``done`` — use :meth:`submit`
        unless you are deliberately driving the credit lifecycle.
        """
        if nbytes <= 0:
            raise HardwareError(
                f"{self.direction} copy of non-positive size {nbytes}")
        if self.outstanding >= self.queue_depth:
            self.queue_stalls += 1
        start = now if now > self.busy_until else self.busy_until
        done = start + self.base + nbytes / self.bandwidth
        self.busy_until = done
        self.busy_time += done - start
        self.copies += 1
        self.bytes_copied += nbytes
        self.outstanding += 1
        if self.outstanding > self.outstanding_peak:
            self.outstanding_peak = self.outstanding
        token = self._next_token
        self._next_token += 1
        san = self.sanitizer
        if san is not None:
            san.on_copy_post(self, token, nbytes, now)
        return done, token

    def finish_copy(self, token: int) -> None:
        """Retire one queue credit taken by :meth:`begin_copy`."""
        self.outstanding -= 1
        san = self.sanitizer
        if san is not None:
            san.on_copy_retire(self, token)

    def submit(self, now: float, nbytes: int,
               on_done: Optional[Callable[[], None]] = None) -> float:
        """Post one copy; credit retires itself at completion time.

        Returns the completion time.  ``on_done`` (if given) runs at that
        time, after the credit retires, via the node-ordered event path.
        """
        done, token = self.begin_copy(now, nbytes)
        self.engine.call_at_node(self.node_id, done,
                                 self._complete, token, on_done)
        return done

    def _complete(self, token: int,
                  on_done: Optional[Callable[[], None]]) -> None:
        self.finish_copy(token)
        if on_done is not None:
            on_done()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<CopyEngine {self.direction} gpu{self.gpu_id}"
                f"@node{self.node_id} copies={self.copies} "
                f"outstanding={self.outstanding}>")


class Gpu:
    """One accelerator: device memory + copy engines + kernel slots."""

    def __init__(self, engine: "Engine", config: "MachineConfig",
                 node_id: int, gpu_id: int, sanitizer: Any = None):
        self.engine = engine
        self.config = config
        self.node_id = node_id
        #: machine-wide GPU rank (node-major), used in sanitizer `where`s
        self.gpu_id = gpu_id
        self.sanitizer = sanitizer
        self.memory = NodeMemory(node_id, config.gpu_memory_bytes)
        self.h2d = CopyEngine(engine, node_id, gpu_id, "h2d",
                              config.gpu_copy_base, config.gpu_h2d_bandwidth,
                              config.gpu_copy_queue_depth, sanitizer)
        self.d2h = CopyEngine(engine, node_id, gpu_id, "d2h",
                              config.gpu_copy_base, config.gpu_d2h_bandwidth,
                              config.gpu_copy_queue_depth, sanitizer)
        #: per-slot busy-until times (bounded concurrent kernels)
        self._slots = [0.0] * max(1, config.gpu_kernel_slots)
        self.kernels_launched = 0
        self.kernel_busy_time = 0.0

    # -- device memory -----------------------------------------------------
    def alloc(self, nbytes: int) -> DeviceBuffer:
        """Allocate a device buffer (raises :class:`MemoryError_` on OOM)."""
        buf = DeviceBuffer(self, self.memory.malloc(nbytes), nbytes)
        san = self.sanitizer
        if san is not None:
            san.on_device_alloc(self, buf)
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        """Return a device buffer; misuse reports to the sanitizer first.

        Mirrors :meth:`repro.memory.mempool.MemoryPool.free`: the check
        fires the matching sanitizer hook (when installed) and then
        raises, so chaos tests can observe the violation record and the
        un-sanitized path still fails loudly.
        """
        san = self.sanitizer
        if buf.gpu is not self:
            if san is not None:
                san.on_device_foreign_free(self, buf)
            raise MemoryError_(
                f"freeing {buf!r} on gpu{self.gpu_id}@node{self.node_id}")
        if buf.freed:
            if san is not None:
                san.on_device_double_free(self, buf)
            raise MemoryError_(f"double device free of {buf!r}")
        if san is not None:
            san.on_device_free(self, buf)
        self.memory.free(buf.block)

    # -- kernels -----------------------------------------------------------
    def launch_kernel(self, now: float, duration: float,
                      on_done: Optional[Callable[[], None]] = None) -> float:
        """Occupy one kernel slot for ``duration``; returns completion time.

        Slot choice is deterministic (earliest-free, ties to the lowest
        index), so overlapping launches replay identically.  ``on_done``
        runs at completion via the node-ordered event path.
        """
        if duration < 0:
            raise HardwareError(f"negative kernel duration {duration}")
        slot = min(range(len(self._slots)), key=lambda i: (self._slots[i], i))
        start = now if now > self._slots[slot] else self._slots[slot]
        done = start + duration
        self._slots[slot] = done
        self.kernels_launched += 1
        self.kernel_busy_time += duration
        if on_done is not None:
            self.engine.call_at_node(self.node_id, done, on_done)
        return done

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "device_used": self.memory.used,
            "device_allocs": self.memory.total_allocs,
            "device_frees": self.memory.total_frees,
            "h2d_copies": self.h2d.copies,
            "h2d_bytes": self.h2d.bytes_copied,
            "d2h_copies": self.d2h.copies,
            "d2h_bytes": self.d2h.bytes_copied,
            "copy_stalls": self.h2d.queue_stalls + self.d2h.queue_stalls,
            "kernels": self.kernels_launched,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Gpu {self.gpu_id}@node{self.node_id} "
                f"mem={self.memory.used}/{self.memory.capacity}>")
