"""Memory registration (``GNI_MemRegister`` / ``GNI_MemDeregister``).

On Gemini, memory must be registered (pinned + mapped into the NIC's MDD
table) before any FMA/BTE transaction can touch it.  Registration is the
expensive operation — base cost plus a per-page pinning cost — and Eq. 1 of
the paper charges ``2 × (Tmalloc + Tregister)`` to every unoptimized
large-message send.  The memory pool exists to pay this cost once.

The table tracks registered intervals per node and validates every RDMA
against them, so protocol bugs (using freed or never-registered buffers)
fail loudly in tests instead of silently "working" in a simulation.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import UgniInvalidParam, UgniNotRegistered
from repro.hardware.config import MachineConfig
from repro.hardware.memory import MemoryBlock


class MemHandle:
    """A registration handle covering ``[addr, addr+length)`` on a node."""

    __slots__ = ("node_id", "addr", "length", "valid", "cq")

    def __init__(self, node_id: int, addr: int, length: int, cq=None):
        self.node_id = node_id
        self.addr = addr
        self.length = length
        #: False after deregistration
        self.valid = True
        #: optional CQ that receives REMOTE_DATA events for PUTs into this
        #: region (GNI_MemRegister's dst_cq argument)
        self.cq = cq

    @property
    def end(self) -> int:
        return self.addr + self.length

    def covers(self, addr: int, nbytes: int) -> bool:
        return self.valid and self.addr <= addr and addr + nbytes <= self.end

    def __repr__(self) -> str:  # pragma: no cover
        state = "valid" if self.valid else "deregistered"
        return f"<MemHandle node={self.node_id} [{self.addr:#x}+{self.length}] {state}>"


class RegistrationTable:
    """All registered regions on one node."""

    def __init__(self, node_id: int, config: MachineConfig, sanitizer=None):
        self.node_id = node_id
        self.config = config
        #: lifecycle sanitizer observer (None = zero-cost fast path)
        self._san = sanitizer
        self._handles: set[MemHandle] = set()
        self.registered_bytes = 0
        #: lifetime counters (EXPERIMENTS.md reports these for ablations)
        self.total_registrations = 0
        self.total_deregistrations = 0

    # -- API -----------------------------------------------------------------
    def register(self, block: MemoryBlock,
                 cq=None) -> tuple[MemHandle, float]:
        """``GNI_MemRegister`` of the whole block: ``(handle, cpu_cost)``."""
        if block.freed:
            raise UgniInvalidParam(f"registering freed block {block!r}")
        if block.node_id != self.node_id:
            raise UgniInvalidParam(
                f"registering node-{block.node_id} memory on node {self.node_id}"
            )
        length = block.size
        handle = MemHandle(self.node_id, block.addr, length, cq=cq)
        self._handles.add(handle)
        self.registered_bytes += length
        self.total_registrations += 1
        if self._san is not None:
            self._san.on_register(handle)
        return handle, self.config.t_register(length)

    def deregister(self, handle: MemHandle) -> float:
        """``GNI_MemDeregister``: invalidates the handle, returns cpu cost."""
        if not handle.valid:
            if self._san is not None:
                # record the double-deregister before the loud failure
                self._san.on_deregister(handle)
            raise UgniInvalidParam(f"double deregistration of {handle!r}")
        if handle not in self._handles:
            raise UgniInvalidParam(f"{handle!r} not registered on node {self.node_id}")
        if self._san is not None:
            self._san.on_deregister(handle)
        handle.valid = False
        self._handles.discard(handle)
        self.registered_bytes -= handle.length
        self.total_deregistrations += 1
        return self.config.t_deregister(handle.length)

    # -- validation (used by the RDMA engine) ------------------------------------
    def check(self, handle: MemHandle, addr: int, nbytes: int) -> None:
        """Raise unless ``[addr, addr+nbytes)`` is covered by ``handle``."""
        if handle.node_id != self.node_id:
            raise UgniNotRegistered(
                f"handle is for node {handle.node_id}, checked on {self.node_id}"
            )
        if not handle.valid:
            raise UgniNotRegistered(f"transaction against deregistered {handle!r}")
        if addr < handle.addr or addr + nbytes > handle.addr + handle.length:
            raise UgniNotRegistered(
                f"[{addr:#x}+{nbytes}] outside registered {handle!r}"
            )

    def __len__(self) -> int:
        return len(self._handles)


class RegistrationTables(dict):
    """``node id -> RegistrationTable`` for one job, built on first touch.

    Indexing is the touch: a node that never registers memory and is
    never the target of a transaction has no table.  The job's one way to
    make and unmake registered memory is :meth:`malloc_registered` /
    :meth:`free_registered`.
    """

    __slots__ = ("_machine",)

    def __init__(self, machine):
        self._machine = machine

    def __missing__(self, node_id: int) -> RegistrationTable:
        machine = self._machine
        if not 0 <= node_id < machine.n_nodes:
            raise KeyError(node_id)
        table = self[node_id] = RegistrationTable(
            node_id, machine.config, sanitizer=machine.sanitizer)
        return table

    def malloc_registered(
        self, node_id: int, nbytes: int, why: Optional[str] = None,
    ) -> tuple[MemoryBlock, MemHandle, float]:
        """Allocate + register in one step: ``(block, handle, cpu)``.

        ``cpu`` is precisely the ``Tmalloc + Tregister`` pair of the
        paper's Eq. 1.  ``why`` marks the region long-lived with the
        sanitizer (rooted: not a leak at quiescence).
        """
        machine = self._machine
        block = machine.nodes[node_id].memory.malloc(nbytes)
        handle, reg_cost = self[node_id].register(block)
        if why is not None and machine.sanitizer is not None:
            machine.sanitizer.root_region(handle, why)
        return block, handle, machine.config.t_malloc(nbytes) + reg_cost

    def free_registered(self, block: MemoryBlock, handle: MemHandle) -> float:
        """Deregister + free a :meth:`malloc_registered` block; returns cpu."""
        machine = self._machine
        cost = self[handle.node_id].deregister(handle)
        machine.nodes[block.node_id].memory.free(block)
        return cost + machine.config.t_free(block.size)
