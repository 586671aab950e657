"""``GNI_*``-flavoured facade bundling all per-job uGNI state.

A :class:`GniJob` is what a real application gets after
``GNI_CdmCreate``/``GNI_CdmAttach``: a communication domain spanning every
node in the job.  The raw-uGNI reference benchmarks (paper Figs. 1, 4, 6,
9a) and the uGNI machine layer are both written against this object.

The fabrics are its attributes (``smsg``, ``msgq``, ``rdma``,
``registrations``).  Each fabric has one consumer of its arrivals or
completions (``on_rx`` / ``on_complete``), which the job's user sets
before the first send.  Memory registration keeps its
``GNI_MemRegister`` / ``GNI_MemDeregister`` names.
"""

from __future__ import annotations

from repro.hardware.machine import Machine
from repro.hardware.memory import MemoryBlock
from repro.ugni.memreg import MemHandle, RegistrationTables
from repro.ugni.msgq import MsgqFabric
from repro.ugni.rdma import RdmaEngine
from repro.ugni.smsg import SmsgFabric


class GniJob:
    """A communication domain over the whole machine."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.registrations = RegistrationTables(machine)
        self.rdma = RdmaEngine(machine, self.registrations)
        self.smsg = SmsgFabric(machine)
        self.msgq = MsgqFabric(machine)

    # -- memory -----------------------------------------------------------------
    def MemRegister(self, block: MemoryBlock) -> tuple[MemHandle, float]:
        """Register a whole block; returns ``(handle, cpu_cost)``."""
        return self.registrations[block.node_id].register(block)

    def MemDeregister(self, handle: MemHandle) -> float:
        return self.registrations[handle.node_id].deregister(handle)
