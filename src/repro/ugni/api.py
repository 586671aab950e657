"""``GNI_*``-flavoured facade bundling all per-job uGNI state.

A :class:`GniJob` is what a real application gets after
``GNI_CdmCreate``/``GNI_CdmAttach``: a communication domain spanning every
node in the job.  The raw-uGNI reference benchmarks (paper Figs. 1, 4, 6,
9a) and the uGNI machine layer are both written against this object.

Method names mirror the functions the paper lists in §II.B so the protocol
code reads like the original machine layer.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.hardware.machine import Machine
from repro.hardware.memory import MemoryBlock
from repro.ugni.cq import CompletionQueue, CqEntry
from repro.ugni.memreg import MemHandle, RegistrationTables
from repro.ugni.msgq import MsgqFabric, MsgqMessage
from repro.ugni.rdma import PostDescriptor, RdmaEngine
from repro.ugni.smsg import SmsgFabric, SmsgMessage
from repro.ugni.types import PostType


class GniJob:
    """A communication domain over the whole machine."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.registrations = RegistrationTables(machine)
        self.rdma = RdmaEngine(machine, self.registrations)
        self.smsg = SmsgFabric(machine)
        self.msgq = MsgqFabric(machine)

    # -- completion queues ------------------------------------------------------
    def CqCreate(self, capacity: int = 4096, name: str = "") -> CompletionQueue:
        return CompletionQueue(self.machine.engine, capacity, name)

    @staticmethod
    def CqGetEvent(cq: CompletionQueue) -> Optional[CqEntry]:
        return cq.get_event()

    # -- memory -----------------------------------------------------------------
    def MemRegister(
        self,
        block: MemoryBlock,
        length: Optional[int] = None,
        cq: Optional[CompletionQueue] = None,
    ) -> tuple[MemHandle, float]:
        """Register node memory; returns ``(handle, cpu_cost)``."""
        return self.registrations[block.node_id].register(block, length, cq)

    def MemDeregister(self, handle: MemHandle) -> float:
        return self.registrations[handle.node_id].deregister(handle)

    # -- short messages ------------------------------------------------------------
    def SmsgSendWTag(
        self,
        src_pe: int,
        dst_pe: int,
        tag: int,
        nbytes: int,
        payload: Any = None,
    ) -> float:
        return self.smsg.send(src_pe, dst_pe, tag, nbytes, payload)

    def SmsgGetNextWTag(self, pe: int) -> tuple[Optional[SmsgMessage], float]:
        return self.smsg.get_next(pe)

    # -- one-sided ---------------------------------------------------------------
    def PostFma(self, initiator_node: int, desc: PostDescriptor) -> float:
        return self.rdma.post(initiator_node, desc, fma=True)

    def PostRdma(self, initiator_node: int, desc: PostDescriptor) -> float:
        return self.rdma.post(initiator_node, desc, fma=False)

    def PostBest(self, initiator_node: int, desc: PostDescriptor) -> float:
        """Size-aware FMA/BTE selection, the policy from paper §III.C."""
        return self.rdma.post_best(initiator_node, desc)
