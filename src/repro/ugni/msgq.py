"""MSGQ: the per-node shared message queue (the scalable SMSG alternative).

Setup is per-node rather than per-peer, so mailbox memory grows with the
number of *nodes* in the job instead of the number of peer connections —
the scalability advantage the paper describes — at the price of worse
latency (extra mutex/ordering work on the shared queue) and a smaller
maximum payload (paper §II.B).

The paper's runtime chooses SMSG; we implement MSGQ as well so the
SMSG-vs-MSGQ memory/latency trade-off can be measured (see the
``ablation_msgq`` benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import TopologyError, UgniInvalidParam, UgniNoSpace
from repro.hardware.machine import Machine
from repro.ugni.cq import CompletionQueue, CqEntry
from repro.ugni.types import CqEventKind

MSGQ_HEADER = 32


@dataclass
class MsgqMessage:
    src_pe: int
    dst_pe: int
    tag: int
    nbytes: int
    payload: Any = None


class MsgqFabric:
    """Per-node shared receive queues."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.config = machine.config
        self.max_size = self.config.msgq_max_bytes
        #: per destination node: bytes of queue space in use
        self._in_use: dict[int, int] = {}
        self.node_queue_bytes = self.config.msgq_node_bytes
        self._rx_cqs: dict[int, CompletionQueue] = {}
        self.consumed = 0
        self.sent = 0

    def rx_cq(self, node_id: int) -> CompletionQueue:
        """The *node-level* RX CQ shared by all PEs of that node."""
        cq = self._rx_cqs.get(node_id)
        if cq is None:
            cq = CompletionQueue(self.machine.engine, name=f"msgq_rx[n{node_id}]")
            self._rx_cqs[node_id] = cq
        return cq

    @property
    def total_queue_memory(self) -> int:
        """Total MSGQ backing memory: one fixed region per node touched."""
        return len(self._rx_cqs) * self.node_queue_bytes

    def send(
        self,
        src_pe: int,
        dst_pe: int,
        tag: int,
        nbytes: int,
        payload: Any = None,
        at: Optional[float] = None,
    ) -> float:
        """Send through the shared queue; returns sender CPU seconds."""
        if not 0 <= nbytes <= self.max_size:
            raise UgniInvalidParam(
                f"MSGQ payload {nbytes} outside 0..{self.max_size}")
        dst_node = self.machine.node_of_pe(dst_pe)
        src_node = self.machine.node_of_pe(src_pe)
        need = nbytes + MSGQ_HEADER
        used = self._in_use.get(dst_node.node_id, 0)
        if used + need > self.node_queue_bytes:
            raise UgniNoSpace(f"MSGQ on node {dst_node.node_id} full")
        self._in_use[dst_node.node_id] = used + need
        self.sent += 1
        msg = MsgqMessage(src_pe, dst_pe, tag, nbytes, payload)
        cq = self.rx_cq(dst_node.node_id)

        def on_arrive(t: float) -> None:
            cq.push(CqEntry(CqEventKind.MSGQ_ARRIVAL, t, tag=tag, data=msg,
                            source=src_pe))

        # shared-queue send pays the extra synchronization cost up front
        extra = self.config.msgq_send_cpu - self.config.smsg_send_cpu
        if src_node.node_id == dst_node.node_id:
            return extra + src_node.nic.loopback_send(need, on_arrive, at=at)
        return extra + src_node.nic.smsg_send(dst_node, need, on_arrive, at=at)

    def get_next(self, node_id: int) -> tuple[Optional[MsgqMessage], float]:
        """Dequeue one message from the node's shared queue.

        A node off the machine is a :class:`TopologyError`; polling a node
        that never received costs one poll and makes no queue.
        """
        cfg = self.config
        if not 0 <= node_id < self.machine.n_nodes:
            raise TopologyError(f"node {node_id} is not on the machine")
        cq = self._rx_cqs.get(node_id)
        entry = cq.get_event() if cq is not None else None
        if entry is None:
            return None, cfg.cq_poll_cpu
        msg: MsgqMessage = entry.data
        self._in_use[node_id] -= msg.nbytes + MSGQ_HEADER
        self.consumed += 1
        return msg, cfg.msgq_recv_cpu + cfg.t_memcpy(msg.nbytes)

    def in_flight(self) -> int:
        return self.sent - self.consumed
