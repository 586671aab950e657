"""MSGQ: the per-node shared message queue (the scalable SMSG alternative).

Setup is per-node rather than per-peer, so mailbox memory grows with the
number of *nodes* in the job instead of the number of peer connections —
the scalability advantage the paper describes — at the price of worse
latency (extra mutex/ordering work on the shared queue) and a smaller
maximum payload (paper §II.B).

A message holds its node's queue space until consumed; a full queue
fails the send with :class:`UgniNoSpace` (``GNI_RC_NOT_DONE``) and the
caller retries.  Arrivals go to the one consumer :attr:`MsgqFabric.on_rx`.

The paper's runtime chooses SMSG; we implement MSGQ as well so the
SMSG-vs-MSGQ memory/latency trade-off can be measured (see the
``ablation_msgq`` benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import SimulationError, UgniInvalidParam, UgniNoSpace
from repro.hardware.machine import Machine

MSGQ_HEADER = 32


@dataclass
class MsgqMessage:
    src_pe: int
    dst_pe: int
    tag: int
    nbytes: int
    payload: Any = None


class MsgqFabric:
    """Per-node shared receive queues and the consumer of their arrivals."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.config = machine.config
        self.max_size = self.config.msgq_max_bytes
        self.node_queue_bytes = self.config.msgq_node_bytes
        if self.node_queue_bytes < self.max_size + MSGQ_HEADER:
            # a full queue could never take its largest message
            raise ValueError(
                f"msgq_node_bytes must hold one {self.max_size} B message "
                f"and its {MSGQ_HEADER} B header, got {self.node_queue_bytes}")
        #: per destination node touched: bytes of queue space in use
        self._in_use: dict[int, int] = {}
        #: the one consumer of every arrival: its owner sets it and calls
        #: :meth:`consume`; the default refuses an arrival nobody takes
        self.on_rx: Callable[[MsgqMessage], None] = self._unconsumed
        #: the observer's label per receiving node, built on its first
        #: observed arrival
        self._rx_labels: dict[int, str] = {}
        self.consumed = 0
        self.sent = 0

    @property
    def total_queue_memory(self) -> int:
        """Total MSGQ backing memory: one fixed region per node touched."""
        return len(self._in_use) * self.node_queue_bytes

    def send(
        self,
        src_pe: int,
        dst_pe: int,
        tag: int,
        nbytes: int,
        payload: Any = None,
        at: Optional[float] = None,
    ) -> float:
        """``GNI_MsgqSend``: returns sender CPU seconds."""
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
        # shared-queue send pays the extra synchronization cost up front
        extra = self.config.msgq_send_cpu - self.config.smsg_send_cpu
        if src_node.node_id == dst_node.node_id:
            return extra + src_node.nic.loopback_send(need, self._arrive, msg,
                                                      at=at)
        return extra + src_node.nic.smsg_send(dst_node, need, self._arrive,
                                              msg, at=at)

    def _arrive(self, t: float, msg: MsgqMessage) -> None:
        """The message landed in its node's queue: mark it for the
        observer, then hand it to the consumer."""
        obs = self.machine.observer
        if obs is not None:
            node_id = self.machine.node_of_pe(msg.dst_pe).node_id
            label = self._rx_labels.get(node_id)
            if label is None:
                label = self._rx_labels[node_id] = f"msgq_rx[n{node_id}]"
            obs.on_arrive(msg, label, t)
        self.on_rx(msg)

    def _unconsumed(self, msg: MsgqMessage) -> None:
        raise SimulationError(
            f"MSGQ message {msg.src_pe}->{msg.dst_pe} arrived and nothing "
            f"consumes it (set MsgqFabric.on_rx)")

    def consume(self, msg: MsgqMessage) -> float:
        """The receiver takes ``msg`` out of its node's queue: frees its
        queue space and returns the receive plus copy-out CPU seconds."""
        node_id = self.machine.node_of_pe(msg.dst_pe).node_id
        self._in_use[node_id] -= msg.nbytes + MSGQ_HEADER
        self.consumed += 1
        cfg = self.config
        return cfg.msgq_recv_cpu + cfg.t_memcpy(msg.nbytes)

    def in_flight(self) -> int:
        return self.sent - self.consumed
