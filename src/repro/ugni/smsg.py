"""GNI Short Messages (SMSG): per-peer mailboxes with credit flow control.

SMSG gives the best short-message performance, at a memory cost: every
peer-to-peer connection needs a mailbox on *each* end, allocated and
registered up front, so memory grows linearly with the number of peers a
rank talks to (paper §II.B).  The fabric tracks that footprint against real
node memory — the MSGQ-vs-SMSG memory ablation in the benchmarks reads it
straight from here.

Flow control: a message occupies mailbox credit (its payload plus a header
slot) from send until the receiver dequeues it with
``GNI_SmsgGetNextWTag``.  A send with insufficient credit fails with
``GNI_RC_NOT_DONE`` and the caller must retry after draining — the machine
layer keeps a pending queue for exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import UgniInvalidParam, UgniNoSpace
from repro.hardware.machine import Machine
from repro.ugni.cq import CompletionQueue, CqEntry
from repro.ugni.types import CqEventKind

#: per-message mailbox header (sequence, tag, length fields)
SMSG_HEADER = 32


@dataclass(slots=True)
class SmsgMessage:
    """One short message in flight or in a mailbox."""

    src_pe: int
    dst_pe: int
    tag: int
    nbytes: int
    payload: Any = None
    #: the mailbox pair it travels on and holds credit in (set by
    #: :meth:`SmsgFabric.send`), so arrival and dequeue look nothing up
    conn: Optional[SmsgConnection] = field(
        default=None, repr=False, compare=False)

    @property
    def credit(self) -> int:
        return self.nbytes + SMSG_HEADER


class SmsgConnection:
    """One direction of a mailbox pair: ``src_pe -> dst_pe``.

    Everything :meth:`SmsgFabric.send` needs per message and that is fixed
    for the life of the pair lives here, looked up once at creation: both
    endpoint nodes and the receiver's CQ.  The observer's label is built by
    the first observed send and kept (``None`` until then).
    """

    __slots__ = ("fabric", "src_pe", "dst_pe", "src_node", "dst_node",
                 "rx_cq", "label", "mailbox_bytes", "credits_used", "sent",
                 "delivered", "dropped")

    def __init__(self, fabric: "SmsgFabric", src_pe: int, dst_pe: int):
        self.fabric = fabric
        self.src_pe = src_pe
        self.dst_pe = dst_pe
        self.src_node = fabric.machine.node_of_pe(src_pe)
        self.dst_node = fabric.machine.node_of_pe(dst_pe)
        self.rx_cq = fabric.rx_cq(dst_pe)
        self.label: Optional[str] = None
        self.mailbox_bytes = fabric.mailbox_bytes
        self.credits_used = 0
        self.sent = 0
        self.delivered = 0
        #: deliveries eaten by the fault injector (credit was reclaimed)
        self.dropped = 0

    def take_credit(self, nbytes: int) -> None:
        self.credits_used += nbytes + SMSG_HEADER

    def release_credit(self, nbytes: int) -> None:
        self.credits_used -= nbytes + SMSG_HEADER
        assert self.credits_used >= 0, "SMSG credit accounting went negative"


class SmsgFabric:
    """All SMSG connections and per-PE receive queues for one job."""

    def __init__(self, machine: Machine, n_pes: Optional[int] = None):
        self.machine = machine
        self.config = machine.config
        self.n_pes = machine.n_pes if n_pes is None else n_pes
        n_nodes = machine.n_nodes
        #: job-size-dependent max payload (paper §III.C)
        self.max_size = self.config.smsg_max_size(n_nodes)
        self.mailbox_bytes = self.config.smsg_mailbox_footprint(n_nodes) * 8
        self._connections: dict[tuple[int, int], SmsgConnection] = {}
        #: per-PE RX completion queue (created lazily)
        self._rx_cqs: dict[int, CompletionQueue] = {}
        #: ``on_event`` of every RX CQ created from now on, or ``None``: a
        #: machine layer sets this once, to one callable that reads the
        #: receiving PE off ``cq.pe``
        self.on_rx: Optional[Callable[[CompletionQueue], None]] = None
        #: mailbox memory held per node (bytes), for the footprint ablation
        self.mailbox_memory_per_node: dict[int, int] = {}
        #: total messages dequeued via :meth:`get_next`
        self.consumed = 0
        #: fault-injection counters (fabric-wide)
        self.dropped = 0
        self.stalled = 0
        san = machine.sanitizer
        if san is not None:
            san.register_fabric(self)

    # -- setup ---------------------------------------------------------------
    def rx_cq(self, pe: int) -> CompletionQueue:
        cq = self._rx_cqs.get(pe)
        if cq is None:
            cq = CompletionQueue(self.machine.engine, name=f"smsg_rx[{pe}]",
                                 pe=pe)
            cq.on_event = self.on_rx
            self._rx_cqs[pe] = cq
        return cq

    def connection(self, src_pe: int, dst_pe: int) -> SmsgConnection:
        """Get or lazily create the mailbox pair for this direction.

        Creation charges mailbox memory to both endpoints' nodes, which is
        the linear-growth cost the paper contrasts with MSGQ.
        """
        key = (src_pe, dst_pe)
        conn = self._connections.get(key)
        if conn is None:
            conn = SmsgConnection(self, src_pe, dst_pe)
            self._connections[key] = conn
            for node in (conn.src_node, conn.dst_node):
                nid = node.node_id
                self.mailbox_memory_per_node[nid] = (
                    self.mailbox_memory_per_node.get(nid, 0) + self.mailbox_bytes
                )
        return conn

    @property
    def total_mailbox_memory(self) -> int:
        return sum(self.mailbox_memory_per_node.values())

    # -- data path ---------------------------------------------------------------
    def send(
        self,
        src_pe: int,
        dst_pe: int,
        tag: int,
        nbytes: int,
        payload: Any = None,
        at: Optional[float] = None,
    ) -> float:
        """``GNI_SmsgSendWTag``: returns sender CPU seconds.

        Raises :class:`UgniNoSpace` when the mailbox is out of credits and
        :class:`UgniInvalidParam` for payloads over :attr:`max_size`.
        """
        if nbytes > self.max_size:
            raise UgniInvalidParam(
                f"SMSG payload {nbytes} exceeds max {self.max_size}"
            )
        if src_pe == dst_pe:
            raise UgniInvalidParam("SMSG to self is not a thing; use the scheduler")
        conn = self._connections.get((src_pe, dst_pe))
        if conn is None:
            conn = self.connection(src_pe, dst_pe)
        need = nbytes + SMSG_HEADER
        # the credit check and take_credit, inlined
        if conn.credits_used + need > conn.mailbox_bytes:
            raise UgniNoSpace(
                f"SMSG mailbox {src_pe}->{dst_pe} out of credits "
                f"({conn.credits_used}/{conn.mailbox_bytes})"
            )
        conn.credits_used += need
        conn.sent += 1
        msg = SmsgMessage(src_pe, dst_pe, tag, nbytes, payload, conn)
        machine = self.machine
        san = machine.sanitizer
        if san is not None:
            san.on_smsg_send(msg)
        obs = machine.observer
        if obs is not None:
            label = conn.label
            if label is None:
                label = conn.label = f"smsg[{src_pe}->{dst_pe}]"
            obs.on_tx(msg, "smsg", nbytes, label,
                      at if at is not None else machine.engine.now)
        src_node = conn.src_node
        dst_node = conn.dst_node
        if src_node is dst_node:
            return src_node.nic.loopback_send(need, self._arrive, msg, at=at)

        faults = machine.faults
        if faults is not None:
            if faults.smsg_delivery_fails(src_pe, dst_pe):
                conn.dropped += 1
                self.dropped += 1

                def on_drop(t: float, msg=msg) -> None:
                    # the fabric ate it: the receiver never sees an arrival;
                    # mailbox credit is reclaimed when the delivery attempt
                    # resolves, so the sender's flow control stays sound
                    msg.conn.release_credit(msg.nbytes)
                    if san is not None:
                        san.on_smsg_drop(msg)

                return src_node.nic.smsg_send(dst_node, need, on_drop, at=at)
            stall = faults.smsg_stall_delay(src_pe, dst_pe)
            if stall > 0.0:
                self.stalled += 1

                def on_stall(t: float, msg=msg, stall=stall) -> None:
                    # credit stall: the message (and its mailbox credit)
                    # sits in the fabric before the receiver sees it
                    self.machine.engine.call_at(t + stall, self._arrive,
                                                t + stall, msg)

                return src_node.nic.smsg_send(dst_node, need, on_stall, at=at)

        return src_node.nic.smsg_send(dst_node, need, self._arrive, msg,
                                      at=at)

    def _arrive(self, t: float, msg: SmsgMessage) -> None:
        """The last byte landed: post the arrival on the receiver's CQ."""
        conn = msg.conn
        conn.delivered += 1
        conn.rx_cq.push(CqEntry(CqEventKind.SMSG_ARRIVAL, t, msg.tag, msg,
                                msg.src_pe))

    def get_next(self, pe: int) -> tuple[Optional[SmsgMessage], float]:
        """``GNI_SmsgGetNextWTag``: ``(message_or_None, consumer_cpu)``.

        Dequeues one arrival from the PE's RX CQ, releases mailbox credit,
        and charges the CQ poll plus the copy-out of the payload from the
        mailbox into runtime memory (the copy the paper's Figure 5 shows as
        "copies out the messages and hands off ... to Converse").
        """
        cfg = self.config
        cq = self._rx_cqs.get(pe)
        if cq is None:
            cq = self.rx_cq(pe)
        # cq.get_event, inlined, until an arrival comes up: overrun
        # markers and other ERROR entries are not messages; drain past
        # them so the one-event-one-message protocol stays in step
        entries = cq._entries
        san = self.machine.sanitizer
        while True:
            if not entries:
                return None, cfg.cq_poll_cpu
            entry = entries.pop(0)
            if san is not None:
                san.on_cq_pop(cq, entry)
            if entry.kind is CqEventKind.SMSG_ARRIVAL:
                break
        msg: SmsgMessage = entry.data
        # release_credit, inlined
        conn = msg.conn
        conn.credits_used -= msg.nbytes + SMSG_HEADER
        assert conn.credits_used >= 0, "SMSG credit accounting went negative"
        self.consumed += 1
        if san is not None:
            san.on_smsg_consume(msg)
        # smsg_recv_cpu + cfg.t_memcpy(nbytes), the copy-out inlined
        cpu = cfg.smsg_recv_cpu + (cfg.memcpy_base
                                   + msg.nbytes / cfg.memcpy_bandwidth)
        return msg, cpu

    # -- introspection ---------------------------------------------------------
    def in_flight(self) -> int:
        """Messages sent but not yet dequeued by a receiver.

        Fault-dropped deliveries never reach a receiver, so they are
        excluded — after quiescence this must return zero even under
        injected loss (the chaos tests' conservation invariant).
        """
        return (sum(c.sent - c.dropped for c in self._connections.values())
                - self.consumed)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<SmsgFabric conns={len(self._connections)} "
            f"max={self.max_size} mailbox_mem={self.total_mailbox_memory}>"
        )
