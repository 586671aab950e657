"""GNI Short Messages (SMSG): per-peer mailboxes with credit flow control.

SMSG gives the best short-message performance, at a memory cost: every
peer-to-peer connection needs a mailbox on *each* end, allocated and
registered up front, so memory grows linearly with the number of peers a
rank talks to (paper §II.B).  The fabric tracks that footprint against real
node memory — the MSGQ-vs-SMSG memory ablation in the benchmarks reads it
straight from here.

Flow control: a message occupies mailbox credit (its payload plus a header
slot) from send until the receiver consumes it
(:meth:`SmsgFabric.consume`, the copy-out of ``GNI_SmsgGetNextWTag``).  A
send with insufficient credit fails with ``GNI_RC_NOT_DONE`` and the
caller must retry after draining — the machine layer keeps a pending queue
for exactly this.

Receive: the message itself is the arrival (no completion event is made
per message).  A landed message goes to the fabric's one consumer,
:attr:`SmsgFabric.on_rx`, which takes it out of the mailbox with
:meth:`SmsgFabric.consume`; an arrival with no consumer set is a
:class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.errors import SimulationError, UgniInvalidParam, UgniNoSpace
from repro.hardware.machine import Machine

#: per-message mailbox header (sequence, tag, length fields)
SMSG_HEADER = 32


@dataclass(slots=True)
class SmsgMessage:
    """One short message in flight or landed, until it is consumed."""

    src_pe: int
    dst_pe: int
    tag: int
    nbytes: int
    payload: Any = None
    #: the id of the mailbox pair it travels on and holds credit in (set
    #: by :meth:`SmsgFabric.send`), so arrival and dequeue look nothing up
    conn: int = field(default=-1, repr=False, compare=False)

    @property
    def credit(self) -> int:
        return self.nbytes + SMSG_HEADER


class SmsgFabric:
    """All SMSG connections of one job and the consumer of their arrivals.

    A connection — one direction of a mailbox pair, ``src_pe -> dst_pe``
    — is a dense id given on first touch; its state is the credit it holds,
    a row of an int64 column.  Everything else about a pair is looked up
    from the PEs when needed (their nodes).
    """

    def __init__(self, machine: Machine):
        self.machine = machine
        self.config = machine.config
        self.n_pes = machine.n_pes
        n_nodes = machine.n_nodes
        #: job-size-dependent max payload (paper §III.C)
        self.max_size = self.config.smsg_max_size(n_nodes)
        self.mailbox_bytes = self.config.smsg_mailbox_footprint(n_nodes) * 8
        #: connection id by pair, packed ``src_pe * n_pes + dst_pe``
        self._conn: dict[int, int] = {}
        #: mailbox credit held per connection id (bytes)
        self._credits = array("q")
        #: the one consumer of every arrival, called with the message: its
        #: owner sets it and calls :meth:`consume`; the default refuses an
        #: arrival nobody takes
        self.on_rx: Callable[[SmsgMessage], None] = self._unconsumed
        #: mailbox memory held per node id (bytes), for the footprint
        #: ablation
        self.mailbox_memory_per_node = array("q", bytes(8 * n_nodes))
        #: the observer's labels, built on a connection's or a receiving
        #: PE's first observed message (empty with no observer)
        self._tx_labels: dict[int, str] = {}
        self._rx_labels: dict[int, str] = {}
        #: messages sent and consumed
        self.sent = 0
        self.consumed = 0
        #: fault-injection counters (fabric-wide)
        self.dropped = 0
        self.stalled = 0
        san = machine.sanitizer
        if san is not None:
            san.register_fabric(self)

    # -- setup ---------------------------------------------------------------
    def connection(self, src_pe: int, dst_pe: int) -> int:
        """The id of the mailbox pair for this direction, made if need be.

        Creation charges mailbox memory to both endpoints' nodes, which is
        the linear-growth cost the paper contrasts with MSGQ.
        """
        machine = self.machine
        src_node = machine.node_of_pe(src_pe)
        dst_node = machine.node_of_pe(dst_pe)
        key = src_pe * self.n_pes + dst_pe
        conn = self._conn.get(key)
        if conn is None:
            conn = self._conn[key] = len(self._credits)
            self._credits.append(0)
            memory = self.mailbox_memory_per_node
            memory[src_node.node_id] += self.mailbox_bytes
            memory[dst_node.node_id] += self.mailbox_bytes
        return conn

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        """``(src_pe, dst_pe, credit held)`` per connection made."""
        credits, n = self._credits, self.n_pes
        for key, conn in self._conn.items():
            src, dst = divmod(key, n)
            yield src, dst, credits[conn]

    @property
    def total_mailbox_memory(self) -> int:
        return sum(self.mailbox_memory_per_node)

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
        :class:`UgniInvalidParam` for payloads over :attr:`max_size` or
        below zero (zero is a header-only message).
        """
        if not 0 <= nbytes <= self.max_size:
            raise UgniInvalidParam(
                f"SMSG payload {nbytes} outside 0..{self.max_size}")
        if src_pe == dst_pe:
            raise UgniInvalidParam("SMSG to self is not a thing; use the scheduler")
        n = self.n_pes
        conn = (self._conn.get(src_pe * n + dst_pe)
                if 0 <= src_pe < n and 0 <= dst_pe < n else None)
        if conn is None:
            conn = self.connection(src_pe, dst_pe)
        need = nbytes + SMSG_HEADER
        credits = self._credits
        held = credits[conn]
        if held + need > self.mailbox_bytes:
            raise UgniNoSpace(
                f"SMSG mailbox {src_pe}->{dst_pe} out of credits "
                f"({held}/{self.mailbox_bytes})"
            )
        credits[conn] = held + need
        self.sent += 1
        msg = SmsgMessage(src_pe, dst_pe, tag, nbytes, payload, conn)
        machine = self.machine
        san = machine.sanitizer
        if san is not None:
            san.on_smsg_send(msg)
        obs = machine.observer
        if obs is not None:
            label = self._tx_labels.get(conn)
            if label is None:
                label = self._tx_labels[conn] = f"smsg[{src_pe}->{dst_pe}]"
            obs.on_tx(msg, "smsg", nbytes, label,
                      at if at is not None else machine.engine.now)
        pe_node = machine._pe_node
        src_node = pe_node[src_pe]
        dst_node = pe_node[dst_pe]
        if src_node is dst_node:
            return src_node.nic.loopback_send(need, self._arrive, msg, at=at)

        faults = machine.faults
        if faults is not None:
            if faults.smsg_delivery_fails(src_pe, dst_pe):
                self.dropped += 1

                def on_drop(t: float, msg=msg) -> None:
                    # the fabric ate it: the receiver never sees an arrival;
                    # mailbox credit is reclaimed when the delivery attempt
                    # resolves, so the sender's flow control stays sound
                    self._release_credit(msg)
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
        """The last byte landed in the receiver's mailbox: mark it for the
        sanitizer and the observer, then hand it to the consumer."""
        machine = self.machine
        san = machine.sanitizer
        if san is not None:
            san.on_smsg_arrive(msg)
        obs = machine.observer
        if obs is not None:
            label = self._rx_labels.get(msg.dst_pe)
            if label is None:
                label = self._rx_labels[msg.dst_pe] = f"smsg_rx[{msg.dst_pe}]"
            obs.on_arrive(msg, label, t)
        self.on_rx(msg)

    def _unconsumed(self, msg: SmsgMessage) -> None:
        raise SimulationError(
            f"SMSG {msg.src_pe}->{msg.dst_pe} arrived and nothing consumes "
            f"it (set SmsgFabric.on_rx)")

    def _release_credit(self, msg: SmsgMessage) -> None:
        credits = self._credits
        credits[msg.conn] -= msg.nbytes + SMSG_HEADER
        assert credits[msg.conn] >= 0, "SMSG credit accounting went negative"

    def consume(self, msg: SmsgMessage) -> float:
        """The receiver takes ``msg`` out of its mailbox: returns its CPU
        seconds.

        Releases the mailbox credit and charges the receive plus the
        copy-out of the payload from the mailbox into runtime memory (the
        copy the paper's Figure 5 shows as "copies out the messages and
        hands off ... to Converse").  Every receive goes through here.
        """
        # _release_credit, inlined
        credits = self._credits
        held = credits[msg.conn] - (msg.nbytes + SMSG_HEADER)
        assert held >= 0, "SMSG credit accounting went negative"
        credits[msg.conn] = held
        self.consumed += 1
        san = self.machine.sanitizer
        if san is not None:
            san.on_smsg_consume(msg)
        cfg = self.config
        # smsg_recv_cpu + cfg.t_memcpy(nbytes), the copy-out inlined
        return cfg.smsg_recv_cpu + (cfg.memcpy_base
                                    + msg.nbytes / cfg.memcpy_bandwidth)

    # -- introspection ---------------------------------------------------------
    def in_flight(self) -> int:
        """Messages sent but not yet consumed by a receiver.

        Fault-dropped deliveries never reach a receiver, so they are
        excluded — after quiescence this must return zero even under
        injected loss (the chaos tests' conservation invariant).
        """
        return self.sent - self.dropped - self.consumed

    def credits_used(self) -> int:
        """Mailbox credit held across every connection (bytes): zero once
        every message sent has been consumed or dropped."""
        return sum(self._credits)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<SmsgFabric conns={len(self._conn)} "
            f"max={self.max_size} mailbox_mem={self.total_mailbox_memory}>"
        )
