"""Network links with bandwidth serialization.

Contention model: each directed link keeps an ``available_at`` horizon.  A
transfer crossing the link waits until the link is free, then occupies it
for ``nbytes / bandwidth``.  This is a *flow-level* model (no per-packet
simulation): cheap enough to run hundreds of thousands of messages, while
still making hot links — the one-to-all root's ejection link, kNeighbor's
shared paths — serialize the way the paper's measurements show.

Link state is held in typed columns, a row per link (:class:`LinkTable`),
owned by the network; a :class:`Link` is a view of one row.
"""

from __future__ import annotations

from array import array
from typing import Sequence

#: bandwidth multiplier while a link is hard-down: traffic that cannot
#: route around the fault still trickles through via link-level hardware
#: resend (Gemini's adaptive-routing recovery), heavily penalized.  Keeps
#: the flow model deadlock-free when every minimal direction is faulted.
DOWN_BANDWIDTH_FACTOR = 0.02
#: extra per-traversal latency of a faulted (down or degraded) link —
#: models the hardware retransmit/CRC-retry round trips
FAULT_LATENCY = 2.5e-6


class Fault:
    """The fault state of one link a fault has named.  Kept from the first
    fault on: the counters outlive a restore."""

    __slots__ = ("state", "degrade_factor", "faults", "faulted_transfers")

    def __init__(self) -> None:
        #: "up" | "degraded" | "down"
        self.state = "up"
        #: bandwidth multiplier while degraded
        self.degrade_factor = 1.0
        #: lifetime fault transitions and transfers carried while faulted
        self.faults = 0
        self.faulted_transfers = 0


class LinkTable:
    """The state of a set of links as typed columns, a row per link.

    ``horizons`` holds ``lanes`` horizons per row (when each lane is next
    free), ``bytes_carried`` and ``transfers`` are int64 counters.  The
    links of a table share one bandwidth; row ``r`` has latency
    ``latency[r % len(latency)]`` — per slot of a vertex for router links,
    whose rows are ``vertex * fan_out + slot``, one value for NIC ports
    (a row per vertex) and for a stand-alone link.

    The columns are allocated at full size once and never resized: the
    compiled router lane writes through their buffers.  Fault state exists
    only for rows a fault has named (``faults``); ``sick`` is the rows not
    "up", and while any is, the compiled lane hands the whole transfer to
    the network's Python body, whose every reserve is :meth:`reserve`.
    """

    __slots__ = ("bandwidth", "latency", "lanes", "horizons",
                 "bytes_carried", "transfers", "faults", "sick")

    def __init__(self, rows: int, bandwidth: float, latency: Sequence[float],
                 lanes: int = 1):
        lanes = max(1, lanes)
        self.bandwidth = bandwidth
        self.latency = array("d", latency)
        self.lanes = lanes
        self.horizons = array("d", bytes(8 * rows * lanes))
        self.bytes_carried = array("q", bytes(8 * rows))
        self.transfers = array("q", bytes(8 * rows))
        self.faults: dict[int, Fault] = {}
        self.sick: set[int] = set()

    def reserve(self, row: int, now: float, nbytes: int,
                min_occupancy: float = 0.0) -> tuple[float, float]:
        """Occupy the least-busy lane of row ``row`` for one message.

        Returns ``(start, header_exit)``:

        * ``start`` — when the head of the message enters the link (after
          queueing behind earlier flows on its lane);
        * ``header_exit`` — when the head emerges at the far end
          (``start + latency``); cut-through forwarding continues from
          there while the body still streams.

        The lane stays busy until ``start + occupancy`` where occupancy is
        the body serialization time (bounded below by ``min_occupancy`` to
        model per-message router overhead for tiny packets).  A row that
        is not "up" runs at its effective bandwidth and adds
        :data:`FAULT_LATENCY`.  ``nbytes`` is an integer (the counter is
        an int64 column): anything else is a :class:`TypeError` before the
        row changes.

        The only reserve arithmetic: every link and port of a network, in
        its Python body and through :meth:`Link.reserve`.  The compiled
        router lane's ``reserve_row`` mirrors it for a row that is "up".
        """
        self.bytes_carried[row] += nbytes
        self.transfers[row] += 1
        horizons, lanes = self.horizons, self.lanes
        lane = row * lanes
        if lanes > 1:
            seg = horizons[lane:lane + lanes]
            lane += seg.index(min(seg))
        free = horizons[lane]
        start = free if free > now else now
        lat = self.latency
        latency = lat[row % len(lat)]
        fault = self.faults.get(row)
        if fault is None or fault.state == "up":
            occupancy = nbytes / self.bandwidth
        else:
            occupancy = nbytes / self.effective_bandwidth(row)
            latency += FAULT_LATENCY
            fault.faulted_transfers += 1
        if occupancy < min_occupancy:
            occupancy = min_occupancy
        horizons[lane] = start + occupancy
        return start, start + latency

    def effective_bandwidth(self, row: int) -> float:
        """Row ``row``'s bandwidth under its fault state: a fraction of
        nominal while "degraded", :data:`DOWN_BANDWIDTH_FACTOR` of it while
        "down"."""
        fault = self.faults.get(row)
        state = "up" if fault is None else fault.state
        if state == "down":
            return self.bandwidth * DOWN_BANDWIDTH_FACTOR
        if state == "degraded":
            return self.bandwidth * fault.degrade_factor
        return self.bandwidth


class Link:
    """One directed link (or NIC injection/ejection port): a view of one
    row of a :class:`LinkTable`.

    A link may have several *lanes* — parallel channels sharing the same
    endpoints, each with the full per-lane bandwidth.  Torus links have
    one lane; NIC injection/ejection ports get several, modelling the
    Gemini NIC's concurrent FMA descriptor lanes / BTE virtual channels
    over a ~19 GB/s HyperTransport attach: many simultaneous transfers
    make progress together instead of convoying behind one FIFO.

    Fault state: a link is ``"up"``, ``"degraded"`` (fraction of nominal
    bandwidth, e.g. a lane running on its redundant wires), or ``"down"``
    (hard fault; see :data:`DOWN_BANDWIDTH_FACTOR`).  State is changed by
    the fault injector through :class:`~repro.hardware.router.TorusNetwork`
    so the router's fault bookkeeping stays consistent.

    The network makes views on demand (``net.link(frm, to)``,
    ``net.links()``); two views of one row are equal.  ``Link(name,
    bandwidth, latency, lanes=...)`` builds a stand-alone link over a
    private one-row table; the name is dropped (callers outside ``src/``
    label one, ``perf/layers.py``).
    """

    __slots__ = ("_table", "_row")

    def __init__(self, name: object, bandwidth: float, latency: float,
                 lanes: int = 1):
        self._table = LinkTable(1, bandwidth, (latency,), lanes)
        self._row = 0

    @classmethod
    def at(cls, table: LinkTable, row: int) -> "Link":
        """The view of row ``row`` of ``table``."""
        view = cls.__new__(cls)
        view._table = table
        view._row = row
        return view

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Link):
            return NotImplemented
        return self._table is other._table and self._row == other._row

    def __hash__(self) -> int:
        return hash((id(self._table), self._row))

    # -- static properties and counters ------------------------------------------
    @property
    def bandwidth(self) -> float:
        return self._table.bandwidth

    @property
    def latency(self) -> float:
        lat = self._table.latency
        return lat[self._row % len(lat)]

    @property
    def bytes_carried(self) -> int:
        return self._table.bytes_carried[self._row]

    @property
    def transfers(self) -> int:
        return self._table.transfers[self._row]

    # -- fault state -----------------------------------------------------------
    def _fault(self) -> Fault:
        faults = self._table.faults
        fault = faults.get(self._row)
        if fault is None:
            fault = faults[self._row] = Fault()
        return fault

    @property
    def state(self) -> str:
        fault = self._table.faults.get(self._row)
        return "up" if fault is None else fault.state

    @property
    def degrade_factor(self) -> float:
        fault = self._table.faults.get(self._row)
        return 1.0 if fault is None else fault.degrade_factor

    @property
    def faults(self) -> int:
        fault = self._table.faults.get(self._row)
        return 0 if fault is None else fault.faults

    @property
    def faulted_transfers(self) -> int:
        fault = self._table.faults.get(self._row)
        return 0 if fault is None else fault.faulted_transfers

    @property
    def effective_bandwidth(self) -> float:
        return self._table.effective_bandwidth(self._row)

    def fail(self) -> None:
        """Hard link fault (flap): traffic crawls until :meth:`restore`."""
        fault = self._fault()
        fault.state = "down"
        fault.faults += 1
        self._table.sick.add(self._row)

    def degrade(self, factor: float) -> None:
        """Soft fault: run at ``factor`` of nominal bandwidth."""
        if not 0.0 < factor < 1.0:
            raise ValueError(f"degrade factor must be in (0, 1), got {factor}")
        fault = self._fault()
        fault.state = "degraded"
        fault.degrade_factor = factor
        fault.faults += 1
        self._table.sick.add(self._row)

    def restore(self) -> None:
        fault = self._table.faults.get(self._row)
        if fault is not None:
            fault.state = "up"
            fault.degrade_factor = 1.0
        self._table.sick.discard(self._row)

    # -- timing ----------------------------------------------------------------
    def reserve(self, now: float, nbytes: int,
                min_occupancy: float = 0.0) -> tuple[float, float]:
        """Occupy the least-busy lane for one message:
        :meth:`LinkTable.reserve` of this row, ``(start, header_exit)``."""
        return self._table.reserve(self._row, now, nbytes, min_occupancy)

    @property
    def horizons(self) -> tuple[float, ...]:
        """When each lane is next free, lane by lane."""
        lanes = self._table.lanes
        first = self._row * lanes
        return tuple(self._table.horizons[first:first + lanes])

    @property
    def available_at(self) -> float:
        """Earliest time any lane is free: the load signal of adaptive
        routing (a horizon, not a duration — an idle link reads as the
        end of its last flow, not as zero)."""
        return min(self.horizons)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link bw={self.bandwidth:.3g} busy_until={self.available_at:.9f}>"
