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


class LinkTable:
    """The state of a set of links as typed columns, a row per link.

    ``horizons`` holds ``lanes`` horizons per row (when each lane is next
    free), ``bytes_carried`` and ``transfers`` are int64 counters.  The
    links of a table share one bandwidth; row ``r`` has latency
    ``latency[r % len(latency)]`` — per slot of a vertex for router links,
    whose rows are ``vertex * fan_out + slot``, one value for NIC ports
    (a row per vertex) and for a stand-alone link.

    The columns are allocated at full size once and never resized: the
    compiled router lane writes through their buffers.
    """

    __slots__ = ("bandwidth", "latency", "lanes", "horizons",
                 "bytes_carried", "transfers")

    def __init__(self, rows: int, bandwidth: float, latency: Sequence[float],
                 lanes: int = 1):
        lanes = max(1, lanes)
        self.bandwidth = bandwidth
        self.latency = array("d", latency)
        self.lanes = lanes
        self.horizons = array("d", bytes(8 * rows * lanes))
        self.bytes_carried = array("q", bytes(8 * rows))
        self.transfers = array("q", bytes(8 * rows))

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
        model per-message router overhead for tiny packets).  ``nbytes``
        is an integer (the counter is an int64 column): anything else is a
        :class:`TypeError` before the row changes.

        The only reserve arithmetic: every link and port of a network, in
        its Python body and through :meth:`Link.reserve`.  The compiled
        router lane's ``reserve_row`` mirrors it.
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
        occupancy = nbytes / self.bandwidth
        if occupancy < min_occupancy:
            occupancy = min_occupancy
        horizons[lane] = start + occupancy
        return start, start + latency


class Link:
    """One directed link (or NIC injection/ejection port): a view of one
    row of a :class:`LinkTable`.

    A link may have several *lanes* — parallel channels sharing the same
    endpoints, each with the full per-lane bandwidth.  Torus links have
    one lane; NIC injection/ejection ports get several, modelling the
    Gemini NIC's concurrent FMA descriptor lanes / BTE virtual channels
    over a ~19 GB/s HyperTransport attach: many simultaneous transfers
    make progress together instead of convoying behind one FIFO.

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
