"""The torus network: link ownership, routing, and transfer timing.

:class:`TorusNetwork` computes when a message's first and last byte arrive,
given the current occupancy of every link on its path.  Two routing modes:

* **dimension-ordered** — deterministic X→Y→Z minimal routing;
* **adaptive** (default, matching Gemini's packet-adaptive router) — at
  each hop, pick the productive direction whose outgoing link has the
  smallest backlog (ties break deterministically by direction index, so
  runs stay reproducible without consuming RNG state).

Link state is typed columns (:class:`~repro.hardware.link.LinkTable`),
allocated once per network: a row per slot of every vertex for router
links, a row per vertex for each kind of NIC port.  Links are *made*
lazily — a 16×16×16 torus has 24,576 directed links, most of which a given
experiment never touches, and only the links made are in ``links()``, the
route statistics and the metrics digest.  A link has no name: it is a row
of the table, found from ``(frm, to)`` by ``topology.link_slot``.
"""

from __future__ import annotations

from array import array
from operator import index as _index
from typing import Iterator, NamedTuple

from repro.hardware.config import MachineConfig
from repro.hardware.link import Link, LinkTable
from repro.hardware.topology import Coord, Dragonfly, Torus3D
from repro.sim import _speed


class TransferTiming(NamedTuple):
    """Result of a network transfer computation.

    :meth:`TorusNetwork.transfer` builds one per message with
    ``tuple.__new__`` — the generated ``__new__`` is a Python frame."""

    depart: float  # when the message left the source NIC port
    head_arrival: float  # first byte at destination
    arrival: float  # last byte at destination
    hops: int


_new_timing = tuple.__new__


class TorusNetwork:
    """All inter-node links plus per-node injection/ejection ports."""

    def __init__(self, topology: Torus3D, config: MachineConfig):
        self.topology = topology
        self.config = config
        n = topology.n_vertices
        #: router links are rows ``vertex * _fan + slot`` of ``_links``
        fan = self._fan = max(map(topology.fan_out, range(n)))
        bw = config.link_bandwidth
        self._links = LinkTable(n * fan, bw,
                                [self._link_latency(s) for s in range(fan)])
        #: the out-table: per slot of every vertex (``topology.vertex``),
        #: the row of its link, ``-1`` until first touched — so no link is
        #: made that routing or a fault did not ask for.  Two slots of a
        #: vertex that end at one neighbour (both ways round a two-node
        #: ring) hold one row.  A hop picks among ``topology.out_hops(at,
        #: end)``, computed, not remembered.
        self._out = array("i", [-1]) * (n * fan)
        #: link-creation order (it is in the metrics digest, and
        #: ``hottest_link`` breaks ties by it): per link its two vertices,
        #: packed ``v * n_vertices + nxt``
        self._order = array("q")
        #: NIC ports, a row per vertex, made when a message first enters /
        #: leaves there
        lanes = config.nic_port_lanes
        self._inject = LinkTable(n, bw, (config.nic_latency,), lanes)
        self._eject = LinkTable(n, bw, (config.nic_latency,), lanes)
        self._inject_made = bytearray(n)
        self._eject_made = bytearray(n)
        #: the compiled lane's hold on the buffers of these columns, set by
        #: its first call (``None`` on the Python body)
        self._columns = None
        #: observability hub (:mod:`repro.observe`), set by the machine
        #: that owns this network; ``None`` skips the transfer hooks
        self.observer = None
        #: total messages routed (diagnostics)
        self.messages_routed = 0
        #: links currently marked down/degraded (fault-injection state)
        self._faulted: set[tuple[Coord, Coord]] = set()
        #: messages routed while any link fault was active — each of them a
        #: transfer the compiled lane handed to the Python body
        self.degraded_routes = 0

    # -- link access -----------------------------------------------------------
    def link(self, frm: Coord, to: Coord) -> Link:
        """The ``frm -> to`` link, made if need be; a pair that is not a
        link of the topology is a :class:`TopologyError`."""
        topo = self.topology
        v, nxt = topo.vertex(frm), topo.vertex(to)
        return Link.at(self._links,
                       self._first_touch(v, topo.link_slot(v, nxt), nxt))

    def links(self) -> Iterator[tuple[tuple[Coord, Coord], Link]]:
        """``((frm, to), link)`` for every link made, in creation order."""
        topo, links, fan = self.topology, self._links, self._fan
        coord, slot_of, n = topo.vertex_coord, topo.link_slot, topo.n_vertices
        for code in self._order:
            v, nxt = divmod(code, n)
            yield ((coord(v), coord(nxt)),
                   Link.at(links, v * fan + slot_of(v, nxt)))

    def _link_latency(self, slot: int) -> float:
        """Per-traversal latency of a link made in ``slot`` of a vertex."""
        return self.config.hop_latency

    def injection_port(self, at: Coord) -> Link:
        v = self.topology.vertex(at)
        self._inject_made[v] = 1
        return Link.at(self._inject, v)

    def ejection_port(self, at: Coord) -> Link:
        v = self.topology.vertex(at)
        self._eject_made[v] = 1
        return Link.at(self._eject, v)

    # -- fault state (driven by repro.faults) ------------------------------------
    def fail_link(self, frm: Coord, to: Coord) -> None:
        """Mark one directed link hard-down (a flap's falling edge)."""
        self.link(frm, to).fail()
        self._faulted.add((frm, to))

    def degrade_link(self, frm: Coord, to: Coord, factor: float) -> None:
        """Run one directed link at ``factor`` of nominal bandwidth."""
        self.link(frm, to).degrade(factor)
        self._faulted.add((frm, to))

    def restore_link(self, frm: Coord, to: Coord) -> None:
        self.link(frm, to).restore()
        self._faulted.discard((frm, to))

    @property
    def faulted_links(self) -> int:
        """Directed links currently down or degraded (0 = healthy fabric).
        The sharded engine polls this at window barriers: an outstanding
        link fault invalidates its lookahead bound."""
        return len(self._faulted)

    @property
    def route_mode(self) -> str:
        """Active routing policy: ``"adaptive"`` or ``"dimension-ordered"``.
        With any link fault outstanding the router falls back from
        adaptive to dimension-ordered routing with down-link avoidance —
        the mode Gemini drops into when adaptive routing would keep
        hashing traffic onto a flapping lane."""
        if self._faulted or not self.config.adaptive_routing:
            return "dimension-ordered"
        return "adaptive"

    # -- routing ---------------------------------------------------------------
    def _first_touch(self, v: int, slot: int, nxt: int) -> int:
        """Fill one slot of the out-table and return its row: the link
        from vertex ``v`` through ``slot`` to vertex ``nxt``, made — or
        found — in the row of the slot the pair is named by, which two
        slots of ``v`` ending at one neighbour share."""
        out, fan = self._out, self._fan
        row = v * fan + self.topology.link_slot(v, nxt)
        if out[row] < 0:
            out[row] = row
            self._order.append(v * self.topology.n_vertices + nxt)
        out[v * fan + slot] = row
        return row

    def _transfer_py(
        self,
        now: float,
        src: Coord,
        dst: Coord,
        nbytes: int,
        bandwidth_cap: float | None = None,
    ) -> TransferTiming:
        """Route one message and reserve every link it crosses.

        ``nbytes`` is an integer (``operator.index`` accepts it; anything
        else is a :class:`TypeError`, and a negative size a
        :class:`ValueError`, before any side effect).
        ``bandwidth_cap`` models a source that cannot feed the wire at full
        link rate (FMA window stores, BTE engine limits): the last byte
        cannot arrive before ``first-byte arrival + nbytes / cap``.
        Every port and link holds a message at least
        :attr:`MachineConfig.nic_msg_gap` (per-message router overhead),
        the small-message rate limit.

        One pass: per hop, compute the productive slots of the vertex the
        message stands on, touch each candidate link, pick one and reserve
        it.  On a healthy fabric the pick is the first slot in
        deterministic mode and the least-backlogged, ties to the earlier
        direction, in adaptive mode.  With a link fault outstanding every
        productive slot is a candidate, in dimension order, and the pick
        is the first one not "down" (the first, if all are).  Every port
        and link is reserved through :meth:`LinkTable.reserve`, faulted
        or not.  A coordinate off the fabric is a :class:`TopologyError`
        before any router link is touched.

        This body is the contract of :meth:`transfer`.  With the C core
        loaded (:mod:`repro.sim._speed`) ``transfer`` is its compiled
        lane, ``router_transfer`` in ``_speedups.c``: the same statements
        over the same columns, for a healthy :class:`Torus3D` or
        :class:`Dragonfly` fabric and coordinates on it; any other call
        comes whole to this body, before any side effect.
        """
        size = _index(nbytes)
        if size < 0:
            raise ValueError(f"transfer size {size} B is negative")
        cfg = self.config
        min_occ = cfg.nic_msg_gap
        self.messages_routed += 1
        links = self._links
        faulted = self._faulted

        # injection at the source NIC; a source off the fabric raises here
        topo = self.topology
        v = topo.vertex(src)
        if not self._inject_made[v]:
            self.injection_port(src)
        _, t = self._inject.reserve(v, now, size, min_occ)
        depart = t

        # a destination off the fabric raises before any router link is
        # touched
        end = topo.vertex(dst)
        hops = 0
        if faulted:
            self.degraded_routes += 1
        out, fan = self._out, self._fan
        out_hops = topo.out_hops
        first_only = not (cfg.adaptive_routing or faulted)
        horizons, reserve = links.horizons, links.reserve
        while v != end:
            base = v * fan
            row = -1
            for slot, to in out_hops(v, end, first_only):
                cand = out[base + slot]
                if cand < 0:
                    cand = self._first_touch(v, slot, to)
                if faulted:
                    # degraded: step around a down link, touching no
                    # candidate past the first one that is not down
                    up = Link.at(links, cand).state != "down"
                    if row < 0 or up:
                        row, nxt = cand, to
                    if up:
                        break
                # adaptive: least-backlogged productive link, the earlier
                # direction on a tie (router links have one lane: its
                # horizon is the load)
                elif row < 0 or horizons[cand] < load:
                    row, nxt, load = cand, to, horizons[cand]
            _, t = reserve(row, t, size, min_occ)
            v = nxt
            hops += 1

        # ejection into the destination NIC
        if not self._eject_made[end]:
            self.ejection_port(dst)
        _, t = self._eject.reserve(end, t, size, min_occ)
        head_arrival = t

        path_bw = cfg.link_bandwidth
        if bandwidth_cap is not None and bandwidth_cap < path_bw:
            path_bw = bandwidth_cap
        arrival = head_arrival + size / path_bw
        obs = self.observer
        if obs is not None:
            obs.on_net_transfer(src, dst, nbytes, now, depart, hops)
        return _new_timing(TransferTiming,
                           (depart, head_arrival, arrival, hops))

    transfer = _transfer_py

    # -- diagnostics ------------------------------------------------------------
    def total_bytes_carried(self) -> int:
        return sum(self._links.bytes_carried)

    def hottest_link(self) -> Link | None:
        """The link that carried most bytes; the earlier made on a tie."""
        return max((lk for _, lk in self.links()),
                   key=lambda lk: lk.bytes_carried, default=None)

    def route_stats(self) -> dict[str, int]:
        """Size and use of the routing state: a simulator self-metric, in
        no ``stats()`` dict, checksum or metrics digest.  ``vertices`` is
        the vertices with a link made out of them (nodes and routers a
        message has stood on or a fault has named), ``links`` the links
        made, ``hops`` every router-link traversal, degraded-mode hops
        included."""
        n = self.topology.n_vertices
        return {"vertices": len({code // n for code in self._order}),
                "links": len(self._order),
                "hops": sum(self._links.transfers)}

    def first_touch(self) -> dict[str, int]:
        """The lazily made links and NIC ports."""
        return {"links": len(self._order),
                "inject_ports": sum(self._inject_made),
                "eject_ports": sum(self._eject_made)}


if _speed.core is not None:
    # the lane follows the engine core's switch: no C core, no C lane
    TorusNetwork.transfer = _speed.core.router_transfer(
        TorusNetwork, TorusNetwork._transfer_py, TransferTiming, Torus3D,
        Dragonfly)


class DragonflyNetwork(TorusNetwork):
    """Dragonfly fabric on top of the shared link/fault machinery: the
    torus network's minimal routing and degraded mode, with inter-group
    (optical) router links carrying their own, longer latency
    (:attr:`MachineConfig.dragonfly_global_latency`)."""

    def _link_latency(self, slot: int) -> float:
        # a router's global ports follow its downs and locals
        topo = self.topology
        if slot >= topo.terminals_per_router + topo.routers_per_group:
            return self.config.dragonfly_global_latency
        return self.config.hop_latency
