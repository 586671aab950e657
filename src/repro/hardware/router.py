"""The torus network: link ownership, routing, and transfer timing.

:class:`TorusNetwork` computes when a message's first and last byte arrive,
given the current occupancy of every link on its path.  Two routing modes:

* **dimension-ordered** — deterministic X→Y→Z minimal routing;
* **adaptive** (default, matching Gemini's packet-adaptive router) — at
  each hop, pick the productive direction whose outgoing link has the
  smallest backlog (ties break deterministically by direction index, so
  runs stay reproducible without consuming RNG state).

Links are created lazily: a 16×16×16 torus has 24,576 directed links, most
of which a given experiment never touches.  A link has no name: it is a
slot of a vertex, found from ``(frm, to)`` by ``topology.link_slot``.
"""

from __future__ import annotations

from array import array
from typing import Iterator, NamedTuple

from repro.hardware.config import MachineConfig
from repro.hardware.link import Link
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
        #: the out-table: per vertex of the topology (``topology.vertex``)
        #: ``None`` until a message stands on it, then its out-links in
        #: the topology's slot order, each ``None`` until first touched —
        #: so no link exists that routing or a fault did not ask for.  A
        #: hop picks among ``topology.out_hops(at, end)``, computed, not
        #: remembered; a fault mutates the Link in place, so slots outlive
        #: a fail/restore cycle.
        self._out: list[list[Link | None] | None] = [None] * n
        #: link-creation order (it is in the metrics digest, and
        #: ``hottest_link`` breaks ties by it): per link its two vertices,
        #: packed ``v * n_vertices + nxt``
        self._order = array("q")
        #: NIC ports by vertex, ``None`` until a message enters / leaves
        self._inject: list[Link | None] = [None] * n
        self._eject: list[Link | None] = [None] * n
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
        return self._first_touch(v, topo.link_slot(v, nxt), nxt)

    def links(self) -> Iterator[tuple[tuple[Coord, Coord], Link]]:
        """``((frm, to), link)`` for every link made, in creation order."""
        topo, out = self.topology, self._out
        coord, slot_of = topo.vertex_coord, topo.link_slot
        for code in self._order:
            v, nxt = divmod(code, len(out))
            yield (coord(v), coord(nxt)), out[v][slot_of(v, nxt)]

    def _link_latency(self, slot: int) -> float:
        """Per-traversal latency of a link made in ``slot`` of a vertex."""
        return self.config.hop_latency

    def _port(self, table: list[Link | None], at: Coord) -> Link:
        v = self.topology.vertex(at)
        if table[v] is None:
            cfg = self.config
            table[v] = Link(None, cfg.link_bandwidth, cfg.nic_latency,
                            lanes=cfg.nic_port_lanes)
        return table[v]

    def injection_port(self, at: Coord) -> Link:
        return self._port(self._inject, at)

    def ejection_port(self, at: Coord) -> Link:
        return self._port(self._eject, at)

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
    def _first_touch(self, v: int, slot: int, nxt: int) -> Link:
        """Fill one slot of the out-table: the link from vertex ``v``
        through ``slot`` to vertex ``nxt``, made — or found — in the slot
        the pair is named by and shared where two slots of ``v`` end at
        the same neighbour (both ways round a two-node ring: one link)."""
        links = self._out[v]
        if links is None:
            links = self._out[v] = [None] * self.topology.fan_out(v)
        named = self.topology.link_slot(v, nxt)
        lk = links[named]
        if lk is None:
            lk = links[named] = Link(None, self.config.link_bandwidth,
                                     self._link_latency(named))
            self._order.append(v * len(self._out) + nxt)
        links[slot] = lk
        return lk

    def _next_direction(self, v: int, end: int) -> tuple[Link, int]:
        """Degraded-mode choice: ``(link, next vertex)`` in dimension
        order, stepping around a down link when another productive one is
        still up."""
        first = None
        for slot, nxt in self.topology.out_hops(v, end):
            lk = self._first_touch(v, slot, nxt)
            if lk.state != "down":
                return lk, nxt
            first = first or (lk, nxt)
        return first

    def _transfer_py(
        self,
        now: float,
        src: Coord,
        dst: Coord,
        nbytes: int,
        bandwidth_cap: float | None = None,
        min_occupancy: float | None = None,
        via: Coord | None = None,
    ) -> TransferTiming:
        """Route one message and reserve every link it crosses.

        ``bandwidth_cap`` models a source that cannot feed the wire at full
        link rate (FMA window stores, BTE engine limits): the last byte
        cannot arrive before ``first-byte arrival + nbytes / cap``.
        ``min_occupancy`` sets a per-link floor (per-message router
        overhead) — used for small-message rate limiting.  ``via`` is a
        waypoint: the message walks ``src -> via -> dst`` as two minimal
        legs (Valiant misrouting).

        One pass: per hop, compute the productive slots of the vertex the
        message stands on, touch each candidate link, pick one (the first
        in deterministic mode; the least-backlogged, ties to the earlier
        direction, in adaptive mode) and reserve it — inline for a healthy
        single-lane hop or multi-lane NIC port, through
        :meth:`Link.reserve` otherwise.  A coordinate off the fabric is a
        :class:`TopologyError` before any router link is touched.

        This body is the contract of :meth:`transfer`.  With the C core
        loaded (:mod:`repro.sim._speed`) ``transfer`` is its compiled
        lane, ``router_transfer`` in ``_speedups.c``: the same statements
        over the same slots, for a healthy :class:`Torus3D` or
        :class:`Dragonfly` fabric and coordinates on it; any other call
        comes whole to this body, before any side effect.
        """
        cfg = self.config
        min_occ = cfg.nic_msg_gap if min_occupancy is None else min_occupancy
        self.messages_routed += 1

        # injection at the source NIC; a source off the fabric raises here
        topo = self.topology
        v = topo.vertex(src)
        inj = self._inject[v] or self.injection_port(src)
        lanes = inj._lanes
        if lanes is not None and inj.state == "up":
            # Link.reserve on the least-busy lane, minus the call
            free = min(lanes)
            start = free if free > now else now
            occupancy = nbytes / inj.bandwidth
            if occupancy < min_occ:
                occupancy = min_occ
            lanes[lanes.index(free)] = start + occupancy
            inj.bytes_carried += nbytes
            inj.transfers += 1
            t = start + inj.latency
        else:
            _, t = inj.reserve(now, nbytes, min_occ)
        depart = t

        # src -> dst, or src -> via -> dst as two minimal legs; a
        # coordinate off the fabric raises before any router link is touched
        ends = ((topo.vertex(dst),) if via is None
                else (topo.vertex(via), topo.vertex(dst)))
        hops = 0
        if self._faulted:
            self.degraded_routes += 1
            for end in ends:
                while v != end:
                    lk, v = self._next_direction(v, end)
                    _, t = lk.reserve(t, nbytes, min_occ)
                    hops += 1
        else:
            out = self._out
            out_hops = topo.out_hops
            first_only = not cfg.adaptive_routing
            for end in ends:
                while v != end:
                    links = out[v]
                    lk = None
                    for slot, to in out_hops(v, end, first_only):
                        cand = None if links is None else links[slot]
                        if cand is None:
                            cand = self._first_touch(v, slot, to)
                            links = out[v]
                        # adaptive: least-backlogged productive link, the
                        # earlier direction on a tie (router links have
                        # one lane: its slot is the load)
                        if lk is None or cand._free < load:
                            lk, nxt, load = cand, to, cand._free
                    if lk.state == "up" and lk._lanes is None:
                        # Link.reserve for the common case, minus the call
                        start = load if load > t else t
                        occupancy = nbytes / lk.bandwidth
                        if occupancy < min_occ:
                            occupancy = min_occ
                        lk._free = start + occupancy
                        lk.bytes_carried += nbytes
                        lk.transfers += 1
                        t = start + lk.latency
                    else:
                        _, t = lk.reserve(t, nbytes, min_occ)
                    v = nxt
                    hops += 1

        # ejection into the destination NIC
        ej = self._eject[ends[-1]] or self.ejection_port(dst)
        lanes = ej._lanes
        if lanes is not None and ej.state == "up":
            free = min(lanes)
            start = free if free > t else t
            occupancy = nbytes / ej.bandwidth
            if occupancy < min_occ:
                occupancy = min_occ
            lanes[lanes.index(free)] = start + occupancy
            ej.bytes_carried += nbytes
            ej.transfers += 1
            t = start + ej.latency
        else:
            _, t = ej.reserve(t, nbytes, min_occ)
        head_arrival = t

        path_bw = cfg.link_bandwidth
        if bandwidth_cap is not None and bandwidth_cap < path_bw:
            path_bw = bandwidth_cap
        arrival = head_arrival + nbytes / path_bw
        obs = self.observer
        if obs is not None:
            obs.on_net_transfer(src, dst, nbytes, now, depart, hops)
        return _new_timing(TransferTiming,
                           (depart, head_arrival, arrival, hops))

    transfer = _transfer_py

    # -- diagnostics ------------------------------------------------------------
    def total_bytes_carried(self) -> int:
        return sum(lk.bytes_carried for _, lk in self.links())

    def hottest_link(self) -> Link | None:
        """The link that carried most bytes; the earlier made on a tie."""
        return max((lk for _, lk in self.links()),
                   key=lambda lk: lk.bytes_carried, default=None)

    def route_stats(self) -> dict[str, int]:
        """Size and use of the routing state: a simulator self-metric, in
        no ``stats()`` dict, checksum or metrics digest.  ``vertices`` is
        the out-lists created (nodes and routers a message has stood on or
        a fault has named), ``links`` the links made, ``hops`` every
        router-link traversal, degraded-mode hops included."""
        return {"vertices": sum(links is not None for links in self._out),
                "links": len(self._order),
                "hops": sum(lk.transfers for _, lk in self.links())}

    def first_touch(self) -> dict[str, int]:
        """The lazily built links and NIC ports that exist."""
        return {"links": len(self._order),
                "inject_ports": sum(p is not None for p in self._inject),
                "eject_ports": sum(p is not None for p in self._eject)}


if _speed.core is not None:
    # the lane follows the engine core's switch: no C core, no C lane
    TorusNetwork.transfer = _speed.core.router_transfer(
        TorusNetwork, TorusNetwork._transfer_py, Link, TransferTiming,
        Torus3D, Dragonfly)


class DragonflyNetwork(TorusNetwork):
    """Dragonfly fabric on top of the shared link/fault machinery.

    Differences from the torus network:

    * inter-group (optical) router links carry their own, longer latency
      (:attr:`MachineConfig.dragonfly_global_latency`);
    * in ``valiant`` routing mode each inter-group message walks two
      minimal legs — source to a randomly drawn intermediate router in a
      third group, then on to the destination — spreading adversarial
      traffic across global links at the cost of path length.  The
      intermediate comes from the topology's seeded RNG stream, so runs
      stay bit-reproducible.  With any link fault outstanding the network
      falls back to minimal routing with down-link avoidance, mirroring
      the torus's degraded mode.
    """

    def _link_latency(self, slot: int) -> float:
        # a router's global ports follow its downs and locals
        topo = self.topology
        if slot >= topo.terminals_per_router + topo.routers_per_group:
            return self.config.dragonfly_global_latency
        return self.config.hop_latency

    def transfer(
        self,
        now: float,
        src: Coord,
        dst: Coord,
        nbytes: int,
        bandwidth_cap: float | None = None,
        min_occupancy: float | None = None,
    ) -> TransferTiming:
        topo = self.topology
        mid = None
        if topo.routing == "valiant" and not self._faulted and src != dst:
            mid = topo.valiant_intermediate(src, dst)
        return super().transfer(now, src, dst, nbytes, bandwidth_cap,
                                min_occupancy, via=mid)
