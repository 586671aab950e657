"""The torus network: link ownership, routing, and transfer timing.

:class:`TorusNetwork` computes when a message's first and last byte arrive,
given the current occupancy of every link on its path.  Two routing modes:

* **dimension-ordered** — deterministic X→Y→Z minimal routing;
* **adaptive** (default, matching Gemini's packet-adaptive router) — at
  each hop, pick the productive direction whose outgoing link has the
  smallest backlog (ties break deterministically by direction index, so
  runs stay reproducible without consuming RNG state).

Links are created lazily: a 16×16×16 torus has 24,576 directed links, most
of which a given experiment never touches.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

from repro.errors import TopologyError
from repro.hardware.config import MachineConfig
from repro.hardware.link import Link
from repro.hardware.topology import Coord, Torus3D
from repro.sim import _speed


#: what a leg looks its hops up in until its destination has a row
_NO_ROW: MappingProxyType = MappingProxyType({})


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
        self._links: dict[tuple[Coord, Coord], Link] = {}
        self._inject: dict[Coord, Link] = {}
        self._eject: dict[Coord, Link] = {}
        #: one coordinate tuple per node that any link starts or ends at:
        #: every link into a node shares it in its ``name``
        self._ends: dict[Coord, Coord] = {}
        #: dst -> at -> (link, ...): one row per destination, holding for
        #: each ``at`` a message to it has stood on the productive links
        #: out of ``at`` in ``minimal_directions`` order (only the first
        #: in dimension-ordered mode, so no link is created that routing
        #: would not have created); the next coordinate is the chosen
        #: link's ``name[1]``.  A leg fetches its row once and its hops
        #: look ``at`` up in it — coordinates that already exist — so a
        #: miss keeps one tuple of links and nothing else.  The one
        #: per-hop cache; :meth:`transfer` consults it only while no link
        #: is faulted.  Link objects are stable — a fault mutates the
        #: Link in place — so entries outlive a fail/restore cycle.
        self._routes: dict[Coord, dict[Coord, tuple[Link, ...]]] = {}
        #: observability hub (:mod:`repro.observe`), set by the machine
        #: that owns this network; ``None`` skips the transfer hooks
        self.observer = None
        #: total messages routed (diagnostics)
        self.messages_routed = 0
        #: links currently marked down/degraded (fault-injection state)
        self._faulted: set[tuple[Coord, Coord]] = set()
        #: messages routed while any link fault was active — which is also
        #: every transfer the compiled lane handed to the Python body
        self.degraded_routes = 0

    # -- link access -----------------------------------------------------------
    def link(self, frm: Coord, to: Coord) -> Link:
        lk = self._links.get((frm, to))
        if lk is None:
            ends = self._ends
            key = (ends.setdefault(frm, frm), ends.setdefault(to, to))
            lk = Link(key, self.config.link_bandwidth,
                      self._link_latency(frm, to))
            self._links[key] = lk
        return lk

    def _link_latency(self, frm: Coord, to: Coord) -> float:
        """Per-traversal latency of the ``frm -> to`` link when created."""
        return self.config.hop_latency

    def injection_port(self, at: Coord) -> Link:
        lk = self._inject.get(at)
        if lk is None:
            lk = Link(("inject", at), self.config.link_bandwidth,
                      self.config.nic_latency, lanes=self.config.nic_port_lanes)
            self._inject[at] = lk
        return lk

    def ejection_port(self, at: Coord) -> Link:
        lk = self._eject.get(at)
        if lk is None:
            lk = Link(("eject", at), self.config.link_bandwidth,
                      self.config.nic_latency, lanes=self.config.nic_port_lanes)
            self._eject[at] = lk
        return lk

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

        The sharded engine polls this at window barriers: any outstanding
        link fault invalidates the lookahead bound (fault retry latency
        and crawl-mode bandwidth change arrival times mid-window), so it
        falls back to sequential execution.
        """
        return len(self._faulted)

    @property
    def route_mode(self) -> str:
        """Active routing policy: ``"adaptive"`` or ``"dimension-ordered"``.

        With any link fault outstanding, the router falls back from
        adaptive (backlog-driven) to deterministic dimension-ordered
        routing with down-link avoidance — the graceful-degradation mode
        Gemini drops into when adaptive routing would keep hashing traffic
        onto a flapping lane.
        """
        if self._faulted or not self.config.adaptive_routing:
            return "dimension-ordered"
        return "adaptive"

    # -- routing ---------------------------------------------------------------
    def _next_direction(self, at: Coord, dst: Coord) -> Coord:
        """Degraded-mode choice: dimension order, stepping around a down
        link when another productive direction is still up."""
        topo = self.topology
        dirs = topo.minimal_directions(at, dst)
        for d in dirs:
            if self.link(at, topo.neighbor(at, d)).state != "down":
                return d
        return dirs[0]

    def _route_miss(self, at: Coord, dst: Coord) -> tuple[Link, ...]:
        """Compute the candidate links out of ``at`` and remember them in
        the row of ``dst`` (created by its first miss — the one place a
        destination is checked against the topology, never per hop)."""
        topo = self.topology
        row = self._routes.get(dst)
        if row is None:
            if not topo.contains(dst):
                raise TopologyError(f"destination {dst} is not on {topo!r}")
            row = self._routes[dst] = {}
        dirs = topo.minimal_directions(at, dst)
        if not self.config.adaptive_routing:
            dirs = dirs[:1]
        links = self._links
        cands = []
        for d in dirs:
            nxt = topo.neighbor(at, d)
            lk = links.get((at, nxt))
            if lk is None:
                lk = self.link(at, nxt)
            cands.append(lk)
        row[at] = route = tuple(cands)
        return route

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
        overhead) — used for small-message rate limiting.

        ``via`` is a waypoint: the message walks ``src -> via -> dst`` as
        two minimal legs (Valiant misrouting).

        One pass: per hop, look the candidates up, pick one (the first in
        deterministic mode; the least-backlogged, ties to the earlier
        direction, in adaptive mode) and reserve its link — inline for a
        healthy link (single-lane hops, multi-lane NIC ports), through
        :meth:`Link.reserve` for a faulted or multi-lane hop.

        This body is the contract of :meth:`transfer`.  With the C core
        loaded (:mod:`repro.sim._speed`) ``transfer`` is its compiled
        lane, ``router_transfer`` in ``_speedups.c``: the same statements
        over the same slots for a healthy fabric, which hands the whole
        call to this body, before any side effect, while a link is
        faulted.
        """
        cfg = self.config
        min_occ = cfg.nic_msg_gap if min_occupancy is None else min_occupancy
        self.messages_routed += 1

        # injection at the source NIC
        inj = self._inject.get(src)
        if inj is None:
            inj = self.injection_port(src)
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

        hops = 0
        at = src
        routes = self._routes
        degraded = bool(self._faulted)
        if degraded:
            self.degraded_routes += 1
        leg_end = dst if via is None else via
        while True:
            row = routes.get(leg_end, _NO_ROW)
            # (a destination with a row passed _route_miss's check)
            if (degraded and row is _NO_ROW
                    and not self.topology.contains(leg_end)):
                raise TopologyError(
                    f"destination {leg_end} is not on {self.topology!r}")
            while at != leg_end:
                if degraded:
                    nxt = self.topology.neighbor(
                        at, self._next_direction(at, leg_end))
                    lk = self.link(at, nxt)
                else:
                    cands = row.get(at)
                    if cands is None:
                        cands = self._route_miss(at, leg_end)
                        row = routes[leg_end]
                    lk = cands[0]
                    if len(cands) > 1:
                        # adaptive: least-backlogged productive link, the
                        # earlier direction on a tie (router links have
                        # one lane: its slot is the load)
                        load = lk._free
                        for cand in cands:
                            other = cand._free
                            if other < load:
                                lk = cand
                                load = other
                    nxt = lk.name[1]
                if lk.state == "up" and lk._lanes is None:
                    # Link.reserve for the common case, minus the call
                    free = lk._free
                    start = free if free > t else t
                    occupancy = nbytes / lk.bandwidth
                    if occupancy < min_occ:
                        occupancy = min_occ
                    lk._free = start + occupancy
                    lk.bytes_carried += nbytes
                    lk.transfers += 1
                    t = start + lk.latency
                else:
                    _, t = lk.reserve(t, nbytes, min_occ)
                at = nxt
                hops += 1
            if leg_end is dst:
                break
            leg_end = dst

        # ejection into the destination NIC
        ej = self._eject.get(dst)
        if ej is None:
            ej = self.ejection_port(dst)
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
        return sum(lk.bytes_carried for lk in self._links.values())

    def hottest_link(self) -> Link | None:
        return max(self._links.values(), key=lambda lk: lk.bytes_carried, default=None)

    def route_stats(self) -> dict[str, int]:
        """Size and use of the route table.

        A simulator self-metric, not a simulated result: it is in no
        ``stats()`` dict, checksum or metrics digest.  A miss adds exactly
        one entry and nothing is evicted, so ``misses`` is read off the
        table and the hit path carries no counter; ``hops`` is every
        router-link traversal (hits, misses, and degraded-mode hops,
        which bypass the table), so ``1 - misses / hops`` is the hit
        rate of a fault-free run.  ``rows`` is the destinations routed to.
        """
        entries = sum(map(len, self._routes.values()))
        return {"rows": len(self._routes), "entries": entries,
                "misses": entries, "links": len(self._links),
                "hops": sum(lk.transfers for lk in self._links.values())}


if _speed.core is not None:
    # the lane follows the engine core's switch: no C core, no C lane
    TorusNetwork.transfer = _speed.core.router_transfer(
        TorusNetwork, TorusNetwork._transfer_py, Link, TransferTiming)


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

    def _link_latency(self, frm, to) -> float:
        if self.topology.is_global_link(frm, to):
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
