"""Frozen reference router: the pre-flatten ``transfer`` composition.

A verbatim copy of ``TorusNetwork.transfer -> _walk -> _next_direction ->
Link.reserve`` (and the dragonfly's link latencies) as they stood before the message path was fused into one pass, minus the
observer hook and the per-hop caches (which never changed a result) and
the link fault states, which the fabric does not model.
``tests/test_router_equivalence.py`` drives it and the live router with the
same transfer streams and requires identical timings and identical
per-link state.  Do not "fix" or optimise this file: it is the oracle.
"""

from __future__ import annotations


class RefLink:
    def __init__(self, name, bandwidth, latency, lanes=1):
        self.name = name
        self.bandwidth = bandwidth
        self.latency = latency
        self._lanes = [0.0] * max(1, lanes)
        self.bytes_carried = 0
        self.transfers = 0

    def reserve(self, now, nbytes, min_occupancy=0.0):
        lanes = self._lanes
        if len(lanes) == 1:
            lane = 0
            free = lanes[0]
        else:
            free = min(lanes)
            lane = lanes.index(free)
        start = free if free > now else now
        latency = self.latency
        occupancy = nbytes / self.bandwidth
        if occupancy < min_occupancy:
            occupancy = min_occupancy
        lanes[lane] = start + occupancy
        self.bytes_carried += nbytes
        self.transfers += 1
        return start, start + latency

    @property
    def queue_depth(self):
        lanes = self._lanes
        return lanes[0] if len(lanes) == 1 else min(lanes)


class RefTorusNetwork:
    def __init__(self, topology, config):
        self.topology = topology
        self.config = config
        self._links = {}
        self._inject = {}
        self._eject = {}
        self.messages_routed = 0

    def link(self, frm, to):
        key = (frm, to)
        lk = self._links.get(key)
        if lk is None:
            lk = RefLink(key, self.config.link_bandwidth,
                         self.config.hop_latency)
            self._links[key] = lk
        return lk

    def injection_port(self, at):
        lk = self._inject.get(at)
        if lk is None:
            lk = RefLink(("inject", at), self.config.link_bandwidth,
                         self.config.nic_latency,
                         lanes=self.config.nic_port_lanes)
            self._inject[at] = lk
        return lk

    def ejection_port(self, at):
        lk = self._eject.get(at)
        if lk is None:
            lk = RefLink(("eject", at), self.config.link_bandwidth,
                         self.config.nic_latency,
                         lanes=self.config.nic_port_lanes)
            self._eject[at] = lk
        return lk

    def _next_direction(self, at, dst):
        topo = self.topology
        dirs = topo.minimal_directions(at, dst)
        if len(dirs) == 1 or not self.config.adaptive_routing:
            return dirs[0]
        best = dirs[0]
        best_load = self.link(at, topo.neighbor(at, best)).queue_depth
        for d in dirs[1:]:
            load = self.link(at, topo.neighbor(at, d)).queue_depth
            if load < best_load:
                best, best_load = d, load
        return best

    def transfer(self, now, src, dst, nbytes, bandwidth_cap=None,
                 min_occupancy=None):
        cfg = self.config
        min_occ = cfg.nic_msg_gap if min_occupancy is None else min_occupancy
        self.messages_routed += 1
        _, t = self.injection_port(src).reserve(now, nbytes, min_occ)
        depart = t
        t, hops = self._walk(t, src, dst, nbytes, min_occ)
        _, t = self.ejection_port(dst).reserve(t, nbytes, min_occ)
        head_arrival = t
        path_bw = cfg.link_bandwidth
        if bandwidth_cap is not None and bandwidth_cap < path_bw:
            path_bw = bandwidth_cap
        arrival = head_arrival + nbytes / path_bw
        return depart, head_arrival, arrival, hops

    def _walk(self, t, src, dst, nbytes, min_occ):
        hops = 0
        at = src
        topo = self.topology
        adaptive = self.config.adaptive_routing
        while at != dst:
            dirs = topo.minimal_directions(at, dst)
            deterministic = not adaptive or len(dirs) == 1
            if deterministic:
                d = dirs[0]
            else:
                d = self._next_direction(at, dst)
            nxt = topo.neighbor(at, d)
            lk = self.link(at, nxt)
            _, t = lk.reserve(t, nbytes, min_occ)
            at = nxt
            hops += 1
        return t, hops


class RefDragonflyNetwork(RefTorusNetwork):
    def link(self, frm, to):
        key = (frm, to)
        lk = self._links.get(key)
        if lk is None:
            latency = (self.config.dragonfly_global_latency
                       if self.topology.is_global_link(frm, to)
                       else self.config.hop_latency)
            lk = RefLink(key, self.config.link_bandwidth, latency)
            self._links[key] = lk
        return lk
