"""3D-torus topology: coordinates, neighbors, and minimal routes.

Gemini machines are wired as a 3D torus.  We model one NIC per node (two
nodes share a Gemini ASIC on the real machine; the shared 48-port router is
represented by the per-node router stage plus the Netlink latency folded
into :attr:`MachineConfig.nic_latency`).

Routing is minimal and dimension-ordered (X then Y then Z), with each
dimension traversed in the shorter wrap direction; ties break toward the
positive direction, matching the deterministic-mode Gemini router.  The
adaptive mode (packet-by-packet least-loaded selection, paper §II.A) is
implemented in :mod:`repro.hardware.router` on top of the minimal-direction
sets computed here.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Sequence

from repro.errors import TopologyError

Coord = tuple[int, int, int]


def fit_dims(n_nodes: int) -> Coord:
    """Pick near-cubic torus dimensions whose volume is ≥ ``n_nodes``.

    Mirrors how allocations on a real torus rarely fill an exact box: the
    machine is built with ``nx*ny*nz >= n_nodes`` and the trailing slots
    are simply unused.
    """
    if n_nodes < 1:
        raise TopologyError(f"need at least one node, got {n_nodes}")
    side = round(n_nodes ** (1.0 / 3.0))
    best: Coord | None = None
    best_key = None
    for dx in range(max(1, side - 2), side + 3):
        for dy in range(max(1, side - 2), side + 3):
            dz = -(-n_nodes // (dx * dy))
            vol = dx * dy * dz
            if vol < n_nodes:
                continue
            # prefer the smallest volume; among equal volumes, the most
            # cubic shape (smallest max-min dimension spread)
            key = (vol, max(dx, dy, dz) - min(dx, dy, dz))
            if best_key is None or key < best_key:
                best, best_key = (dx, dy, dz), key
    assert best is not None
    return best


class Torus3D:
    """A ``dims = (nx, ny, nz)`` torus with wrap-around links."""

    #: unit vectors for the six link directions
    DIRECTIONS: tuple[Coord, ...] = (
        (1, 0, 0),
        (-1, 0, 0),
        (0, 1, 0),
        (0, -1, 0),
        (0, 0, 1),
        (0, 0, -1),
    )

    def __init__(self, dims: Sequence[int]):
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise TopologyError(f"invalid torus dims {dims!r}")
        self.dims: Coord = (int(dims[0]), int(dims[1]), int(dims[2]))

    @classmethod
    def for_nodes(cls, n_nodes: int) -> "Torus3D":
        return cls(fit_dims(n_nodes))

    @property
    def volume(self) -> int:
        dx, dy, dz = self.dims
        return dx * dy * dz

    # -- id <-> coord ------------------------------------------------------
    def coord_of(self, node_id: int) -> Coord:
        if not 0 <= node_id < self.volume:
            raise TopologyError(f"node id {node_id} outside torus of {self.volume}")
        dx, dy, dz = self.dims
        x, rest = node_id % dx, node_id // dx
        y, z = rest % dy, rest // dy
        return (x, y, z)

    def id_of(self, coord: Coord) -> int:
        dx, dy, dz = self.dims
        if len(coord) == 3:
            x, y, z = coord
            if 0 <= x < dx and 0 <= y < dy and 0 <= z < dz:
                return x + dx * (y + dy * z)
        raise TopologyError(f"coordinate {coord} is not on {self!r}")

    # -- geometry ----------------------------------------------------------
    def wrap(self, coord: Coord) -> Coord:
        dx, dy, dz = self.dims
        return (coord[0] % dx, coord[1] % dy, coord[2] % dz)

    def neighbors(self, coord: Coord) -> Iterator[tuple[Coord, Coord]]:
        """Yield ``(direction, neighbor_coord)`` for all six directions."""
        for d in self.DIRECTIONS:
            yield d, self.wrap((coord[0] + d[0], coord[1] + d[1], coord[2] + d[2]))

    def neighbor(self, at: Coord, d: Coord) -> Coord:
        """Wrapped coordinate one step from ``at`` in direction ``d``."""
        dx, dy, dz = self.dims
        return ((at[0] + d[0]) % dx, (at[1] + d[1]) % dy, (at[2] + d[2]) % dz)

    def hop_distance(self, a: Coord, b: Coord) -> int:
        """Minimal hop count between two coordinates."""
        total = 0
        for axis in range(3):
            size = self.dims[axis]
            fwd = (b[axis] - a[axis]) % size
            total += min(fwd, size - fwd)
        return total

    def minimal_directions(self, at: Coord, dst: Coord) -> list[Coord]:
        """All productive (distance-reducing) directions from ``at``: the
        :attr:`DIRECTIONS` constants :meth:`out_hops` indexes."""
        return [self.DIRECTIONS[slot] for slot, _ in
                self.out_hops(self.id_of(at), self.id_of(dst))]

    def route(self, src: Coord, dst: Coord) -> list[tuple[Coord, Coord]]:
        """Dimension-ordered minimal route as ``[(from, to), ...]`` hops."""
        hops: list[tuple[Coord, Coord]] = []
        v, end = self.id_of(src), self.id_of(dst)
        while v != end:
            (_, nxt), = self.out_hops(v, end, first_only=True)
            hops.append((self.coord_of(v), self.coord_of(nxt)))
            v = nxt
        return hops

    # -- the network's out-table: vertices and slots -----------------------
    #: a vertex is a node id; its six slots are in DIRECTIONS order
    n_vertices = volume
    vertex = id_of
    vertex_coord = coord_of

    def fan_out(self, v: int) -> int:
        return len(self.DIRECTIONS)

    def out_hops(self, v: int, end: int,
                 first_only: bool = False) -> list[tuple[int, int]]:
        """The productive links out of vertex ``v`` toward ``end``, as
        ``(slot, neighbour vertex)`` pairs.

        The choice set the adaptive router picks from on each hop, computed
        from the coordinate differences.  Per axis X, Y, Z the shorter wrap
        direction; when both are equidistant (an even axis, the target
        exactly opposite) *both* are minimal and both are offered, ``+``
        first — on small tori, dimension-2 axes would otherwise leave half
        their links idle.  ``first_only`` is dimension-ordered routing.
        """
        hops = []
        slot, stride, at, to = 0, 1, v, end
        for size in self.dims:
            fwd = (to - at) % size
            if fwd:
                bwd = size - fwd
                here = at % size
                if fwd <= bwd:
                    hops.append((slot, v + stride if here + 1 < size
                                 else v - stride * here))
                if bwd <= fwd:
                    hops.append((slot + 1, v - stride if here
                                 else v + stride * (size - 1)))
                if first_only:
                    return hops[:1]
            at //= size
            to //= size
            if at == to:
                break
            slot += 2
            stride *= size
        return hops

    def link_slot(self, v: int, nxt: int) -> int:
        """The slot of vertex ``v`` whose link ends at vertex ``nxt``: the
        inverse of :meth:`out_hops`.  The two differ by one step, modulo
        the size, along exactly one axis — the ``+`` slot where both ways
        round a two-node ring end at ``nxt`` — or they name no link."""
        found = -1
        slot, at, to = 0, v, nxt
        for size in self.dims:
            step = (to - at) % size
            if step:
                if found >= 0 or (step != 1 and step != size - 1):
                    break
                found = slot if step == 1 else slot + 1
            at //= size
            to //= size
            slot += 2
        else:
            if found >= 0 and at == to == 0:
                return found
        raise TopologyError(f"no link from vertex {v} to vertex {nxt} "
                            f"of {self!r}")

    def all_coords(self) -> Iterator[Coord]:
        dx, dy, dz = self.dims
        for z, y, x in itertools.product(range(dz), range(dy), range(dx)):
            yield (x, y, z)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Torus3D{self.dims}"


class Dragonfly:
    """A dragonfly: groups of routers, each router hosting terminals.

    The modern-fabric (Slingshot/InfiniBand-class) counterpart of the 3D
    torus.  Shape ``(g, a, p, h)``: ``g`` groups of ``a`` routers, each
    router with ``p`` terminals (nodes) and ``h`` global (optical) ports.
    Within a group the routers are all-to-all connected; between groups,
    global port ``j`` of group ``g`` (owned by router ``j // h``) links to
    group ``(g + j + 1) mod G`` — the wrap-around arrangement that gives
    every ordered group pair exactly one planned route, provided
    ``a * h >= g - 1``.

    Two coordinate kinds flow through the router machinery:

    * **terminal (node) coordinates** ``(group, router, terminal)`` — what
      :meth:`coord_of` / :meth:`id_of` speak, and what every NIC sits at;
    * **router coordinates** ``("rt", group, router)`` — intermediate hops.
      Router-to-router links are keyed by these, so concurrent transfers
      through a shared router contend on *one* link, not one per terminal.

    Direction tokens (the currency of :meth:`minimal_directions` /
    :meth:`neighbor`): ``("up",)`` terminal→router, ``("down", t)``
    router→terminal, ``("local", r)`` intra-group, ``("global", g)``
    inter-group.

    Routing is the classic minimal l-g-l path (local to the gateway,
    global, local to the destination router).
    """

    def __init__(self, groups: int, routers_per_group: int,
                 terminals_per_router: int, global_links: int = 1):
        if min(groups, routers_per_group, terminals_per_router,
               global_links) < 1:
            raise TopologyError(
                f"invalid dragonfly shape g={groups} a={routers_per_group} "
                f"p={terminals_per_router} h={global_links}")
        if groups > 1 and routers_per_group * global_links < groups - 1:
            raise TopologyError(
                f"dragonfly with {groups} groups needs a*h >= {groups - 1} "
                f"global ports per group, have "
                f"{routers_per_group * global_links}")
        self.groups = groups
        self.routers_per_group = routers_per_group
        self.terminals_per_router = terminals_per_router
        self.global_links = global_links

    @classmethod
    def for_nodes(cls, n_nodes: int, routers_per_group: int = 4,
                  terminals_per_router: int = 2,
                  global_links: int = 2) -> "Dragonfly":
        """Smallest balanced dragonfly with at least ``n_nodes`` terminals.

        Groups grow first; when the group count would exceed what ``a*h``
        global ports can reach, the groups are widened instead.
        """
        if n_nodes < 1:
            raise TopologyError(f"need at least one node, got {n_nodes}")
        a, p, h = routers_per_group, terminals_per_router, global_links
        while True:
            g = -(-n_nodes // (a * p))
            if a * h >= g - 1:
                return cls(g, a, p, h)
            a += 1

    # -- structure ---------------------------------------------------------
    @property
    def volume(self) -> int:
        return self.groups * self.routers_per_group * self.terminals_per_router

    @property
    def dims(self) -> tuple[int, int, int]:
        """Shape triple (groups, routers/group, terminals/router)."""
        return (self.groups, self.routers_per_group, self.terminals_per_router)

    def router_of(self, coord: Any) -> tuple:
        """The router coordinate serving ``coord`` (identity for routers)."""
        if coord[0] == "rt":
            return coord
        return ("rt", coord[0], coord[1])

    # -- id <-> coord ------------------------------------------------------
    def coord_of(self, node_id: int) -> Coord:
        if not 0 <= node_id < self.volume:
            raise TopologyError(
                f"node id {node_id} outside dragonfly of {self.volume}")
        p, a = self.terminals_per_router, self.routers_per_group
        t, rest = node_id % p, node_id // p
        r, g = rest % a, rest // a
        return (g, r, t)

    def id_of(self, coord: Coord) -> int:
        if coord[0] == "rt":
            raise TopologyError(f"router coordinate {coord} has no node id")
        return self.vertex(coord)

    # -- global-link plan --------------------------------------------------
    def gateway(self, group: int, dst_group: int) -> int:
        """Router in ``group`` owning the global link toward ``dst_group``."""
        if group == dst_group:
            raise TopologyError(f"no global link from group {group} to itself")
        port = (dst_group - group - 1) % self.groups
        return port // self.global_links

    def is_global_link(self, frm: Any, to: Any) -> bool:
        """True when ``frm -> to`` is an inter-group (optical) router link."""
        return (frm[0] == "rt" and to[0] == "rt" and frm[1] != to[1])

    # -- geometry ----------------------------------------------------------
    def neighbor(self, at: Any, d: Any) -> Any:
        """Coordinate one step from ``at`` along direction token ``d``."""
        kind = d[0]
        if kind == "up":
            return ("rt", at[0], at[1])
        if kind == "down":
            return (at[1], at[2], d[1])
        if kind == "local":
            return ("rt", at[1], d[1])
        # global: land on the peer group's gateway back to us
        g2 = d[1]
        return ("rt", g2, self.gateway(g2, at[1]))

    def neighbors(self, coord: Any) -> Iterator[tuple[Any, Any]]:
        """Yield ``(direction, neighbor_coord)`` for every attached link."""
        if coord[0] != "rt":
            yield ("up",), self.neighbor(coord, ("up",))
            return
        _, g, r = coord
        for t in range(self.terminals_per_router):
            yield ("down", t), self.neighbor(coord, ("down", t))
        for r2 in range(self.routers_per_group):
            if r2 != r:
                yield ("local", r2), self.neighbor(coord, ("local", r2))
        for j in range(r * self.global_links, (r + 1) * self.global_links):
            g2 = (g + j + 1) % self.groups
            if g2 != g:
                yield ("global", g2), self.neighbor(coord, ("global", g2))

    def hop_distance(self, a: Any, b: Any) -> int:
        """Link traversals on the minimal (l-g-l) path from ``a`` to ``b``."""
        if a == b:
            return 0
        total = 0
        if a[0] != "rt":
            total += 1  # up
        if b[0] != "rt":
            total += 1  # down
        ra, rb = self.router_of(a), self.router_of(b)
        if ra == rb:
            return total
        (_, ga, ia), (_, gb, ib) = ra, rb
        if ga == gb:
            return total + 1
        gw_out = self.gateway(ga, gb)
        gw_in = self.gateway(gb, ga)
        return (total + (1 if ia != gw_out else 0) + 1
                + (1 if gw_in != ib else 0))

    def minimal_directions(self, at: Any, dst: Any) -> list:
        """The productive direction(s) from ``at`` toward ``dst``.

        The planned-arrangement dragonfly has exactly one minimal next hop
        at every step, so the list is always empty or a singleton — the
        adaptive router's backlog comparison degenerates to deterministic
        routing (:meth:`out_hops` returns the one pair).
        """
        if at == dst:
            return []
        if at[0] != "rt":
            return [("up",)]
        _, g, r = at
        _, gd, rd = self.router_of(dst)
        if g != gd:
            gw = self.gateway(g, gd)
            return [("global", gd)] if r == gw else [("local", gw)]
        if r != rd:
            return [("local", rd)]
        return [("down", dst[2])]

    def route(self, src: Any, dst: Any) -> list[tuple[Any, Any]]:
        """Minimal route as ``[(from, to), ...]`` hops."""
        hops: list[tuple[Any, Any]] = []
        at = src
        while at != dst:
            d = self.minimal_directions(at, dst)[0]
            nxt = self.neighbor(at, d)
            hops.append((at, nxt))
            at = nxt
        return hops

    # -- the network's out-table: vertices and slots -----------------------
    @property
    def n_vertices(self) -> int:
        return self.volume + self.groups * self.routers_per_group

    def vertex(self, coord: Any) -> int:
        """Terminal ``(g, r, t)`` at its node id, then router
        ``("rt", g, r)`` at ``volume + a*g + r``."""
        p, a = self.terminals_per_router, self.routers_per_group
        if len(coord) == 3:
            g, r, t = coord
            if g == "rt":
                if 0 <= r < self.groups and 0 <= t < a:
                    return self.volume + a * r + t
            elif 0 <= g < self.groups and 0 <= r < a and 0 <= t < p:
                return t + p * (r + a * g)
        raise TopologyError(f"coordinate {coord} is not on {self!r}")

    def vertex_coord(self, v: int) -> Any:
        if v < self.volume:
            return self.coord_of(v)
        return ("rt", *divmod(v - self.volume, self.routers_per_group))

    def fan_out(self, v: int) -> int:
        """A terminal's one slot is ``up``; a router's are its ``p`` downs,
        ``a`` locals (its own unused) and ``h`` global ports."""
        if v < self.volume:
            return 1
        return (self.terminals_per_router + self.routers_per_group
                + self.global_links)

    def out_hops(self, v: int, end: int,
                 first_only: bool = False) -> list[tuple[int, int]]:
        """The one minimal (l-g-l) link out of vertex ``v`` toward ``end``,
        as a ``(slot, neighbour vertex)`` pair: the per-hop arithmetic of
        :meth:`minimal_directions` and :meth:`neighbor`."""
        p, a = self.terminals_per_router, self.routers_per_group
        G, h = self.groups, self.global_links
        V = G * a * p
        if v < V:
            return [(0, V + v // p)]
        g, r = divmod(v - V, a)
        gd, rd = divmod(end // p if end < V else end - V, a)
        if g != gd:
            # gateway(g, gd) owns the port; it lands on gateway(gd, g)
            port = (gd - g - 1) % G
            gw = port // h
            if r != gw:
                return [(p + gw, V + a * g + gw)]
            return [(p + a + port % h, V + a * gd + (g - gd - 1) % G // h)]
        if r != rd:
            return [(p + rd, V + a * g + rd)]
        return [(end % p, end)]

    def link_slot(self, v: int, nxt: int) -> int:
        """The slot of vertex ``v`` whose link ends at vertex ``nxt``: the
        inverse of :meth:`out_hops` — up, down, local, or the planned
        global link between two groups' gateways — or they name no link."""
        p, a = self.terminals_per_router, self.routers_per_group
        V, n = self.volume, self.n_vertices
        if 0 <= v < V:
            if nxt == V + v // p:
                return 0
        elif V <= v < n and 0 <= nxt < V:
            if nxt // p == v - V:
                return nxt % p
        elif V <= v < n and V <= nxt < n:
            (g, r), (g2, r2) = divmod(v - V, a), divmod(nxt - V, a)
            if g == g2:
                if r != r2:
                    return p + r2
            elif r == self.gateway(g, g2) and r2 == self.gateway(g2, g):
                return p + a + (g2 - g - 1) % self.groups % self.global_links
        raise TopologyError(f"no link from vertex {v} to vertex {nxt} "
                            f"of {self!r}")

    def all_coords(self) -> Iterator[Coord]:
        for g in range(self.groups):
            for r in range(self.routers_per_group):
                for t in range(self.terminals_per_router):
                    yield (g, r, t)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Dragonfly(g={self.groups} a={self.routers_per_group} "
                f"p={self.terminals_per_router} h={self.global_links})")
