"""Dragonfly topology: routing geometry and global-link plan."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.hardware.config import MachineConfig
from repro.hardware.machine import Machine
from repro.hardware.router import DragonflyNetwork
from repro.hardware.topology import Dragonfly


def small_dragonflies():
    """Strategy: a dragonfly plus two terminal ids inside it."""
    return st.tuples(
        st.integers(min_value=1, max_value=5),   # groups
        st.integers(min_value=2, max_value=4),   # routers/group
        st.integers(min_value=1, max_value=3),   # terminals/router
        st.integers(min_value=1, max_value=2),   # global links/router
        st.data(),
    )


def _build(g, a, p, h):
    if g > 1 and a * h < g - 1:
        a = -(-(g - 1) // h)  # widen groups until the plan closes
    return Dragonfly(g, a, p, h)


class TestShape:
    def test_rejects_degenerate(self):
        with pytest.raises(TopologyError):
            Dragonfly(0, 4, 2)
        with pytest.raises(TopologyError):
            Dragonfly(4, 1, 1, 1)  # a*h = 1 < g-1 = 3

    def test_for_nodes_covers_and_closes_plan(self):
        for n in [1, 2, 3, 7, 16, 48, 100, 513]:
            d = Dragonfly.for_nodes(n)
            assert d.volume >= n
            assert (d.groups == 1
                    or d.routers_per_group * d.global_links >= d.groups - 1)

    def test_id_coord_roundtrip(self):
        d = Dragonfly(4, 3, 2, 1)
        for nid in range(d.volume):
            assert d.id_of(d.coord_of(nid)) == nid

    def test_router_coord_has_no_id(self):
        d = Dragonfly(3, 4, 2)
        with pytest.raises(TopologyError):
            d.id_of(("rt", 0, 0))


class TestGlobalPlan:
    def test_every_group_pair_reachable(self):
        """The wrap-around arrangement links every ordered group pair."""
        d = Dragonfly(5, 4, 2, 1)
        for g in range(d.groups):
            for g2 in range(d.groups):
                if g == g2:
                    continue
                gw = d.gateway(g, g2)
                assert 0 <= gw < d.routers_per_group
                # the gateway router really advertises that global link
                dirs = [dd for dd, _ in d.neighbors(("rt", g, gw))
                        if dd[0] == "global" and dd[1] == g2]
                assert dirs, f"no global port {g}->{g2} on router {gw}"

    def test_wraparound_pairing_is_symmetric_capable(self):
        """Following a global link lands on the peer's gateway back."""
        d = Dragonfly(5, 4, 2, 1)
        for g in range(d.groups):
            for g2 in range(d.groups):
                if g == g2:
                    continue
                frm = ("rt", g, d.gateway(g, g2))
                to = d.neighbor(frm, ("global", g2))
                assert to == ("rt", g2, d.gateway(g2, g))
                assert d.is_global_link(frm, to)

    def test_no_self_gateway(self):
        d = Dragonfly(4, 4, 2)
        with pytest.raises(TopologyError):
            d.gateway(2, 2)


class TestRouting:
    @settings(max_examples=60, deadline=None)
    @given(small_dragonflies())
    def test_route_valid_and_minimal(self, params):
        """Every route walks real links and matches hop_distance exactly."""
        g, a, p, h, data = params
        d = _build(g, a, p, h)
        src = d.coord_of(data.draw(st.integers(0, d.volume - 1)))
        dst = d.coord_of(data.draw(st.integers(0, d.volume - 1)))
        hops = d.route(src, dst)
        assert len(hops) == d.hop_distance(src, dst)
        at = src
        for frm, to in hops:
            assert frm == at
            assert to in {nb for _, nb in d.neighbors(frm)}
            at = to
        if hops:
            assert at == dst
        else:
            assert src == dst

    @settings(max_examples=60, deadline=None)
    @given(small_dragonflies())
    def test_minimal_next_hop_is_unique(self, params):
        g, a, p, h, data = params
        d = _build(g, a, p, h)
        src = d.coord_of(data.draw(st.integers(0, d.volume - 1)))
        dst = d.coord_of(data.draw(st.integers(0, d.volume - 1)))
        at = src
        while at != dst:
            dirs = d.minimal_directions(at, dst)
            assert len(dirs) == 1
            at = d.neighbor(at, dirs[0])

    def test_hop_distance_bounded_by_diameter(self):
        """Terminal-to-terminal minimal paths are at most 5 links."""
        d = Dragonfly(5, 4, 2, 1)
        for a_ in range(d.volume):
            for b_ in range(d.volume):
                assert d.hop_distance(d.coord_of(a_), d.coord_of(b_)) <= 5

    def test_transfer_takes_the_minimal_route(self):
        """Every transfer walks the l-g-l path: hops == hop distance."""
        cfg = MachineConfig(topology="dragonfly", dragonfly_groups=5,
                            dragonfly_routers_per_group=4,
                            dragonfly_terminals_per_router=2,
                            dragonfly_global_links=1)
        m = Machine(n_nodes=40, config=cfg)
        topo = m.topology
        for a_ in range(0, topo.volume, 3):
            for b_ in range(topo.volume):
                src, dst = topo.coord_of(a_), topo.coord_of(b_)
                hops = m.network.transfer(0.0, src, dst, 1024).hops
                assert hops == topo.hop_distance(src, dst)


class TestNetworkLatency:
    def test_global_links_cost_more(self):
        """Inter-group latency exceeds intra-group by the optical premium."""
        cfg = MachineConfig(topology="dragonfly", dragonfly_groups=5,
                            dragonfly_routers_per_group=4,
                            dragonfly_terminals_per_router=2,
                            dragonfly_global_links=1)
        m = Machine(n_nodes=40, config=cfg)
        assert isinstance(m.network, DragonflyNetwork)
        topo = m.topology
        local = m.network.transfer(0.0, (0, 0, 0), (0, 1, 0), 64)
        # fresh machine: no shared-link contention with the first transfer
        m2 = Machine(n_nodes=40, config=cfg)
        remote_dst = (1, topo.gateway(1, 0), 0)  # same hop count, one global
        remote = m2.network.transfer(
            0.0, (0, topo.gateway(0, 1), 0), remote_dst, 64)
        premium = cfg.dragonfly_global_latency - cfg.hop_latency
        assert remote.head_arrival - local.head_arrival == pytest.approx(
            premium)

    def test_machine_rejects_unknown_topology(self):
        with pytest.raises(TopologyError):
            Machine(n_nodes=4, config=MachineConfig(topology="fat_tree"))
