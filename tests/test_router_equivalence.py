"""Differential test: both lanes of the router pass vs the frozen reference.

``tests/_reference_router.py`` is the pre-flatten ``transfer -> _walk ->
_next_direction -> Link.reserve`` composition.  Random streams of
transfers go through it and, side by side, through two live networks: one called as anyone calls it (``transfer`` as
bound — the compiled lane when the C core is loaded) and one whose
``transfer`` is the kept Python body.  Every :class:`TransferTiming`
field and every per-link horizon and counter must be identical, and all
three must have created exactly the same links in the same order (the
count and the rendered names of ``net.links()`` are in the observer's
metrics digest and ``hottest_link`` breaks ties by creation order, so lazy
link creation is part of the contract).

The oracle walks by coordinate and by name; the live networks by vertex and slot (``topology.out_hops``),
which the last tests hold to ``topology.neighbors()``; the live networks
keep no name on a link and resolve ``(frm, to)`` by arithmetic
(``topology.link_slot``), so a pair that is no link is refused where the
oracle would invent one.
"""

import operator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.hardware.config import MachineConfig
from repro.hardware.link import Link
from repro.hardware.router import DragonflyNetwork, TorusNetwork
from repro.hardware.topology import Dragonfly, Torus3D
from tests._reference_router import RefDragonflyNetwork, RefTorusNetwork

SETTINGS = dict(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: sizes are integers: the counters are int64 columns (a ``float`` size is
#: a ``TypeError`` on both lanes, below)
_SIZES = [8, 64, 256, 1536, 4096, 256 * 1024]
_CAPS = [None, 1.5e9, 6.0e9, 1.0e12]
#: the clock starts as the ``int`` 0 and stays one while steps are 0
_DT = [0, 0, 1.0e-8, 5.0e-7, 2.0e-5]
DIMS = (4, 4, 2)
#: even axes > 2 (ties), odd axes, size-1 and size-2 axes
TORUS_DIMS = [(4, 4, 2), (2, 2, 1), (3, 1, 5), (6, 1, 3), (5, 4, 4)]


class _PythonBody(TorusNetwork):
    """A network whose ``transfer`` is the kept Python body, whatever
    :class:`TorusNetwork` binds (a subclass override wins over the lane)."""

    transfer = TorusNetwork._transfer_py


class _PythonBodyDragonfly(DragonflyNetwork, _PythonBody):
    """A dragonfly whose ``transfer`` is the kept Python body."""


def _ops(n_nodes):
    node = st.integers(0, n_nodes - 1)
    transfer = st.tuples(st.sampled_from(_DT), node, node,
                         st.sampled_from(_SIZES), st.sampled_from(_CAPS))
    return st.lists(transfer, min_size=1, max_size=60)


def _named(net):
    """``(name, link)`` for every link and port of a network: by its own
    name on the oracle, by where it sits on a live network."""
    if isinstance(net, RefTorusNetwork):
        return [(lk.name, lk)
                for table in (net._links, net._inject, net._eject)
                for lk in table.values()]
    coord = net.topology.vertex_coord
    return list(net.links()) + [
        ((kind, coord(v)), Link.at(table, v))
        for kind, table, made in (("inject", net._inject, net._inject_made),
                                  ("eject", net._eject, net._eject_made))
        for v in range(len(made)) if made[v]]


def _slot_link(net, v, slot):
    """The link in ``slot`` of vertex ``v`` of a live network, or ``None``
    while the slot is untouched."""
    row = net._out[v * net._fan + slot]
    return None if row < 0 else Link.at(net._links, row)


def _link_state(net):
    """Per-port horizons and counters, keyed by the port's name."""
    return {name: (lk.horizons if type(lk) is Link else tuple(lk._lanes),
                   lk.bytes_carried, lk.transfers)
            for name, lk in _named(net)}


def _drive(lives, ref, ops):
    """Run ``ops`` through every live network and the oracle in step."""
    topo = ref.topology
    coords = [topo.coord_of(i) for i in range(topo.volume)]
    now = 0
    for dt, a, b, nbytes, cap in ops:
        now += dt
        want = ref.transfer(now, coords[a], coords[b], nbytes,
                            bandwidth_cap=cap)
        for live in lives:
            got = live.transfer(now, coords[a], coords[b], nbytes,
                                bandwidth_cap=cap)
            assert (got.depart, got.head_arrival, got.arrival,
                    got.hops) == want
        for live in lives:
            assert [name for name, _ in live.links()] == list(ref._links)
    for live in lives:
        assert _link_state(live) == _link_state(ref)
        assert live.messages_routed == ref.messages_routed


@pytest.mark.parametrize("adaptive", [True, False],
                         ids=["adaptive", "dimension-ordered"])
@pytest.mark.parametrize("dims", TORUS_DIMS)
@settings(**SETTINGS)
@given(data=st.data())
def test_torus_matches_reference(dims, adaptive, data):
    cfg = MachineConfig(adaptive_routing=adaptive,
                        nic_port_lanes=data.draw(st.sampled_from([1, 4])))
    ops = data.draw(_ops(dims[0] * dims[1] * dims[2]))
    _drive([TorusNetwork(Torus3D(dims), cfg), _PythonBody(Torus3D(dims), cfg)],
           RefTorusNetwork(Torus3D(dims), cfg), ops)


@settings(**SETTINGS)
@given(data=st.data())
def test_dragonfly_matches_reference(data):
    cfg = MachineConfig(topology="dragonfly",
                        nic_port_lanes=data.draw(st.sampled_from([1, 4])))

    def topo():
        return Dragonfly(5, 3, 2, 2)

    ops = data.draw(_ops(topo().volume))
    _drive([DragonflyNetwork(topo(), cfg), _PythonBodyDragonfly(topo(), cfg)],
           RefDragonflyNetwork(topo(), cfg), ops)


@pytest.mark.parametrize("make", [TorusNetwork, _PythonBody],
                         ids=["bound", "python-body"])
def test_a_size_is_an_integer(make):
    """Counters are int64 columns: a size ``operator.index`` refuses is its
    ``TypeError`` on either lane, before the network changes; a numpy
    integer is a size like any other."""
    cfg = MachineConfig()
    net, ref = make(Torus3D(DIMS), cfg), _PythonBody(Torus3D(DIMS), cfg)
    a, b = (0, 0, 0), (2, 3, 1)
    before = (_link_state(net), net.first_touch(), net.messages_routed)
    for size in (1536.0, 8.5, "8", None):
        with pytest.raises(TypeError) as want:
            operator.index(size)
        with pytest.raises(TypeError) as got:
            net.transfer(0.0, a, b, size)
        assert str(got.value) == str(want.value)
    assert (_link_state(net), net.first_touch(),
            net.messages_routed) == before
    for size in (np.int64(1536), np.int32(8), True):
        assert net.transfer(0.0, a, b, size) == ref.transfer(
            0.0, a, b, int(size))
    assert _link_state(net) == _link_state(ref)
    lk = net.link(a, (1, 0, 0))
    state = lk.horizons, lk.bytes_carried, lk.transfers
    with pytest.raises(TypeError):
        lk.reserve(0.0, 64.0)
    assert (lk.horizons, lk.bytes_carried, lk.transfers) == state


def _slots_name_their_links(net):
    """Walk every link of the fabric through the out-table: the productive
    hop from a vertex to a neighbour is that neighbour, through a slot of
    the vertex, and the slot fills with the link of that name."""
    topo = net.topology
    slots = set()
    for v in range(topo.n_vertices):
        frm = topo.vertex_coord(v)
        assert topo.vertex(frm) == v
        for _, to in topo.neighbors(frm):
            for slot, nxt in topo.out_hops(v, topo.vertex(to)):
                assert 0 <= slot < topo.fan_out(v)
                # (a dragonfly's spare global port is no minimal route:
                # the hop towards its far end starts on a local link)
                if nxt != topo.vertex(to):
                    assert topo.hop_distance(frm, to) == 2
                    to = topo.vertex_coord(nxt)
                    assert to in [n for _, n in topo.neighbors(frm)]
                lk = Link.at(net._links, net._first_touch(v, slot, nxt))
                assert lk == net.link(frm, to) == _slot_link(net, v, slot)
                # ... and the name resolves back to a slot holding it
                assert lk == _slot_link(net, v, topo.link_slot(v, nxt))
                slots.add((v, slot))
    fan = net._fan
    filled = {divmod(i, fan) for i, row in enumerate(net._out) if row >= 0}
    assert filled == slots
    # every link once, under the name of the pair it was made for
    named = dict(net.links())
    assert len(named) == net.route_stats()["links"] == len(
        set(named.values()))
    assert {_slot_link(net, v, slot) for v, slot in slots} == set(
        named.values())
    for (frm, to), lk in named.items():
        assert lk == net.link(frm, to)
    return slots


@pytest.mark.parametrize("dims", TORUS_DIMS + [(1, 1, 1), (2, 3, 4)])
def test_torus_slots_are_the_neighbours_in_direction_order(dims):
    topo = Torus3D(dims)
    net = TorusNetwork(topo, MachineConfig())
    for v in range(topo.n_vertices):
        at = topo.vertex_coord(v)
        for slot, (_, to) in enumerate(topo.neighbors(at)):
            if to != at:   # a size-1 axis has no link
                assert (slot, topo.vertex(to)) in topo.out_hops(
                    v, topo.vertex(to))
    slots = _slots_name_their_links(net)
    # every slot of every vertex along an axis longer than one
    assert len(slots) == topo.volume * 2 * sum(d > 1 for d in dims)


@pytest.mark.parametrize("shape", [(5, 3, 2, 2), (9, 4, 2, 2), (3, 2, 1, 1),
                                   (1, 1, 1, 1)])
def test_dragonfly_slots_are_up_downs_locals_globals(shape):
    topo = Dragonfly(*shape)
    net = DragonflyNetwork(topo, MachineConfig(topology="dragonfly"))
    slots = _slots_name_their_links(net)
    g, a, p, h = shape
    names = {lk: name for name, lk in net.links()}
    for v, slot in slots:
        frm, to = names[_slot_link(net, v, slot)]
        if v < topo.volume:
            kind = "up"
        else:
            kind = ("down" if slot < p else "local" if slot < p + a
                    else "global")
            assert v == topo.volume + a * frm[1] + frm[2]
        want = {"up": topo.router_of(frm), "down": (*frm[1:], slot),
                "local": ("rt", frm[1], slot - p)}.get(kind)
        assert to == want or (kind == "global"
                              and topo.is_global_link(frm, to))


@pytest.mark.parametrize("topo", [
    Torus3D((4, 4, 2)), Torus3D((2, 2, 1)), Torus3D((3, 1, 5)),
    Torus3D((1, 1, 1)), Dragonfly(5, 3, 2, 2), Dragonfly(3, 2, 1, 1),
    Dragonfly(2, 4, 2, 2), Dragonfly(1, 1, 1, 1)], ids=repr)
def test_a_pair_of_vertices_names_a_slot_or_no_link(topo):
    """``link_slot`` is the inverse of ``out_hops`` on exactly the links
    of the fabric — the one-hop pairs ``neighbors()`` names — and refuses
    every other pair of vertices, and anything that is not a vertex."""
    n = topo.n_vertices
    links = {(v, topo.vertex(to))
             for v in range(n)
             for _, to in topo.neighbors(topo.vertex_coord(v))
             if topo.hop_distance(topo.vertex_coord(v), to) == 1}
    for v in range(n):
        for nxt in range(n):
            if (v, nxt) in links:
                slot = topo.link_slot(v, nxt)
                assert 0 <= slot < topo.fan_out(v)
                assert (slot, nxt) in topo.out_hops(v, nxt)
            else:
                with pytest.raises(TopologyError, match="no link"):
                    topo.link_slot(v, nxt)
        for off in (-1, n, n + 7):
            for pair in ((v, off), (off, v)):
                with pytest.raises(TopologyError):
                    topo.link_slot(*pair)
    # a slot names one neighbour, but for the two ways round a two-node ring
    ends = {}
    for v, nxt in links:
        assert ends.setdefault((v, topo.link_slot(v, nxt)), nxt) == nxt
    assert len(ends) == len(links)
