"""The compiled lane of ``TorusNetwork.transfer``: what is not a timing.

``tests/test_router_equivalence.py`` holds both lanes to the frozen oracle
result by result.  Here: a call binds its arguments the way the Python
body's signature does, whatever raises under the lane — a first touch
(``_first_touch``, ``injection_port``, ``ejection_port``),
``LinkTable.reserve``, the observer hook — comes out of it unchanged, with the
Python body's side effects, and leaves the network usable, a coordinate
off the fabric is an error before any router link is touched, a topology
the lane does not mirror is the Python body's, 100,000 warm transfers
(and 17,500 failing ones) leave no object, byte or reference behind, and a
link that falls and rises under a whole machine layer with retransmission
moves no result.

Every test runs on a network as anyone builds it and on one whose
``transfer`` is the kept Python body, so the two are also held to each
other; with the C core loaded the first runs the compiled lane
(``REPRO_PURE_ENGINE=1`` makes them the same function).
"""

import gc
import sys
import tracemalloc

import numpy as np
import pytest

from repro import observe
from repro.apps.kneighbor import kneighbor
from repro.errors import TopologyError
from repro.faults import FaultConfig, LinkFlap
from repro.hardware.config import MachineConfig
from repro.hardware.link import Link, LinkTable
from repro.hardware.router import DragonflyNetwork, TorusNetwork
from repro.hardware.topology import Dragonfly, Torus3D
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.sim import _speed
from tests.test_router_equivalence import (_PythonBody, _PythonBodyDragonfly,
                                           _link_state, _named)

DIMS = (4, 4, 2)


def _names(net):
    """The links of ``net`` by name, in the order they were made."""
    return [name for name, _ in net.links()]


class Lane:
    """Builds networks whose ``transfer`` is one lane: ``lane(**cfg)`` a
    torus network, ``lane.dragonfly()`` a dragonfly."""

    def __init__(self, torus, dragonfly, compiled):
        self.torus = torus
        self._dragonfly = dragonfly
        #: does ``transfer`` on these networks run the compiled lane?
        self.compiled = compiled

    def __call__(self, **cfg):
        return self.torus(Torus3D(DIMS), MachineConfig(**cfg))

    def dragonfly(self):
        return self._dragonfly(Dragonfly(5, 3, 2, 2),
                               MachineConfig(topology="dragonfly"))


@pytest.fixture(params=["bound", "python-body"])
def make(request):
    if request.param == "bound":
        return Lane(TorusNetwork, DragonflyNetwork, _speed.core is not None)
    return Lane(_PythonBody, _PythonBodyDragonfly, False)


class Boom(Exception):
    pass


class RaisingObserver:
    def on_net_transfer(self, src, dst, nbytes, now, depart, hops):
        raise Boom((src, dst, nbytes, now, depart, hops))


class CountingObserver:
    calls = 0

    def on_net_transfer(self, src, dst, nbytes, now, depart, hops):
        self.calls += 1


class TestArgumentBinding:
    def test_every_spelling_of_one_call_agrees(self, make):
        a, b = (0, 0, 0), (2, 3, 1)
        spellings = [
            lambda n: n.transfer(0.0, a, b, 4096, 1.5e9),
            lambda n: n.transfer(0.0, a, b, 4096, bandwidth_cap=1.5e9),
            lambda n: n.transfer(bandwidth_cap=1.5e9, nbytes=4096,
                                 dst=b, src=a, now=0.0),
            # keyword names that are equal to the parameters' without
            # being the interned strings themselves
            lambda n: n.transfer(0.0, a, b, **{
                "".join(["bandwidth", "_cap"]): 1.5e9,
                "".join(["nby", "tes"]): 4096}),
        ]
        results = [call(make()) for call in spellings]
        assert results[0].hops == 4
        assert all(r == results[0] for r in results)

    @pytest.mark.parametrize("args, kwargs", [
        ((0.0, (0, 0, 0), (1, 0, 0)), {}),
        ((0.0, (0, 0, 0)), {"nbytes": 8}),
        ((0.0, (0, 0, 0), (1, 0, 0), 8), {"detour": (1, 1, 0)}),
        ((0.0, (0, 0, 0), (1, 0, 0), 8), {"src": (1, 1, 0)}),
        ((0.0, (0, 0, 0), (1, 0, 0), 8, None, None, None, None), {}),
    ], ids=["missing", "missing-positional", "unknown", "twice", "too-many"])
    def test_a_call_that_does_not_bind_is_the_python_bodys_error(
            self, make, args, kwargs):
        net = make()
        with pytest.raises(TypeError) as want:
            TorusNetwork._transfer_py(net, *args, **kwargs)
        with pytest.raises(TypeError) as got:
            net.transfer(*args, **kwargs)
        assert str(got.value) == str(want.value)
        assert net.messages_routed == 0 and not any(net._inject_made)

    def test_wrong_receiver(self, make):
        with pytest.raises((TypeError, AttributeError)):
            make.torus.transfer(object(), 0.0, (0, 0, 0), (1, 0, 0), 8)


class TestErrorsPropagate:
    def test_route_miss_error(self, make):
        """A route that misses the fabric — a coordinate that is not one —
        is refused after the injection port, before the walk."""
        net = make()
        with pytest.raises(TopologyError):
            net.transfer(0.0, (0, 0, 0), (1, 0), 8)
        assert net.messages_routed == 1
        assert net._inject.transfers[0] == 1
        assert net.transfer(0.0, (0, 0, 0), (1, 0, 0), 8).hops == 1

    @pytest.mark.parametrize("where", ["_first_touch", "injection_port",
                                       "ejection_port"])
    def test_first_touch_error(self, make, where):
        """The three first touches are calls through the instance: what
        one raises comes out, with what the body had done by then."""
        def refuse(self, *args):
            raise Boom(*args)

        net = type("Net", (make.torus,), {where: refuse})(
            Torus3D(DIMS), MachineConfig())
        a, b = (0, 0, 0), (1, 1, 0)
        with pytest.raises(Boom) as err:
            net.transfer(0.0, a, b, 8)
        assert net.messages_routed == 1
        if where == "injection_port":
            assert err.value.args == (a,)
            assert not any(net._inject_made)
        else:
            assert net._inject.transfers[0] == 1
        if where == "_first_touch":
            # vertex 0, its +x slot, towards vertex 1
            assert err.value.args == (0, 0, 1)
        if where == "ejection_port":
            assert err.value.args == (b,)
            assert [lk.transfers for _, lk in net.links()] == [1, 0, 1]
        else:
            assert not _names(net) and net.route_stats()["vertices"] == 0
        assert not any(net._eject_made)

    def test_an_unmirrored_topology_is_the_python_bodys(self, make):
        """The lane mirrors exactly ``Torus3D`` and ``Dragonfly``: on a
        subclass of either every call is the Python body's — its frame is
        seen — and agrees with the lane on the class itself."""
        class Mesh(Torus3D):
            pass

        known, other = make(), make.torus(Mesh(DIMS), MachineConfig())
        calls = [(0.0, (0, 0, 0), (2, 3, 1), 256),
                 (0.0, (3, 1, 0), (0, 0, 1), 4096),
                 (1e-7, (0, 0, 0), (2, 2, 1), 64)]
        frames = []

        def hook(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "_transfer_py":
                frames.append(frame.f_locals["self"])

        sys.setprofile(hook)
        try:
            got = [other.transfer(*call) for call in calls]
            want = [known.transfer(*call) for call in calls]
        finally:
            sys.setprofile(None)
        assert frames[:3] == [other] * 3
        assert len(frames) == (3 if make.compiled else 6)
        assert got == want
        assert _names(other) == _names(known) != []
        assert _link_state(other) == _link_state(known)

    @pytest.mark.parametrize("where", ["hop", "inject", "eject"])
    def test_link_reserve_error(self, make, where, monkeypatch):
        """A link that is not "up" while the network counts no fault (its
        state was set behind the network's back) hands the call to the
        Python body, whose every reserve is ``LinkTable.reserve``: what it
        raises comes out."""
        net = make()
        a, b = (0, 0, 0), (1, 0, 0)
        healthy = net.transfer(0.0, a, b, 8)
        link = {"hop": net.link(a, b), "inject": net.injection_port(a),
                "eject": net.ejection_port(b)}[where]
        link.degrade(0.5)
        slow = net.transfer(1.0, a, b, 8)
        assert slow.arrival - 1.0 > healthy.arrival
        assert link.faulted_transfers == 1

        real = LinkTable.reserve

        def reserve(table, row, now, nbytes, min_occupancy=0.0):
            if Link.at(table, row) == link:
                raise Boom(Link.at(table, row), now, nbytes, min_occupancy)
            return real(table, row, now, nbytes, min_occupancy)

        monkeypatch.setattr(LinkTable, "reserve", reserve)
        with pytest.raises(Boom) as err:
            net.transfer(2, a, b, 8)
        assert err.value.args[0] == link
        if where == "inject":
            # the port is handed `now` as the caller passed it
            assert err.value.args[1:] == (2, 8, net.config.nic_msg_gap)
        monkeypatch.undo()
        link.restore()
        assert net.transfer(3.0, a, b, 8).hops == 1
        assert net.degraded_routes == 0

    def test_single_lane_ports(self, make):
        """``nic_port_lanes=1``: a port is then a link with one horizon."""
        net = make(nic_port_lanes=1)
        first = net.transfer(0, (0, 0, 0), (1, 0, 0), 1 << 20)
        second = net.transfer(0, (0, 0, 0), (1, 0, 0), 1 << 20)
        assert second.depart == first.depart + (1 << 20) / \
            net.config.link_bandwidth
        assert net.injection_port((0, 0, 0)).horizons == (
            2 * (1 << 20) / net.config.link_bandwidth,)

    def test_observer_hook_error(self, make):
        net = make()
        net.observer = RaisingObserver()
        with pytest.raises(Boom) as err:
            net.transfer(0, (0, 0, 0), (1, 1, 0), np.int64(8))
        src, dst, nbytes, now, depart, hops = err.value.args[0]
        assert (src, dst, hops) == ((0, 0, 0), (1, 1, 0), 2)
        # the hook sees the caller's own objects
        assert type(now) is int and type(nbytes) is np.int64
        assert depart == net.config.nic_latency
        net.observer = None
        assert net.transfer(0.0, (0, 0, 0), (1, 1, 0), 8).hops == 2

    def test_the_lane_holds_the_columns(self, make):
        """The compiled lane opens a network's columns on its first call
        and holds their buffers for the network's life: a column cannot be
        resized under it.  The Python body holds nothing."""
        net = make()
        net.transfer(0.0, (0, 0, 0), (1, 1, 0), 8)
        assert (net._columns is not None) == make.compiled
        if make.compiled:
            for column in (net._links.horizons, net._inject.transfers,
                           net._out, net._eject_made):
                with pytest.raises(BufferError):
                    column.append(0)
            with pytest.raises(TypeError):
                type(net._columns)()

    def test_zero_bandwidth_cap(self, make):
        with pytest.raises(ZeroDivisionError):
            make().transfer(0.0, (0, 0, 0), (1, 0, 0), 8, bandwidth_cap=0.0)

    def test_not_a_number(self, make):
        with pytest.raises(TypeError):
            make().transfer(0.0, (0, 0, 0), (1, 0, 0), "8")

    def test_a_negative_size_is_refused_before_any_side_effect(self, make):
        """A negative ``nbytes`` used to run time backwards (the first byte
        arriving after the last) and carry negative bytes; zero is a
        header-only message."""
        net = make()
        a, b = (0, 0, 0), (2, 3, 1)
        for _ in range(2):
            before = (net.messages_routed, net.first_touch(),
                      net.total_bytes_carried())
            with pytest.raises(ValueError):
                net.transfer(0.0, a, b, -1000)
            assert (net.messages_routed, net.first_touch(),
                    net.total_bytes_carried()) == before
            timing = net.transfer(0.0, a, b, 0)
            assert timing.head_arrival <= timing.arrival
        assert net.messages_routed == 2 and net.total_bytes_carried() == 0

    def test_an_off_fabric_destination_is_an_error(self, make):
        """(9, 0, 0) is on no 4-node ring.  The destination is checked
        against the fabric once per message, after the injection port and
        before any router link is touched, degraded or not, and it raises
        every time."""
        net = make()
        a, b = (0, 0, 0), (2, 3, 1)
        for _ in range(2):
            with pytest.raises(TopologyError, match="not on"):
                net.transfer(0.0, a, (9, 0, 0), 8)
        for bad in [(0, 4, 0), (0, 0, 2), (-1, 0, 0)]:
            with pytest.raises(TopologyError):
                net.transfer(0.0, a, bad, 8)
        with pytest.raises(TopologyError):
            net.transfer(0.0, (4, 0, 0), b, 8)
        assert net.messages_routed == 6
        assert net._inject.transfers[0] == 5
        assert [v for v, made in enumerate(net._inject_made) if made] == [0]
        assert not _names(net) and not any(net._eject_made)
        assert net.route_stats() == {"vertices": 0, "links": 0, "hops": 0}
        assert net.transfer(0.0, a, b, 8).hops == 4
        assert net.transfer(1.0, (1, 0, 0), b, 8).hops == 3
        links = _names(net)
        net.fail_link((2, 0, 0), (3, 0, 0))
        for _ in range(2):
            with pytest.raises(TopologyError):
                net.transfer(2.0, a, (9, 0, 0), 8)
        assert _names(net) == links + [((2, 0, 0), (3, 0, 0))]
        net.restore_link((2, 0, 0), (3, 0, 0))
        assert net.transfer(3.0, a, b, 8).hops == 4

    def test_an_off_dragonfly_destination_is_an_error(self, make):
        """Terminals ``(g, r, t)`` of a 5-group, 3-router, 2-terminal
        dragonfly."""
        net = make.dragonfly()
        a, b = (0, 0, 0), (3, 2, 1)
        for bad in [(5, 0, 0), (0, 3, 0), (0, 0, 2), (-1, 0, 0), (0, 0)]:
            with pytest.raises(TopologyError):
                net.transfer(0.0, a, bad, 8)
        assert net._inject.transfers[0] == net.messages_routed == 5
        assert not _names(net) and not any(net._eject_made)
        assert net.route_stats()["vertices"] == 0
        assert (net.transfer(0.0, a, b, 8).hops
                == net.topology.hop_distance(a, b))


class TestOneReserve:
    """The Python body reserves through one method, ``LinkTable.reserve``:
    once per port and once per hop, healthy or with a link down."""

    @pytest.mark.parametrize("down", [False, True],
                             ids=["healthy", "link-down"])
    def test_hops_plus_two_reserves(self, down, monkeypatch):
        calls = []
        real = LinkTable.reserve

        def reserve(table, row, *args):
            calls.append((table, row))
            return real(table, row, *args)

        monkeypatch.setattr(LinkTable, "reserve", reserve)
        net = _PythonBody(Torus3D(DIMS), MachineConfig())
        if down:
            net.fail_link((0, 0, 0), (1, 0, 0))
        vertex = net.topology.vertex
        for src, dst in [((0, 0, 0), (2, 3, 1)),
                         ((0, 0, 0), (1, 1, 0)),
                         ((1, 0, 0), (2, 3, 1)),
                         ((3, 3, 1), (3, 3, 1))]:
            del calls[:]
            hops = net.transfer(0.0, src, dst, 256).hops
            assert len(calls) == hops + 2
            assert calls[0] == (net._inject, vertex(src))
            assert calls[-1] == (net._eject, vertex(dst))
            assert all(table is net._links for table, _ in calls[1:-1])
        assert net.degraded_routes == (4 if down else 0)
        assert (net.link((0, 0, 0), (1, 0, 0)).transfers == 0) == down


class TestAPairThatIsNoLink:
    """``fail_link`` / ``degrade_link`` / ``restore_link`` resolve their
    pair by arithmetic.  A pair that is no link of the fabric used to
    invent one: counted in ``route_stats()`` and the observer's ``links``,
    crossed by no route, and — failed or degraded — enough to hand every
    later transfer to the Python body in dimension-ordered mode."""

    def _refused(self, net, pairs):
        net.transfer(0.0, *pairs[0], 8)   # (src, dst): a route exists
        before = (net.route_stats(), net.first_touch(), _names(net),
                  net.route_mode, net.messages_routed)
        for frm, to in pairs[1:]:
            for call in (lambda: net.fail_link(frm, to),
                         lambda: net.degrade_link(frm, to, 0.5),
                         lambda: net.restore_link(frm, to),
                         lambda: net.link(frm, to)):
                with pytest.raises(TopologyError):
                    call()
        assert not net._faulted and net.faulted_links == 0
        net.transfer(1.0, *pairs[0], 8)
        assert net.degraded_routes == 0
        assert (net.route_stats()["links"], net.first_touch(), _names(net),
                net.route_mode) == (before[0]["links"], *before[1:4])

    def test_torus(self, make):
        self._refused(make(), [
            ((0, 0, 0), (1, 0, 0)),
            ((0, 0, 0), (2, 0, 0)),      # two steps along x
            ((0, 0, 0), (1, 1, 0)),      # one step along two axes
            ((0, 0, 0), (0, 0, 0)),      # no step
            ((0, 0, 0), (9, 9, 9)),      # off the fabric
            ((4, 0, 0), (0, 0, 0)),
            ((0, 0, 0), (1, 0))])

    def test_dragonfly(self, make):
        self._refused(make.dragonfly(), [
            ((0, 0, 0), (3, 2, 1)),
            ((0, 0, 0), (0, 0, 1)),           # terminal to terminal
            ((0, 0, 0), ("rt", 0, 1)),        # terminal to a foreign router
            (("rt", 0, 1), (0, 0, 0)),        # ... and back down
            (("rt", 0, 0), ("rt", 0, 0)),
            (("rt", 0, 2), ("rt", 1, 1)),     # a spare global port
            (("rt", 0, 0), ("rt", 2, 0)),     # not the gateways' pair
            (("rt", 0, 0), ("rt", 5, 0)),     # off the fabric
            ((0, 0, 0), ("rt", 0))])

    def test_a_real_flap_still_round_trips(self, make):
        for net, frm, to in [(make(), (3, 0, 0), (0, 0, 0)),
                             (make(), (0, 0, 0), (0, 0, 1)),
                             (make.dragonfly(), ("rt", 0, 0), ("rt", 1, 1)),
                             (make.dragonfly(), ("rt", 2, 1), (2, 1, 1))]:
            net.fail_link(frm, to)
            lk = net.link(frm, to)
            assert lk.state == "down" and net._faulted == {(frm, to)}
            assert net.route_mode == "dimension-ordered"
            net.restore_link(frm, to)
            net.degrade_link(frm, to, 0.5)
            assert lk.state == "degraded" and lk.faults == 2
            net.restore_link(frm, to)
            assert lk.state == "up" and not net._faulted
            assert net.route_mode == "adaptive"
            assert list(net.links()) == [((frm, to), lk)]


def _flat(run, watched):
    """Run ``run()`` with the collector off and return what it left behind:
    GC-tracked objects, traced bytes, and the reference-count change of
    each of ``watched``."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        # what a first pass allocates and keeps is not a leak: the
        # creation order's growth, fault records
        run(0.1)
        counts = [sys.getrefcount(o) for o in watched]
        objects = len(gc.get_objects())
        traced = tracemalloc.get_traced_memory()[0]
        run()
        objects = len(gc.get_objects()) - objects
        traced = tracemalloc.get_traced_memory()[0] - traced
        after = [sys.getrefcount(o) for o in watched]
        return objects, traced, [a - c for a, c in zip(after, counts)]
    finally:
        tracemalloc.stop()
        gc.enable()


def _columns(net):
    """The network's link tables, their columns and its touch state."""
    tables = (net._links, net._inject, net._eject)
    return [*tables, net._out, net._inject_made, net._eject_made,
            *(getattr(table, column) for table in tables
              for column in ("horizons", "bytes_carried", "transfers",
                             "latency", "faults", "sick"))]


class TestNothingLeaks:
    def test_warm_transfers(self, make):
        """100,000 transfers over warm routes, in every call shape, on a
        torus and a dragonfly."""
        net = make()
        net.observer = CountingObserver()
        topo = net.topology
        coords = [topo.coord_of(i) for i in range(topo.volume)]
        # adaptive routing finds new hops as backlogs shift: fill every
        # slot now, so a later first touch is not "growth"
        for v, at in enumerate(coords):
            for slot, (_, nbr) in enumerate(topo.neighbors(at)):
                net._first_touch(v, slot, topo.vertex(nbr))
        fly = make.dragonfly()
        fly_coords = [fly.topology.coord_of(i)
                      for i in range(fly.topology.volume)]
        clock = [0.0]

        # every transfer is traced, which the Python body pays ~5x: it
        # cannot mis-count a reference, so a tenth is enough to see a cycle
        transfers = 100_000 if make.compiled else 10_000

        def run(share=1.0):
            for _ in range(int(share * transfers) // (4 * 32) + 1):
                clock[0] += 1e-3
                now = clock[0]
                for i in range(topo.volume):
                    src, dst = coords[i], coords[(7 * i + 3) % topo.volume]
                    net.transfer(now, src, dst, 256)
                    net.transfer(now, dst, src, 4096, bandwidth_cap=1.5e9)
                    net.transfer(now=now, src=coords[(i + 5) % 32],
                                 dst=dst, nbytes=64)
                    fly.transfer(now, fly_coords[i % 30],
                                 fly_coords[-1 - i % 30], 256)

        run(0)  # one round: the dragonfly's slots are filled
        watched = [None, coords[0], coords[3], coords[31], fly_coords[0],
                   net.config, net.observer, net.config.nic_msg_gap,
                   net.config.link_bandwidth, net._faulted, *_columns(net),
                   *_columns(fly)]
        objects, traced, refs = _flat(run, watched)
        assert net.messages_routed + fly.messages_routed >= 1.1 * transfers
        assert net.observer.calls == net.messages_routed
        assert objects == 0
        assert traced < 1024, f"{traced} bytes held after warm transfers"
        assert refs == [0] * len(watched)

    def test_failing_transfers(self, make, monkeypatch):
        """17,500 calls that raise at each place the lane calls out or
        refuses the call, or hands it over: to the Python body while a link
        is degraded, and there at ``LinkTable.reserve``."""
        class Net(make.torus):
            def _first_touch(self, v, slot, nxt):
                if v == 31:
                    raise Boom
                return super()._first_touch(v, slot, nxt)

        net = Net(Torus3D(DIMS), MachineConfig(adaptive_routing=False))
        a, b, off, last = (0, 0, 0), (1, 1, 0), (1, 0), (3, 3, 1)
        net.transfer(0.0, a, b, 8)
        limp = net.link((1, 0, 0), (1, 1, 0))
        observer = RaisingObserver()
        reserve = LinkTable.reserve

        def refuse(table, row, now, nbytes, min_occupancy=0.0):
            if nbytes == 13:
                raise Boom
            return reserve(table, row, now, nbytes, min_occupancy)

        monkeypatch.setattr(LinkTable, "reserve", refuse)

        def raises(exc, *args, **kwargs):
            # not pytest.raises: its ExceptionInfo is a reference cycle
            try:
                net.transfer(*args, **kwargs)
            except exc:
                return
            raise AssertionError(f"{exc.__name__} not raised")

        def run(share=1.0):
            for _ in range(int(share * 2_500)):
                raises(TopologyError, 1.0, a, off, 8)
                raises(Boom, 1.0, last, a, 8)
                raises(TypeError, 1.0, a, b, 8.0)
                net.observer = observer
                raises(Boom, 1.0, a, b, 8)
                net.observer = None
                raises(TypeError, 1.0, a, b)
                limp.degrade(0.5)
                raises(Boom, 1.0, a, b, 13)
                limp.restore()

        watched = [None, a, b, off, last, limp, observer, Boom,
                   net.config.nic_msg_gap, net._faulted, *_columns(net)]
        objects, traced, refs = _flat(run, watched)
        fan = net._fan
        assert max(net._out[31 * fan:32 * fan]) < 0
        assert objects == 0
        assert traced < 1024, f"{traced} bytes held after failing transfers"
        assert refs == [0] * len(watched)


class TestFaultsUnderAFullLayer:
    """A link falls and rises in the middle of a uGNI kNeighbor whose SMSGs
    are also dropped and retransmitted: the lane hands whole calls to the
    Python body while the fault is outstanding and carries them again after
    ``restore_link``, and nothing a run reports can tell."""

    FLAP = LinkFlap(at=30e-6, frm=(0, 0, 0), to=(1, 0, 0), duration=40e-6)

    def _run(self, held_runtimes):
        """kNeighbor plus, per transfer, the engine time of the call
        (``calls``: into the compiled lane) and of each frame of the
        Python body (``bodies``)."""
        calls, bodies = [], []

        def hook(frame, event, arg):
            if event == "c_call" and getattr(arg, "__name__", "") == "transfer":
                calls.append(held_runtimes[-1][0].machine.engine.now)
            elif event == "call" and frame.f_code.co_name == "_transfer_py":
                bodies.append(held_runtimes[-1][0].machine.engine.now)

        observe.clear_registry()
        sys.setprofile(hook)
        try:
            res = kneighbor(
                256, layer="ugni", k=2, n_cores=16, iters=8, warmup=2,
                config=MachineConfig(observe=True),
                layer_config=UgniLayerConfig(reliability=True),
                faults=FaultConfig(smsg_drop_rate=0.02),
                fault_schedule=[self.FLAP])
        finally:
            sys.setprofile(None)
        digest = observe.metrics_digest()
        observe.clear_registry()
        return res, held_runtimes[-1][0].machine, digest, calls, bodies

    def test_a_flap_mid_run_moves_nothing(self, held_runtimes, monkeypatch):
        res, machine, digest, calls, bodies = self._run(held_runtimes)
        net = machine.network
        rose = self.FLAP.at + self.FLAP.duration
        assert machine.engine.now > rose
        assert 0 < net.degraded_routes < net.messages_routed
        assert res.stats["rel_retransmits"] > 0
        assert res.stats["faults"]["link_events"] == 2
        assert not net.faulted_links
        if _speed.core is not None:
            # every transfer entered the lane; the Python body ran the
            # degraded ones, none before the link fell or after it rose
            assert len(calls) == net.messages_routed
            assert len(bodies) == net.degraded_routes
            assert self.FLAP.at <= min(bodies) and max(bodies) <= rose
            assert sum(t < self.FLAP.at for t in calls) > 0
            assert sum(t > rose for t in calls) > 0

        monkeypatch.setattr(TorusNetwork, "transfer",
                            TorusNetwork._transfer_py)
        body, body_machine, body_digest, calls, bodies = self._run(
            held_runtimes)
        assert not calls and len(bodies) == net.messages_routed
        assert body.stats == res.stats
        assert repr(body.iteration_time) == repr(res.iteration_time)
        assert body_digest == digest
        assert repr(body_machine.engine.now) == repr(machine.engine.now)
        assert (body_machine.network.degraded_routes, body_machine.network
                .messages_routed) == (net.degraded_routes, net.messages_routed)
