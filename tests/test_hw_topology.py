"""Tests for the 3D torus topology and routing geometry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.hardware.topology import Torus3D, fit_dims


class TestFitDims:
    def test_exact_cube(self):
        assert fit_dims(8) == (2, 2, 2)

    def test_volume_always_sufficient(self):
        for n in [1, 2, 3, 5, 7, 13, 100, 384, 640, 6384]:
            dims = fit_dims(n)
            assert dims[0] * dims[1] * dims[2] >= n

    def test_near_cubic(self):
        dx, dy, dz = fit_dims(1000)
        assert max(dx, dy, dz) <= 2 * min(dx, dy, dz) + 2

    def test_rejects_zero(self):
        with pytest.raises(TopologyError):
            fit_dims(0)


class TestCoordinates:
    def test_id_coord_roundtrip(self):
        t = Torus3D((3, 4, 5))
        for nid in range(t.volume):
            assert t.id_of(t.coord_of(nid)) == nid

    def test_out_of_range_id(self):
        t = Torus3D((2, 2, 2))
        with pytest.raises(TopologyError):
            t.coord_of(8)

    def test_out_of_range_coord(self):
        t = Torus3D((2, 2, 2))
        with pytest.raises(TopologyError):
            t.id_of((2, 0, 0))

    def test_invalid_dims(self):
        with pytest.raises(TopologyError):
            Torus3D((0, 1, 1))

    def test_all_coords_covers_volume(self):
        t = Torus3D((2, 3, 4))
        coords = list(t.all_coords())
        assert len(coords) == 24
        assert len(set(coords)) == 24


class TestDistance:
    def test_self_distance_zero(self):
        t = Torus3D((4, 4, 4))
        assert t.hop_distance((1, 2, 3), (1, 2, 3)) == 0

    def test_wraparound_shortcut(self):
        t = Torus3D((8, 1, 1))
        # 0 -> 7 is one hop backwards around the ring, not 7 forward
        assert t.hop_distance((0, 0, 0), (7, 0, 0)) == 1

    def test_manhattan_on_small_torus(self):
        t = Torus3D((5, 5, 5))
        assert t.hop_distance((0, 0, 0), (2, 1, 2)) == 5

    def test_symmetry(self):
        t = Torus3D((4, 6, 3))
        a, b = (0, 5, 1), (3, 2, 2)
        assert t.hop_distance(a, b) == t.hop_distance(b, a)


class TestRoutes:
    def test_route_length_is_minimal(self):
        t = Torus3D((4, 4, 4))
        src, dst = (0, 0, 0), (2, 3, 1)
        route = t.route(src, dst)
        assert len(route) == t.hop_distance(src, dst)

    def test_route_is_connected(self):
        t = Torus3D((5, 3, 4))
        src, dst = (4, 2, 0), (1, 0, 3)
        at = src
        for frm, to in t.route(src, dst):
            assert frm == at
            # each hop is a real neighbor step
            assert t.hop_distance(frm, to) == 1
            at = to
        assert at == dst

    def test_route_to_self_is_empty(self):
        t = Torus3D((3, 3, 3))
        assert t.route((1, 1, 1), (1, 1, 1)) == []

    def test_minimal_directions_are_productive(self):
        t = Torus3D((6, 6, 6))
        src, dst = (0, 0, 0), (2, 5, 3)
        for d in t.minimal_directions(src, dst):
            nxt = t.wrap((src[0] + d[0], src[1] + d[1], src[2] + d[2]))
            assert t.hop_distance(nxt, dst) == t.hop_distance(src, dst) - 1

    def test_minimal_directions_empty_at_destination(self):
        t = Torus3D((4, 4, 4))
        assert t.minimal_directions((2, 2, 2), (2, 2, 2)) == []

    @pytest.mark.parametrize("dims", [(4, 4, 2), (2, 2, 1), (3, 1, 5),
                                      (6, 5, 4), (6, 1, 3)])
    def test_minimal_directions_are_the_direction_constants(self, dims):
        """Every pair of a small torus against the definition written out
        (X, Y, Z order; the shorter wrap direction; +1 then -1 on a tie),
        and every entry *is* one of ``DIRECTIONS``.  The reference router
        (``tests/_reference_router.py``) walks by this call, so it is
        what holds ``Torus3D.out_hops`` to the definition."""
        t = Torus3D(dims)
        constants = {id(d) for d in Torus3D.DIRECTIONS}
        coords = list(t.all_coords())
        for at in coords:
            for dst in coords:
                want = []
                for axis in range(3):
                    if at[axis] == dst[axis]:
                        continue
                    forward = (dst[axis] - at[axis]) % dims[axis]
                    backward = (at[axis] - dst[axis]) % dims[axis]
                    steps = ([1] if forward < backward else
                             [-1] if backward < forward else [1, -1])
                    for step in steps:
                        d = [0, 0, 0]
                        d[axis] = step
                        want.append(tuple(d))
                got = t.minimal_directions(at, dst)
                assert got == want, (at, dst)
                assert all(id(d) in constants for d in got)

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(1, 6)] * 3),
        data=st.data(),
    )
    def test_property_route_minimal_and_valid(self, dims, data):
        t = Torus3D(dims)
        src = t.coord_of(data.draw(st.integers(0, t.volume - 1)))
        dst = t.coord_of(data.draw(st.integers(0, t.volume - 1)))
        route = t.route(src, dst)
        assert len(route) == t.hop_distance(src, dst)
        at = src
        for frm, to in route:
            assert frm == at
            at = to
        if route:
            assert at == dst


class TestNeighbors:
    def test_six_neighbors(self):
        t = Torus3D((4, 4, 4))
        ns = list(t.neighbors((0, 0, 0)))
        assert len(ns) == 6
        assert ((1, 0, 0), (1, 0, 0)) in ns
        assert ((-1, 0, 0), (3, 0, 0)) in ns
