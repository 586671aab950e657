"""Tests for RNG streams and unit helpers."""

import pytest

from repro.sim.rng import RngRegistry
from repro import units


class TestRng:
    def test_same_name_same_stream_object(self):
        reg = RngRegistry(7)
        assert reg.stream("a") is reg.stream("a")

    def test_streams_reproducible_across_registries(self):
        a = RngRegistry(7).stream("tasks").integers(0, 1000, size=10)
        b = RngRegistry(7).stream("tasks").integers(0, 1000, size=10)
        assert list(a) == list(b)

    def test_different_names_independent(self):
        reg = RngRegistry(7)
        a = list(reg.stream("a").integers(0, 10**9, size=5))
        b = list(reg.stream("b").integers(0, 10**9, size=5))
        assert a != b

    def test_new_consumer_does_not_perturb_existing(self):
        reg1 = RngRegistry(7)
        _ = reg1.stream("extra").random()  # extra consumer first
        a1 = list(reg1.stream("tasks").integers(0, 10**9, size=5))
        reg2 = RngRegistry(7)
        a2 = list(reg2.stream("tasks").integers(0, 10**9, size=5))
        assert a1 == a2

    def test_seed_changes_stream(self):
        a = list(RngRegistry(1).stream("x").integers(0, 10**9, size=5))
        b = list(RngRegistry(2).stream("x").integers(0, 10**9, size=5))
        assert a != b


class TestUnits:
    def test_pages(self):
        assert units.pages(1) == 1
        assert units.pages(4096) == 1
        assert units.pages(4097) == 2
        assert units.pages(0) == 1

    def test_fmt_time(self):
        assert units.fmt_time(1.6e-6) == "1.6us"
        assert units.fmt_time(3.2e-3) == "3.2ms"
        assert units.fmt_time(2.0) == "2s"
        assert units.fmt_time(5e-9) == "5ns"

    def test_fmt_size(self):
        assert units.fmt_size(88) == "88"
        assert units.fmt_size(1024) == "1K"
        assert units.fmt_size(64 * 1024) == "64K"
        assert units.fmt_size(4 * 1024 * 1024) == "4M"
