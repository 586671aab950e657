"""Tests for the microbenchmark applications (the Fig. 1-10 machinery)."""

import pytest

from repro.apps import kneighbor as kneighbor_mod
from repro.apps import pingpong as pingpong_mod
from repro.apps.kneighbor import kneighbor
from repro.apps.onetoall import one_to_all
from repro.apps.pingpong import charm_pingpong
from repro.apps.raw import fma_bte_latency, mpi_pingpong, ugni_pingpong
from repro.charm import Charm
from repro.hardware.config import tiny as tiny_config
from repro.units import KB, MB, us


class TestRawPingpong:
    def test_ugni_small_matches_calibration(self):
        lat = ugni_pingpong(8)
        assert 0.9 * us < lat < 1.5 * us

    def test_ugni_latency_monotone(self):
        lats = [ugni_pingpong(s) for s in (8, 1 * KB, 64 * KB, 1 * MB)]
        assert all(b > a for a, b in zip(lats, lats[1:]))

    def test_mpi_above_ugni(self):
        for size in (8, 512, 64 * KB):
            assert mpi_pingpong(size) > ugni_pingpong(size)

    def test_mpi_same_vs_diff_buffer_only_matters_beyond_eager(self):
        # inside eager: identical
        assert mpi_pingpong(4 * KB, same_buffer=True) == pytest.approx(
            mpi_pingpong(4 * KB, same_buffer=False))
        # rendezvous: different
        assert (mpi_pingpong(64 * KB, same_buffer=False)
                > mpi_pingpong(64 * KB, same_buffer=True))


class TestFmaBteSweep:
    def test_all_kinds_positive_and_ordered(self):
        for kind in ("fma_put", "fma_get", "bte_put", "bte_get"):
            small = fma_bte_latency(kind, 8)
            large = fma_bte_latency(kind, 1 * MB)
            assert 0 < small < large

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            fma_bte_latency("dma_put", 8)

    def test_put_get_asymmetry(self):
        assert fma_bte_latency("fma_get", 8) > fma_bte_latency("fma_put", 8)


class TestCharmPingpong:
    def test_result_fields(self):
        r = charm_pingpong(88, layer="ugni", iters=5, warmup=2)
        assert r.size == 88 and r.layer == "ugni"
        assert r.one_way_latency > 0
        assert r.bandwidth == pytest.approx(88 / r.one_way_latency)

    def test_intranode_mode(self):
        inter = charm_pingpong(4 * KB, layer="ugni", iters=5, warmup=2)
        intra = charm_pingpong(4 * KB, layer="ugni", intranode=True,
                               iters=5, warmup=2)
        assert intra.one_way_latency != inter.one_way_latency

    def test_persistent_requires_ugni_layer(self):
        from repro.errors import LrtsError

        with pytest.raises(LrtsError):
            charm_pingpong(64 * KB, layer="mpi", persistent=True,
                           iters=2, warmup=1)

    @pytest.mark.parametrize("persistent", [False, True],
                             ids=["plain", "persistent"])
    def test_every_send_is_counted(self, persistent, monkeypatch):
        """Quiescence and the checkpoint audit read ``app_sends`` against
        ``app_executes``: a persistent ping-pong sends through a channel,
        not a proxy call, and must balance them all the same."""
        charms = []
        run = Charm.run

        def record(charm, *args, **kwargs):
            charms.append(charm)
            return run(charm, *args, **kwargs)

        monkeypatch.setattr(Charm, "run", record)
        charm_pingpong(64 * KB, persistent=persistent, iters=5, warmup=1)
        (charm,) = charms
        assert charm.app_sends == charm.app_executes == 13

    def test_deterministic(self):
        a = charm_pingpong(1 * KB, iters=5, warmup=2, seed=1)
        b = charm_pingpong(1 * KB, iters=5, warmup=2, seed=1)
        assert a.one_way_latency == b.one_way_latency


class TestOneToAll:
    def test_runs_and_orders(self):
        small = one_to_all(88, layer="ugni", n_nodes=4, iters=4, warmup=1)
        big = one_to_all(64 * KB, layer="ugni", n_nodes=4, iters=4, warmup=1)
        assert 0 < small.latency < big.latency

    def test_mpi_layer_slower_small(self):
        u = one_to_all(88, layer="ugni", n_nodes=4, iters=4, warmup=1)
        m = one_to_all(88, layer="mpi", n_nodes=4, iters=4, warmup=1)
        assert m.latency > u.latency


class TestKNeighbor:
    def test_completes_with_various_k(self):
        for k, n in ((1, 3), (2, 5)):
            r = kneighbor(1 * KB, k=k, n_cores=n, iters=4, warmup=1)
            assert r.iteration_time > 0

    def test_iteration_time_grows_with_size(self):
        a = kneighbor(1 * KB, iters=4, warmup=1).iteration_time
        b = kneighbor(256 * KB, iters=4, warmup=1).iteration_time
        assert b > a

    def test_blocking_effect_on_mpi(self):
        """The Fig. 10 mechanism at 256KB: MPI >= 1.5x."""
        u = kneighbor(256 * KB, layer="ugni", iters=4, warmup=1)
        m = kneighbor(256 * KB, layer="mpi", iters=4, warmup=1)
        assert m.iteration_time > 1.5 * u.iteration_time


def _no_runtime(*args, **kwargs):
    raise AssertionError("a runtime was built for arguments that cannot work")


class TestLoopArguments:
    """Sizes and loop counts that cannot work are refused, by name, before
    any runtime is built (a negative size once ran and traced as positive
    once the envelope was added; ``iters=0`` divided by zero after the
    run; ``warmup=-1`` returned a timing)."""

    @pytest.mark.parametrize("name, kwargs", [
        ("size", dict(size=-5)), ("k", dict(k=0)), ("iters", dict(iters=0)),
        ("warmup", dict(warmup=-1)),
    ])
    def test_kneighbor(self, name, kwargs, monkeypatch):
        monkeypatch.setattr(kneighbor_mod, "make_runtime", _no_runtime)
        args = {**dict(size=64, n_cores=8, k=2, iters=1, warmup=0), **kwargs}
        with pytest.raises(ValueError, match=f"{name}="):
            kneighbor(**args)

    @pytest.mark.parametrize("name, kwargs", [
        ("size", dict(size=-5)), ("iters", dict(iters=0)),
        ("warmup", dict(warmup=-1)),
    ])
    def test_charm_pingpong(self, name, kwargs, monkeypatch):
        monkeypatch.setattr(pingpong_mod, "make_runtime", _no_runtime)
        args = {**dict(size=64, iters=2, warmup=0), **kwargs}
        with pytest.raises(ValueError, match=f"{name}="):
            charm_pingpong(**args)

    def test_edges_still_run(self):
        assert kneighbor(0, n_cores=3, k=1, iters=1,
                         warmup=0).iteration_time > 0
        assert charm_pingpong(0, iters=1, warmup=0).one_way_latency > 0
