"""The rdma machine layer: crossover paths, pin-down cache, chaos."""

import pytest

from repro import sanitize
from repro.apps.kneighbor import kneighbor
from repro.apps.nqueens import run_nqueens
from repro.apps.pingpong import charm_pingpong
from repro.errors import LrtsError
from repro.faults import FaultConfig
from repro.hardware.config import MachineConfig
from repro.lrts.messages import LRTS_ENVELOPE
from repro.lrts.rdma_layer import RdmaLayerConfig
from repro.units import KB

DF = MachineConfig(topology="dragonfly")


def _pp(size, **kw):
    return charm_pingpong(size, layer="rdma", **kw)


class TestCrossoverPaths:
    def test_inline_path(self):
        r = _pp(64)
        assert r.stats["inline_sent"] > 0
        assert r.stats["eager_sent"] == r.stats["rendezvous_sent"] == 0

    def test_eager_path(self):
        r = _pp(4 * KB)
        assert r.stats["eager_sent"] > 0
        assert r.stats["rendezvous_sent"] == 0
        assert r.stats["eager_pool_bytes"] > 0

    def test_rendezvous_get_path(self):
        r = _pp(64 * KB)
        assert r.stats["rendezvous_sent"] > 0
        assert r.stats["rdma_gets"] > 0 and r.stats["rdma_puts"] == 0

    def test_crossover_constants_honoured(self):
        """The layer's own constants, not uGNI's SMSG/FMA/BTE split: its
        path counters read the ladder at both boundaries, one byte either
        side of each (sizes on the wire, ``LRTS_ENVELOPE`` included)."""
        cfg = MachineConfig()

        def path(total):
            s = _pp(total - LRTS_ENVELOPE).stats
            (taken,) = [p for p in ("inline", "eager", "rendezvous")
                        if s[f"{p}_sent"]]
            return taken

        assert [path(cfg.rdma_inline_max), path(cfg.rdma_inline_max + 1),
                path(cfg.rdma_eager_max), path(cfg.rdma_eager_max + 1)] == [
            "inline", "eager", "eager", "rendezvous"]

    def test_latency_ordering(self):
        """Bigger messages cost more; inline is the fastest path."""
        small = _pp(64).one_way_latency
        eager = _pp(4 * KB).one_way_latency
        rndv = _pp(64 * KB).one_way_latency
        assert small < eager < rndv

    def test_config_validation(self):
        with pytest.raises(LrtsError):
            RdmaLayerConfig(retry_count=-1)
        with pytest.raises(LrtsError):
            RdmaLayerConfig(retransmit_timeout=0.0)


class TestPersistent:
    def test_persistent_beats_rendezvous(self):
        plain = _pp(64 * KB)
        persist = _pp(64 * KB, persistent=True)
        assert persist.stats["persistent_sent"] > 0
        assert persist.stats["persistent_failed"] == 0
        # pre-negotiated windows skip the RTS/CTS handshake every send
        assert persist.one_way_latency < plain.one_way_latency

    def test_persistent_on_dragonfly(self):
        r = _pp(16 * KB, persistent=True, config=DF)
        assert r.stats["persistent_sent"] > 0


class TestPinDownCache:
    def test_rendezvous_reuses_pinned_buffers(self):
        r = _pp(64 * KB, iters=20)
        assert r.stats["pin_misses"] > 0
        # steady-state ping-pong hits the cache almost every iteration
        assert r.stats["pin_hits"] > r.stats["pin_misses"]
        assert r.stats["pin_evictions"] == 0

    def test_tiny_cache_evicts(self):
        """A cap below the block size degenerates to register-per-message."""
        cfg = MachineConfig(rdma_pin_cache_bytes=32 * KB)
        r = _pp(60 * KB, iters=10, config=cfg)
        assert r.stats["pin_evictions"] > 0
        assert r.stats["pin_hits"] == 0
        # cached bytes stay under the cap after every release
        assert r.stats["pin_cached_bytes"] <= 32 * KB


class TestApplications:
    def test_kneighbor_on_dragonfly(self):
        r = kneighbor(16 * KB, layer="rdma", config=DF)
        assert r.iteration_time > 0
        assert r.stats["rc_lost"] == 0

    def test_nqueens_on_dragonfly(self):
        cfg = MachineConfig(topology="dragonfly").replace(cores_per_node=4)
        r = run_nqueens(7, 4, n_pes=8, layer="rdma", config=cfg)
        assert r.solutions == 40

    def test_torus_also_works(self):
        """The rdma layer is fabric-model + topology, not topology-bound."""
        r = kneighbor(2 * KB, layer="rdma")
        assert r.iteration_time > 0


class TestChaos:
    CHAOS = FaultConfig(smsg_drop_rate=0.05, smsg_stall_rate=0.05,
                        rdma_error_rate=0.05)

    def test_kneighbor_survives_faults_with_sanitizer(self):
        sanitize.clear_registry()
        try:
            cfg = DF.replace(sanitize=True)
            clean = kneighbor(16 * KB, layer="rdma", config=cfg, seed=3)
            faulty = kneighbor(16 * KB, layer="rdma", config=cfg, seed=3,
                               faults=self.CHAOS)
            assert faulty.stats["delivered"] == clean.stats["delivered"]
            assert faulty.stats["rc_lost"] == 0
            assert faulty.stats["rndv_failed"] == 0
            # every injected drop was recovered by an RC retransmission
            injected = faulty.stats["faults"]["smsg_dropped"]
            recovered = (faulty.stats["rc_retransmits"]
                         + faulty.stats["ud_dropped"])
            assert recovered == injected
            assert (faulty.stats["rdma_retransmits"]
                    == faulty.stats["faults"]["rdma_failed"])
            sanitize.assert_clean("rdma chaos kneighbor")
        finally:
            sanitize.clear_registry()

    def test_faults_only_cost_time(self):
        clean = _pp(16 * KB, seed=5)
        faulty = _pp(16 * KB, seed=5, faults=self.CHAOS)
        assert faulty.stats["delivered"] == clean.stats["delivered"]
        assert faulty.one_way_latency >= clean.one_way_latency

    def test_zero_rate_faults_change_nothing(self):
        """Installed-but-zero injector must not perturb timing (no RNG)."""
        clean = _pp(4 * KB, seed=1)
        zero = _pp(4 * KB, seed=1, faults=FaultConfig())
        assert repr(zero.one_way_latency) == repr(clean.one_way_latency)


class TestIntranode:
    def test_same_node_uses_pxshm(self):
        cfg = MachineConfig().replace(cores_per_node=2)
        r = charm_pingpong(2 * KB, layer="rdma", config=cfg, intranode=True)
        assert r.stats["intranode_sent"] > 0
        assert r.stats["rc_packets"] == 0
