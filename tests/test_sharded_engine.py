"""The sharded conservative-lookahead engine (repro.parallel).

The load-bearing guarantee is **bit-identity**: a sharded run of any
config produces exactly the sequential engine's results — same event
order, same metrics, same reprs.  The regression tests here run the
fig-10 kNeighbor config on both engines and diff everything; the unit
tests pin the windowing protocol, the fallback triggers, and the Engine
API surface (cancel / until / max_events / peek) on the sharded paths.
"""

from __future__ import annotations

import math

import pytest

from repro.apps.kneighbor import kneighbor
from repro.errors import SimulationError
from repro.faults import FaultConfig, LinkFlap
from repro.hardware.machine import Machine
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.parallel import ShardedEngine
from repro.units import KB

REL = UgniLayerConfig(reliability=True)


def _metrics(result) -> str:
    """Full-precision repr of everything a run produced."""
    return repr((result.iteration_time, sorted(result.stats.items())))


# --------------------------------------------------------------------- #
# bit-identity on the fig-10 kNeighbor config
# --------------------------------------------------------------------- #
class TestBitIdentity:
    @pytest.mark.parametrize("size", [2 * KB, 256 * KB])
    @pytest.mark.parametrize("n_shards", [2, 3])
    def test_kneighbor_matches_sequential(self, size, n_shards):
        seq = kneighbor(size, layer="ugni", iters=30)
        eng = ShardedEngine(n_shards=n_shards)
        shd = kneighbor(size, layer="ugni", iters=30, engine=eng)
        assert _metrics(shd) == _metrics(seq)
        stats = eng.shard_stats()
        assert not stats["sequential"]
        assert stats["fallback_reason"] is None

    def test_sharded_run_actually_shards(self):
        eng = ShardedEngine(n_shards=3)
        kneighbor(2 * KB, layer="ugni", iters=30, engine=eng)
        stats = eng.shard_stats()
        # real windowed execution, not an accidental fallback
        assert stats["windows"] > 0
        assert stats["barriers"] == stats["windows"]
        assert stats["exchanged_events"] > 0
        # the derived lookahead bound must hold for every cross-node path
        assert stats["lookahead_violations"] == 0
        assert stats["shard_pending"] == [0, 0, 0]

    def test_more_shards_than_nodes_still_identical(self):
        seq = kneighbor(2 * KB, layer="ugni", iters=10)
        shd = kneighbor(2 * KB, layer="ugni", iters=10,
                        engine=ShardedEngine(n_shards=8))
        assert _metrics(shd) == _metrics(seq)


# --------------------------------------------------------------------- #
# fallback to sequential execution
# --------------------------------------------------------------------- #
class TestFallback:
    def test_single_shard_is_sequential(self):
        eng = ShardedEngine(n_shards=1)
        seq = kneighbor(2 * KB, layer="ugni", iters=10)
        shd = kneighbor(2 * KB, layer="ugni", iters=10, engine=eng)
        assert _metrics(shd) == _metrics(seq)
        stats = eng.shard_stats()
        assert stats["sequential"]
        assert stats["fallback_reason"] == "single-shard"
        assert stats["windows"] == 0

    def test_lookahead_below_threshold(self):
        eng = ShardedEngine(n_shards=2, lookahead=1e-12, min_lookahead=1e-9)
        seq = kneighbor(2 * KB, layer="ugni", iters=10)
        shd = kneighbor(2 * KB, layer="ugni", iters=10, engine=eng)
        assert _metrics(shd) == _metrics(seq)
        assert eng.shard_stats()["sequential"]
        assert "lookahead-below-threshold" in eng.fallback_reason

    def test_faults_installed_triggers_fallback(self):
        # a zero-rate injector is still an injector: the sharded engine
        # must refuse to window rather than risk a mid-run latency change
        seq = kneighbor(2 * KB, layer="ugni", iters=10)
        eng = ShardedEngine(n_shards=2)
        shd = kneighbor(2 * KB, layer="ugni", iters=10, engine=eng,
                        faults=FaultConfig())
        assert eng.shard_stats()["sequential"]
        assert eng.fallback_reason == "faults-installed"
        assert eng.shard_stats()["windows"] == 0
        # zero-rate injection is bit-identical to no injection, so the
        # fallback run must still match the plain sequential run
        assert repr(shd.iteration_time) == repr(seq.iteration_time)

    def test_fault_schedule_matches_sequential_with_faults(self):
        # the default job is three nodes, a (1, 1, 3) torus: a z link
        sched = [LinkFlap(at=5e-6, frm=(0, 0, 0), to=(0, 0, 1),
                          duration=20e-6)]
        seq = kneighbor(2 * KB, layer="ugni", iters=10, layer_config=REL,
                        faults=FaultConfig(), fault_schedule=sched)
        eng = ShardedEngine(n_shards=3)
        shd = kneighbor(2 * KB, layer="ugni", iters=10, layer_config=REL,
                        faults=FaultConfig(), fault_schedule=sched,
                        engine=eng)
        assert eng.shard_stats()["sequential"]
        assert eng.fallback_reason == "faults-installed"
        assert _metrics(shd) == _metrics(seq)

    def test_stochastic_faults_match_sequential(self):
        seq = kneighbor(2 * KB, layer="ugni", iters=10, layer_config=REL,
                        faults=FaultConfig(smsg_drop_rate=0.05), seed=7)
        eng = ShardedEngine(n_shards=2)
        shd = kneighbor(2 * KB, layer="ugni", iters=10, layer_config=REL,
                        faults=FaultConfig(smsg_drop_rate=0.05), seed=7,
                        engine=eng)
        assert eng.shard_stats()["sequential"]
        assert _metrics(shd) == _metrics(seq)

    def test_link_fault_observed_at_probe(self):
        eng = ShardedEngine(n_shards=2)
        m = Machine(n_nodes=4, engine=eng)
        assert not eng.shard_stats()["sequential"]
        topo = m.network.topology
        (_, nxt), = topo.out_hops(0, 1, first_only=True)
        m.network.fail_link(topo.coord_of(0), topo.vertex_coord(nxt))
        eng.call_at(1e-6, lambda: None)
        eng.run()
        assert eng.shard_stats()["sequential"]
        assert eng.fallback_reason == "link-fault-observed"


# --------------------------------------------------------------------- #
# engine API surface on the sharded code paths
# --------------------------------------------------------------------- #
class TestEngineSurface:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(SimulationError):
            ShardedEngine(n_shards=0)

    def test_event_order_and_fifo_ties(self):
        eng = ShardedEngine(n_shards=2)
        order = []
        eng.call_at(2e-6, order.append, "late")
        eng.call_at(1e-6, order.append, "a")
        eng.call_at(1e-6, order.append, "b")  # same time: FIFO by seq
        eng.run()
        assert order == ["a", "b", "late"]
        assert eng.events_executed == 3

    def test_cancel_before_and_during_run(self):
        eng = ShardedEngine(n_shards=2)
        fired = []
        h = eng.call_at(1e-6, fired.append, "no")
        keep = eng.call_at(2e-6, fired.append, "yes")
        h.cancel()
        assert keep is not h
        eng.run()
        assert fired == ["yes"]

    def test_run_until_clamps_clock(self):
        eng = ShardedEngine(n_shards=2)
        eng.call_at(5e-6, lambda: None)
        t = eng.run(until=1e-6)
        assert t == 1e-6
        assert eng.pending == 1  # the future event survives
        eng.run()
        assert eng.pending == 0
        assert eng.now == 5e-6

    def test_max_events_guard(self):
        eng = ShardedEngine(n_shards=2)

        def rearm():
            eng.call_after(1e-9, rearm)

        eng.call_after(1e-9, rearm)
        with pytest.raises(SimulationError, match="max_events"):
            eng.run(max_events=100)

    def test_peek_pending_step(self):
        eng = ShardedEngine(n_shards=2)
        assert eng.peek() == math.inf
        fired = []
        eng.call_at(3e-6, fired.append, 1)
        eng.call_at(1e-6, fired.append, 2)
        assert eng.peek() == 1e-6
        assert eng.pending == 2
        assert eng.step()
        assert fired == [2]
        assert eng.step()
        assert not eng.step()

    def test_call_at_node_unbound_defaults_to_shard_zero(self):
        eng = ShardedEngine(n_shards=2)
        fired = []
        eng.call_at_node(7, 1e-6, fired.append, "x")
        eng.run()
        assert fired == ["x"]

    def test_call_at_node_rejects_time_travel(self):
        eng = ShardedEngine(n_shards=2)
        eng.call_at(1e-6, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.call_at_node(0, 1e-9, lambda: None)
        with pytest.raises(SimulationError):
            eng.call_at_node(0, math.inf, lambda: None)

    def test_stop_exits_windowed_loop(self):
        eng = ShardedEngine(n_shards=2)
        fired = []
        eng.call_at(1e-6, lambda: (fired.append("a"), eng.stop()))
        eng.call_at(2e-6, fired.append, "b")
        eng.run()
        assert fired == ["a"]
        assert eng.pending == 1
