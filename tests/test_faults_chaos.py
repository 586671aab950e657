"""Property-based chaos tests: random fault schedules, fixed invariants.

Hypothesis drives random (but seeded, hence reproducible) combinations of
SMSG drop/stall rates and FMA/BTE error rates through the ping-pong and
kNeighbor benchmarks with reliability enabled, and asserts the invariants
that must survive *any* fault pattern the injector can produce:

* the run completes (no message is lost for good);
* exactly-once delivery — the application sees exactly as many messages
  as the fault-free run, no more (duplicates suppressed) and no fewer;
* conservation — no SMSG credit, mailbox slot, or mempool block leaks:
  after the run everything injected was either delivered or retired.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.apps.kneighbor import kneighbor
from repro.apps.pingpong import charm_pingpong
from repro.faults import FaultConfig
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.lrts.ugni_layer.config import REL_WINDOW_CAP

# generous retry budget: chaos runs may hit long unlucky drop streaks
CHAOS = UgniLayerConfig(reliability=True, max_retries=30)

_SETTINGS = dict(deadline=None, max_examples=12,
                 suppress_health_check=[HealthCheck.too_slow])

rates = st.floats(min_value=0.0, max_value=0.25)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _check_conserved(stats):
    """Nothing leaked: credits returned, packets retired, buffers freed."""
    assert stats["rel_failed"] == 0
    assert stats["smsg_in_flight"] == 0
    assert stats["smsg_credits_used"] == 0
    assert stats["pool_live_blocks"] == 0
    assert stats["pool_live_bytes"] == 0
    # receiver dedup memory is bounded by the OOO window, never O(msgs)
    assert stats["rel_window_peak"] <= REL_WINDOW_CAP


class TestPingPongChaos:
    @given(seed=seeds, drop=rates, stall=rates)
    @settings(**_SETTINGS)
    def test_small_messages_survive_any_schedule(self, seed, drop, stall):
        clean = charm_pingpong(64, layer_config=CHAOS, seed=seed)
        faulty = charm_pingpong(
            64, layer_config=CHAOS, seed=seed,
            faults=FaultConfig(smsg_drop_rate=drop, smsg_stall_rate=stall))
        # completion is asserted inside charm_pingpong; exactly-once means
        # the application delivery count matches the fault-free run
        assert faulty.stats["delivered"] == clean.stats["delivered"]
        _check_conserved(faulty.stats)
        # faults can only cost time, never save it
        assert faulty.one_way_latency >= clean.one_way_latency

    @given(seed=seeds, err=rates)
    @settings(**_SETTINGS)
    def test_rendezvous_survives_transaction_errors(self, seed, err):
        clean = charm_pingpong(64 * 1024, layer_config=CHAOS, seed=seed)
        faulty = charm_pingpong(64 * 1024, layer_config=CHAOS, seed=seed,
                                faults=FaultConfig(rdma_error_rate=err))
        assert faulty.stats["delivered"] == clean.stats["delivered"]
        assert faulty.stats["post_failures"] == 0
        _check_conserved(faulty.stats)
        assert faulty.one_way_latency >= clean.one_way_latency


class TestKNeighborChaos:
    @given(seed=seeds, drop=rates, err=rates)
    @example(seed=557430, drop=0.00390625, err=2.9608449494645436e-71)
    @settings(**_SETTINGS)
    def test_kneighbor_survives_mixed_faults(self, seed, drop, err):
        clean = kneighbor(2048, layer_config=CHAOS, seed=seed)
        faulty = kneighbor(
            2048, layer_config=CHAOS, seed=seed,
            faults=FaultConfig(smsg_drop_rate=drop, rdma_error_rate=err))
        assert faulty.stats["delivered"] == clean.stats["delivered"]
        _check_conserved(faulty.stats)
        # faults can only cost time — to a few ulps: ``iteration_time`` is
        # a difference of sums, and retransmits reorder the additions (the
        # pinned example: seven retransmits, no time saved, 3.5e-15 lower)
        assert faulty.iteration_time >= clean.iteration_time * (1 - 1e-12)
