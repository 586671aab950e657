"""Exact pins for reliable uGNI runs: retransmit, re-post and re-arm timing.

The ``ablation_faults`` exhibit prints latencies to four significant
digits, so a retransmit or re-post timer that fires one event later, or
charges one poll more, can leave every rendering unchanged.  These pins
hold every bit of three reliable Charm ping-pongs on whichever engine lane
is loaded (CI runs both): ``repr`` of the one-way latency and the
``rel_retransmits`` / ``post_retries`` / ``persistent_rearms`` counters.

* 64 B with SMSG drops: sequence-numbered retransmission;
* 64 KB with FMA/BTE transaction errors: the rendezvous GET re-posted;
* a persistent channel whose PUT fails: the send window re-registered
  before each re-post.
"""

import pytest

from repro.apps.pingpong import charm_pingpong
from repro.faults import FaultConfig
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.units import KB

RELIABLE = UgniLayerConfig(reliability=True, max_retries=30)

RUNS = {
    "smsg_drop": dict(size=64, faults=FaultConfig(smsg_drop_rate=0.1),
                      seed=1),
    "rdma_error": dict(size=64 * KB, faults=FaultConfig(rdma_error_rate=0.2),
                       seed=2),
    "persistent_rearm": dict(size=4 * KB, persistent=True,
                             faults=FaultConfig(rdma_error_rate=0.2), seed=3),
}

#: run -> (repr(one_way_latency), rel_retransmits, post_retries,
#: persistent_rearms)
PINS = {
    "smsg_drop": ("4.5574464285714474e-06", 27, 0, 0),
    "rdma_error": ("3.343353659148342e-05", 1, 40, 0),
    "persistent_rearm": ("1.6115799031476588e-05", 0, 26, 26),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_reliable_run_is_pinned(run):
    r = charm_pingpong(layer_config=RELIABLE, **RUNS[run])
    s = r.stats
    assert (repr(r.one_way_latency), s["rel_retransmits"], s["post_retries"],
            s["persistent_rearms"]) == PINS[run]
    # every loss was recovered: nothing abandoned
    assert s["rel_failed"] == s["post_failures"] == 0
