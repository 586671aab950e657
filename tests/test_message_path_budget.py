"""The small-message path has a call budget, and a fault path.

A 256 B kNeighbor message crosses the scheduler, the uGNI machine layer,
SMSG, the NIC, the router and the CQ.  Host time on that path is dominated
by the *number* of Python calls, so the number is pinned: it is exactly
repeatable (the simulation is deterministic and the counter sees every
call), and it may only go down.  The chaos case drives the same path with
SMSG drops and stalls injected, which is where the arrival still goes
through per-message closures.
"""

import sys

from repro.apps.kneighbor import kneighbor
from repro.faults import FaultConfig
from repro.lrts.ugni_layer import UgniLayerConfig

N_CORES, K, ITERS, WARMUP = 64, 4, 16, 3
#: every core sends 2k messages and gets 2k ping-backs per iteration
APP_MSGS = N_CORES * 2 * K * 2 * (ITERS + WARMUP)
#: Python calls inside ``repro`` per application message, machine set-up
#: included; 66.5 before the path was flattened, ~40 after
CALL_BUDGET = 48.0


def _repro_calls(fn, *args, **kwargs):
    """Run ``fn`` counting Python-level calls into ``repro`` modules."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_globals.get(
                "__name__", "").startswith("repro"):
            calls += 1

    sys.setprofile(hook)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return calls, result


def _run(iters=ITERS, warmup=WARMUP):
    return kneighbor(256, layer="ugni", k=K, n_cores=N_CORES, iters=iters,
                     warmup=warmup)


def test_small_message_call_budget():
    calls, res = _repro_calls(_run)
    assert res.stats["small_sent"] == res.stats["delivered"]
    assert res.stats["delivered"] >= APP_MSGS
    per_msg = calls / APP_MSGS
    assert per_msg <= CALL_BUDGET, (
        f"{per_msg:.1f} Python calls per 256 B message "
        f"(budget {CALL_BUDGET}): the small-message path grew a layer")


def test_call_count_repeats_exactly():
    first, _ = _repro_calls(_run, iters=2, warmup=1)
    second, _ = _repro_calls(_run, iters=2, warmup=1)
    assert first == second


def test_arrival_conserved_under_drops_and_stalls():
    rel = UgniLayerConfig(reliability=True, max_retries=30)
    clean = kneighbor(256, k=2, n_cores=8, iters=6, layer_config=rel, seed=5)
    faulty = kneighbor(
        256, k=2, n_cores=8, iters=6, layer_config=rel, seed=5,
        faults=FaultConfig(smsg_drop_rate=0.1, smsg_stall_rate=0.2))
    injected = faulty.stats["faults"]
    assert injected["smsg_dropped"] > 0 and injected["smsg_stalled"] > 0
    # exactly-once delivery, and nothing left in the fabric: every send
    # either arrived (promptly or after its stall) or was dropped with
    # its credit reclaimed
    assert faulty.stats["delivered"] == clean.stats["delivered"]
    assert faulty.stats["rel_failed"] == 0
    assert faulty.stats["smsg_in_flight"] == 0
    assert faulty.stats["smsg_credits_used"] == 0
