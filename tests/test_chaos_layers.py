"""Chaos + sanitizer matrix over every machine layer.

One test per layer, selectable with ``pytest -k <layer>``; CI runs them
all in the ``sanitize`` job's full suite.  Each case
runs kNeighbor under the hardest fault mix that layer is specified to
survive (ugni needs its reliability protocol armed for drops; rdma's RC
endpoints recover drops natively), with the lifecycle sanitizer auditing
the whole run, and shows that every injected rate fired.  The ugni and
rdma cases run once more with a node crash on top: kNeighbor cannot
finish, every message sent still ends in one outcome (the ledger), and
only the crashed node's pools leak.
The mpi layer's transport draws no SMSG or RDMA faults, so a rate given
to it is refused at ``make_runtime`` instead of ignored.
"""

import pytest

from repro import sanitize
from repro.apps.kneighbor import _Neighbor, kneighbor
from repro.charm import Charm
from repro.errors import LrtsError
from repro.faults import FaultConfig, NodeCrash
from repro.hardware.config import MachineConfig
from repro.lrts.factory import make_runtime
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.units import KB
from tests.test_faults import SENT_KEYS

CASES = {
    "ugni": dict(
        config=MachineConfig(sanitize=True),
        layer_config=UgniLayerConfig(reliability=True, max_retries=30),
        faults=FaultConfig(smsg_drop_rate=0.05, smsg_stall_rate=0.05,
                           rdma_error_rate=0.05),
    ),
    # its transport draws no SMSG or RDMA faults: the rate is refused
    "mpi": dict(
        config=MachineConfig(sanitize=True),
        layer_config=None,
        faults=FaultConfig(smsg_stall_rate=0.10),
    ),
    "rdma": dict(
        config=MachineConfig(topology="dragonfly", sanitize=True),
        layer_config=None,
        faults=FaultConfig(smsg_drop_rate=0.05, smsg_stall_rate=0.05,
                           rdma_error_rate=0.05),
    ),
}


@pytest.mark.parametrize("layer", sorted(CASES))
def test_chaos_with_sanitizer(layer):
    case = CASES[layer]
    sanitize.clear_registry()
    if layer == "mpi":
        with pytest.raises(LrtsError, match="smsg_stall_rate"):
            kneighbor(16 * KB, layer=layer, config=case["config"], seed=11,
                      faults=case["faults"])
        return
    try:
        clean = kneighbor(16 * KB, layer=layer, config=case["config"],
                          layer_config=case["layer_config"], seed=11)
        faulty = kneighbor(16 * KB, layer=layer, config=case["config"],
                           layer_config=case["layer_config"], seed=11,
                           faults=case["faults"])
        # exactly-once: the application saw the fault-free delivery count
        assert faulty.stats["delivered"] == clean.stats["delivered"]
        # faults cost time, never save it
        assert faulty.iteration_time >= clean.iteration_time
        # and every injected rate fired
        fired = faulty.stats["faults"]
        assert fired["smsg_dropped"] > 0, fired
        assert fired["smsg_stalled"] > 0, fired
        assert fired["rdma_failed"] > 0, fired
        sanitize.assert_clean(f"{layer} chaos kneighbor")
        _crashed_kneighbor(layer, case)
    finally:
        sanitize.clear_registry()


def _kneighbor_runtime(layer, case, schedule=()):
    """kNeighbor's shape (3 nodes, k=1, 16 KB, 10 + 3 iterations) under
    the case's rates, run until the engine drains."""
    conv, lrts = make_runtime(
        n_nodes=3, layer=layer, config=case["config"].replace(
            cores_per_node=1), seed=11, layer_config=case["layer_config"],
        faults=case["faults"], fault_schedule=schedule)
    charm = Charm(conv)
    arr = charm.create_array(_Neighbor, 3, args=(3, 1, 16 * KB, 10, 3, []),
                             map="round_robin", name="kneighbor")
    charm.start(lambda pe: arr.begin())
    charm.run(max_events=50_000_000)
    return conv, lrts


def _crashed_kneighbor(layer, case):
    """The same run with node 1 crashing at 90 % of its span: kNeighbor
    cannot finish, every message sent has one outcome, and no live PE
    keeps a buffer it held for the dead one."""
    span = _kneighbor_runtime(layer, case)[0].engine.now
    conv, lrts = _kneighbor_runtime(
        layer, case, [NodeCrash(at=0.9 * span, node_id=1)])
    stats = lrts.stats()
    sent = sum(stats.get(k, 0) for k in SENT_KEYS)
    dropped_dead = sum(pe.dropped_dead for pe in conv.pes)
    lost = sum(lrts.lost.values())
    assert sent == lrts.delivered + dropped_dead + lost, (
        sent, lrts.delivered, dropped_dead, lrts.lost)
    # the crash cost messages, and every fault kind fired
    assert dropped_dead + lost > 0
    fired = conv.machine.faults.stats()
    assert fired["node_crashes"] == 1, fired
    assert fired["smsg_dropped"] > 0, fired
    assert fired["smsg_stalled"] > 0, fired
    assert fired["rdma_failed"] > 0, fired
    for san in sanitize.active_sanitizers():
        san.check_teardown()
    dead = {f"pool[pe{pe.rank}]" for pe in conv.pes if pe.halted}
    leaks = [v for v in sanitize.collect() if v.kind == "pool-leak"]
    assert all(v.where in dead for v in leaks), "\n".join(map(str, leaks))


@pytest.mark.parametrize("rate", ["smsg_drop_rate", "rdma_error_rate"])
def test_mpi_refuses_fault_rates_it_cannot_inject(rate):
    with pytest.raises(LrtsError, match=rate):
        kneighbor(16 * KB, layer="mpi", seed=11,
                  faults=FaultConfig(**{rate: 0.10}))
