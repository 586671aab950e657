"""Chaos + sanitizer matrix over every machine layer.

One test per layer, selectable with ``pytest -k <layer>``; CI runs them
all in the ``sanitize`` job's full suite.  Each case
runs kNeighbor under the hardest fault mix that layer is specified to
survive (ugni needs its reliability protocol armed for drops; mpi's
simulated transport only tolerates stalls; rdma's RC endpoints recover
drops natively), with the lifecycle sanitizer auditing the whole run.
"""

import pytest

from repro import sanitize
from repro.apps.kneighbor import kneighbor
from repro.faults import FaultConfig
from repro.hardware.config import MachineConfig
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.units import KB

CASES = {
    "ugni": dict(
        config=MachineConfig(sanitize=True),
        layer_config=UgniLayerConfig(reliability=True, max_retries=30),
        faults=FaultConfig(smsg_drop_rate=0.05, smsg_stall_rate=0.05,
                           rdma_error_rate=0.05),
    ),
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
        sanitize.assert_clean(f"{layer} chaos kneighbor")
    finally:
        sanitize.clear_registry()
