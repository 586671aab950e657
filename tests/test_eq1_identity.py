"""Eq. 1 as an identity: the three large-message paths of the uGNI layer
differ by exactly the terms the model charges, computed from
``MachineConfig`` alone.

The paper prices a one-way large message three ways (Eq. 1):
``2(Tmalloc+Tregister) + Trdma + 2Tsmsg`` without the pool,
``2Tmempool + Trdma + 2Tsmsg`` with it and ``Trdma + Tsmsg`` on a
persistent channel.  A two-node ``charm_pingpong`` carries one message at
a time, so no link or port is contended and the differences of its
one-way latencies are sums of constants:

* no-pool − pool is Eq. 1's ``2(Tmalloc+Tregister) − 2Tmempool`` plus two
  terms it omits: the receiver's release before it delivers (``Tfree +
  Tderegister − mempool_free_cpu``), and :func:`envelope_page`, the page
  the 72 B LRTS envelope adds to a page-multiple payload (0.98 µs on the
  default calibration);
* pool − persistent is not Eq. 1's constant ``2Tmempool + Tsmsg``: the
  INIT and the persistent notify are one SMSG each and cancel, and what
  is left is the two pool allocations and one free, the ACK's send CPU
  (sent before the receiver delivers), the GET / PUT ``Trdma`` split,
  which grows with size, the GET's request trip less the PUT's remote
  completion (one ``nic_latency``) and the GET's CQ event.

On a configuration whose durations are multiples of 2**-40 s and whose
bandwidths are powers of two every simulated sum is exact, so the identity
holds bit for bit; on the default calibration the clock's own rounding
leaves well under a femtosecond.  Both engine lanes.
"""

import dataclasses
import math

import pytest

import repro.hardware.machine
from repro.apps.pingpong import charm_pingpong
from repro.hardware.config import MachineConfig
from repro.hardware.machine import Machine
from repro.hardware.router import TorusNetwork
from repro.lrts.messages import CONTROL_BYTES, LRTS_ENVELOPE
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.sim.engine import Engine
from repro.ugni.smsg import SMSG_HEADER
from repro.units import KB, MB

SIZES = (16 * KB, 64 * KB, 256 * KB, 1 * MB, 4 * MB)


def dyadic(cfg: MachineConfig) -> MachineConfig:
    """``cfg`` with every duration on a 2**-40 s grid and the bandwidths
    of the path powers of two: every sum and quotient the path computes
    is then exact.  A GET stays slower than a PUT."""
    grid = {f.name: math.ldexp(round(math.ldexp(getattr(cfg, f.name), 40)),
                               -40)
            for f in dataclasses.fields(cfg)
            if type(getattr(cfg, f.name)) is float
            and "bandwidth" not in f.name}
    return cfg.replace(**grid, link_bandwidth=2.0 ** 33,
                       fma_put_bandwidth=2.0 ** 30,
                       bte_put_bandwidth=2.0 ** 32,
                       bte_get_bandwidth=2.0 ** 31,
                       memcpy_bandwidth=2.0 ** 31)


def envelope_page(c: MachineConfig) -> float:
    """The page the LRTS envelope adds to each no-pool buffer: malloc and
    register it on both sides, deregister it on the receiver."""
    return (2 * (c.malloc_per_page + c.mem_register_per_page)
            + c.mem_deregister_per_page)


def nopool_minus_pool(c: MachineConfig, size: int) -> float:
    n = size + LRTS_ENVELOPE
    return (2 * (c.t_malloc(n) + c.t_register(n) - c.mempool_alloc_cpu)
            + c.t_free(n) + c.t_deregister(n) - c.mempool_free_cpu)


def pool_minus_persistent(c: MachineConfig, size: int) -> float:
    n = size + LRTS_ENVELOPE
    ack_send = (c.smsg_send_cpu
                + (CONTROL_BYTES + SMSG_HEADER) / c.fma_put_bandwidth)
    rdma_split = ((c.bte_get_base + n / c.bte_get_bandwidth)
                  - (c.bte_put_base + n / c.bte_put_bandwidth))
    return (2 * c.mempool_alloc_cpu + c.mempool_free_cpu + ack_send
            + rdma_split + c.nic_latency + c.cq_event_cpu)


class _PureEngine(Engine):
    """A subclass never binds the compiled core: the pure-Python loop."""


@pytest.fixture(params=["c", "pure"])
def lane(request, monkeypatch):
    if request.param == "pure":
        monkeypatch.setattr(repro.hardware.machine, "Engine", _PureEngine)
        monkeypatch.setattr(TorusNetwork, "transfer",
                            TorusNetwork._transfer_py)
    elif Machine(n_nodes=2).engine._core is None:
        pytest.skip("compiled core not bound: 'pure' covers this lane")
    assert (Machine(n_nodes=2).engine._core is None) == (
        request.param == "pure")
    return request.param


def _latencies(cfg: MachineConfig, size: int) -> tuple[float, float, float]:
    def one_way(**kw) -> float:
        return charm_pingpong(size, config=cfg, iters=2, warmup=1,
                              **kw).one_way_latency
    return (one_way(layer_config=UgniLayerConfig(use_mempool=False)),
            one_way(), one_way(persistent=True))


@pytest.mark.parametrize("size", SIZES)
def test_eq1_holds_exactly_on_a_dyadic_machine(lane, size):
    cfg = dyadic(MachineConfig())
    nopool, pool, persistent = _latencies(cfg, size)
    assert nopool - pool == nopool_minus_pool(cfg, size)
    assert pool - persistent == pool_minus_persistent(cfg, size)


@pytest.mark.parametrize("size", SIZES)
def test_eq1_holds_on_the_default_calibration(lane, size):
    cfg = MachineConfig()
    nopool, pool, persistent = _latencies(cfg, size)
    eq1 = 2 * (cfg.t_malloc(size) + cfg.t_register(size)
               - cfg.mempool_alloc_cpu)
    release = (cfg.t_free(size) + cfg.t_deregister(size)
               - cfg.mempool_free_cpu)
    assert envelope_page(cfg) == pytest.approx(0.98e-6, abs=1e-18)
    assert nopool - pool == pytest.approx(
        eq1 + release + envelope_page(cfg), rel=0, abs=1e-15)
    assert pool - persistent == pytest.approx(
        pool_minus_persistent(cfg, size), rel=0, abs=1e-15)


def test_the_pool_to_persistent_gap_grows_with_size():
    """The GET / PUT split makes pool − persistent grow with size, where
    Eq. 1 has a constant."""
    cfg = MachineConfig()
    gaps = [pool_minus_persistent(cfg, s) for s in SIZES]
    assert gaps == sorted(gaps) and gaps[-1] > 10 * gaps[0]
