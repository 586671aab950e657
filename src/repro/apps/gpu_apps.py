"""GPU-aware benchmark applications (after Choi et al., arXiv:2102.12416).

Two benchmarks drive the device-payload send path end-to-end:

* :func:`gpu_pingpong` — the Choi-style latency sweep.  Two chares on two
  nodes bounce a device-resident buffer; run it once per transport
  (``staged`` / ``direct`` / ``auto``) and per size to trace the
  crossover.  The receive-side content digest is transport-invariant, so
  the benchmark can assert that the protocol choice changes *timing
  only*.
* :func:`gpu_kneighbor` — the kNeighbor ring with a per-iteration
  compute kernel launched before the sends go out, exercising the
  kernel-slot occupancy model: communication and device compute overlap,
  and an iteration only advances when both the 2k messages *and* the
  kernel completion have arrived.

Both free every application-owned device buffer before returning, so a
sanitized run's device-leak quiescence check passes on the same code
path the violation tests seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.charm import Chare, Charm
from repro.hardware.config import MachineConfig
from repro.lrts.factory import make_runtime


def _digest(record: list) -> str:
    """sha256 over the order-independent canonical receive record."""
    canon = repr(sorted(record))
    return hashlib.sha256(canon.encode()).hexdigest()


# --------------------------------------------------------------------------- #
# GPU ping-pong
# --------------------------------------------------------------------------- #
@dataclass
class GpuPingPongResult:
    size: int
    layer: str
    transport: str
    one_way_latency: float  # seconds (steady-state average)
    iterations: int
    #: sha256 over every (receiver, round, sender, size) receive event —
    #: identical for staged and direct transports by construction
    digest: str
    stats: dict[str, Any] = field(default_factory=dict)


class _GpuPinger(Chare):
    """Element 0 = ping side, element 1 = pong side; device payloads."""

    def __init__(self, size: int, iters: int, warmup: int, sink: list,
                 record: list):
        self.size = size
        self.iters = iters
        self.warmup = warmup
        self.sink = sink
        self.record = record
        self.round = 0
        self.t_start = 0.0
        self.buf = None

    def _sendbuf(self):
        # the message buffer is reused across iterations (the paper's
        # methodology), so the cudaMalloc cost amortizes over warmup
        if self.buf is None:
            self.buf = self.device_alloc(self.size)
        return self.buf

    def ping(self) -> None:
        self.round += 1
        if self.round == self.warmup + 1:
            self.t_start = self.now()
        if self.round > self.warmup + self.iters:
            elapsed = self.now() - self.t_start
            self.sink.append(elapsed / (2 * self.iters))
            self.thisProxy[1].fin()
            self.device_free(self.buf)
            self.buf = None
            return
        self.thisProxy[1].pong(self.round, _size=self.size,
                               _device=self._sendbuf())

    def pong(self, rnd: int) -> None:
        self.record.append((self.thisIndex, rnd, 0, self.size))
        self.thisProxy[0].ping_back(rnd, _size=self.size,
                                    _device=self._sendbuf())

    def ping_back(self, rnd: int) -> None:
        self.record.append((self.thisIndex, rnd, 1, self.size))
        self.ping()

    def fin(self) -> None:
        """Measurement over: release the pong side's device buffer."""
        if self.buf is not None:
            self.device_free(self.buf)
            self.buf = None


def gpu_pingpong(
    size: int,
    layer: str = "ugni",
    transport: str = "auto",
    config: Optional[MachineConfig] = None,
    iters: int = 30,
    warmup: int = 5,
) -> GpuPingPongResult:
    """One-way latency for a device-resident payload between two nodes.

    ``transport`` pins the protocol (``staged`` / ``direct``) or lets
    :meth:`MachineConfig.gpu_path_for` pick (``auto``).
    """
    cfg = (config or MachineConfig()).replace(
        cores_per_node=1,
        gpus_per_node=max(1, (config or MachineConfig()).gpus_per_node),
        gpu_transport=transport)
    conv, lrts = make_runtime(n_nodes=2, layer=layer, config=cfg)
    charm = Charm(conv)
    sink: list[float] = []
    record: list = []
    arr = charm.create_array(_GpuPinger, 2,
                             args=(size, iters, warmup, sink, record),
                             map="round_robin", name="gpu_pingpong")
    charm.start(lambda pe: arr[0].ping())
    charm.run(max_events=10_000_000)
    assert sink, "GPU ping-pong did not finish"
    stats = lrts.stats()
    stats["gpu_devices"] = {g.gpu_id: g.stats() for g in conv.machine.gpus}
    return GpuPingPongResult(size=size, layer=layer, transport=transport,
                             one_way_latency=sink[0], iterations=iters,
                             digest=_digest(record), stats=stats)


# --------------------------------------------------------------------------- #
# GPU kNeighbor
# --------------------------------------------------------------------------- #
#: the ring: ``KNB_CORES`` chares, one per node, each sending to ``KNB_K``
#: neighbours on either side and launching one ``KNB_KERNEL_S`` kernel
#: per iteration
KNB_CORES = 3
KNB_K = 1
KNB_KERNEL_S = 20e-6


@dataclass
class GpuKNeighborResult:
    size: int
    k: int
    n_cores: int
    layer: str
    transport: str
    iteration_time: float
    iterations: int
    digest: str
    stats: dict[str, Any] = field(default_factory=dict)


class _GpuNeighbor(Chare):
    """kNeighbor with a per-iteration device kernel overlapping the sends."""

    def __init__(self, n: int, k: int, size: int, iters: int, warmup: int,
                 kernel_s: float, sink: list, record: list):
        self.n = n
        self.k = k
        self.size = size
        self.iters = iters
        self.warmup = warmup
        self.kernel_s = kernel_s
        self.sink = sink
        self.record = record
        self.round = 0
        self.acks = 0
        self.msgs = 0
        self.t_start = 0.0
        self.buf = None
        self._kernel_ready = True

    def _neighbors(self):
        for d in range(1, self.k + 1):
            yield (self.thisIndex + d) % self.n
            yield (self.thisIndex - d) % self.n

    def _sendbuf(self):
        if self.buf is None:
            self.buf = self.device_alloc(self.size)
        return self.buf

    def begin(self) -> None:
        self.round += 1
        if self.thisIndex == 0 and self.round == self.warmup + 1:
            self.t_start = self.now()
        if self.round > self.warmup + self.iters:
            if self.thisIndex == 0:
                elapsed = self.now() - self.t_start
                self.sink.append(elapsed / self.iters)
            if self.buf is not None:
                self.device_free(self.buf)
                self.buf = None
            return
        # launch this iteration's kernel first: device compute proceeds
        # while the 2k sends and their ping-backs are in flight
        self._kernel_ready = False
        self.launch_kernel(self.kernel_s, then="kernel_finished")
        for nb in self._neighbors():
            self.thisProxy[nb].visit(self.thisIndex, self.round,
                                     _size=self.size,
                                     _device=self._sendbuf())

    def kernel_finished(self) -> None:
        self._kernel_ready = True
        self._maybe_next()

    def visit(self, sender: int, rnd: int) -> None:
        self.msgs += 1
        self.record.append((self.thisIndex, rnd, sender))
        self.thisProxy[sender].ack(_size=self.size, _device=self._sendbuf())
        self._maybe_next()

    def ack(self, *_args) -> None:
        self.acks += 1
        self._maybe_next()

    def _maybe_next(self) -> None:
        if (self._kernel_ready and self.acks >= 2 * self.k
                and self.msgs >= 2 * self.k):
            self.acks -= 2 * self.k
            self.msgs -= 2 * self.k
            self.begin()


def gpu_kneighbor(
    size: int,
    layer: str = "ugni",
    transport: str = "auto",
    config: Optional[MachineConfig] = None,
    iters: int = 10,
    warmup: int = 3,
) -> GpuKNeighborResult:
    """kNeighbor over device payloads with kernel/communication overlap."""
    cfg = (config or MachineConfig()).replace(
        cores_per_node=1,
        gpus_per_node=max(1, (config or MachineConfig()).gpus_per_node),
        gpu_transport=transport)
    conv, lrts = make_runtime(n_nodes=KNB_CORES, layer=layer, config=cfg)
    charm = Charm(conv)
    sink: list[float] = []
    record: list = []
    arr = charm.create_array(
        _GpuNeighbor, KNB_CORES,
        args=(KNB_CORES, KNB_K, size, iters, warmup, KNB_KERNEL_S, sink,
              record),
        map="round_robin", name="gpu_kneighbor")
    charm.start(lambda pe: arr.begin())
    charm.run(max_events=50_000_000)
    assert sink, "GPU kNeighbor did not finish"
    stats = lrts.stats()
    stats["gpu_devices"] = {g.gpu_id: g.stats() for g in conv.machine.gpus}
    return GpuKNeighborResult(size=size, k=KNB_K, n_cores=KNB_CORES,
                              layer=layer, transport=transport,
                              iteration_time=sink[0], iterations=iters,
                              digest=_digest(record), stats=stats)
