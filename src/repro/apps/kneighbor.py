"""The kNeighbor benchmark (paper Fig. 10, §V.B).

"each core sends messages to its k left and k right neighbors in a ring
virtual topology.  When each core receives all the 2k messages, it
proceeds to the next iteration.  We measure the total time for sending 2k
messages and receiving 2k ping-back messages. [...] We tested 3 cores on 3
different nodes doing 1-Neighbor communication."

The paper's result — MPI-based latency double the uGNI-based even at 1 MB
despite similar ping-pong latency — comes from the blocking ``MPI_Recv``:
with four large messages converging on each core per iteration, the
MPI-based progress engine serializes transfers it could have overlapped,
while the uGNI layer's BTE GETs proceed concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.charm import Chare, Charm
from repro.faults import FaultConfig
from repro.hardware.config import MachineConfig
from repro.lrts.factory import make_runtime
from repro.lrts.ugni_layer import UgniLayerConfig


@dataclass
class KNeighborResult:
    size: int
    k: int
    n_cores: int
    layer: str
    #: average per-iteration completion time (all sends + all ping-backs)
    iteration_time: float
    iterations: int
    #: layer counters (plus fault/recovery counters when faults were on)
    stats: dict[str, Any] = field(default_factory=dict)


class _Neighbor(Chare):
    def __init__(self, n: int, k: int, size: int, iters: int, warmup: int,
                 sink: list):
        self.n = n
        self.k = k
        self.size = size
        self.iters = iters
        self.warmup = warmup
        self.sink = sink
        self.round = 0
        self.acks = 0
        self.msgs = 0
        self.t_start = 0.0

    def _neighbors(self):
        for d in range(1, self.k + 1):
            yield (self.thisIndex + d) % self.n
            yield (self.thisIndex - d) % self.n

    def begin(self) -> None:
        """Start one iteration on this core."""
        self.round += 1
        if self.thisIndex == 0 and self.round == self.warmup + 1:
            self.t_start = self.now()
        if self.round > self.warmup + self.iters:
            if self.thisIndex == 0:
                elapsed = self.now() - self.t_start
                self.sink.append(elapsed / self.iters)
            return
        for nb in self._neighbors():
            self.thisProxy[nb].visit(self.thisIndex, _size=self.size)

    def visit(self, sender: int) -> None:
        """A neighbor message: bounce it straight back (buffer reuse)."""
        self.msgs += 1
        self.thisProxy[sender].ack(_size=self.size)
        self._maybe_next()

    def ack(self, *_args) -> None:
        self.acks += 1
        self._maybe_next()

    def _maybe_next(self) -> None:
        # counters can run ahead when a fast neighbor starts its next
        # iteration early; consume exactly one iteration's worth
        if self.acks >= 2 * self.k and self.msgs >= 2 * self.k:
            self.acks -= 2 * self.k
            self.msgs -= 2 * self.k
            self.begin()


def kneighbor(
    size: int,
    layer: str = "ugni",
    k: int = 1,
    n_cores: int = 3,
    config: Optional[MachineConfig] = None,
    iters: int = 10,
    warmup: int = 3,
    seed: int = 0,
    layer_config: Optional[UgniLayerConfig] = None,
    faults: Optional[FaultConfig] = None,
    fault_schedule: Iterable[Any] = (),
    engine: Optional[Any] = None,
) -> KNeighborResult:
    """Run kNeighbor with one core per node (the paper's placement).

    ``engine`` swaps in an alternative event engine (e.g. a
    :class:`~repro.parallel.ShardedEngine`) — the determinism regression
    tests run the same config on both engines and diff the metrics.
    """
    for name, value, least in (("size", size, 0), ("k", k, 1),
                               ("iters", iters, 1), ("warmup", warmup, 0)):
        if value < least:
            raise ValueError(f"kneighbor: {name}={value} < {least}")
    cfg = (config or MachineConfig()).replace(cores_per_node=1)
    conv, lrts = make_runtime(n_nodes=n_cores, layer=layer, config=cfg,
                              seed=seed, layer_config=layer_config,
                              faults=faults, fault_schedule=fault_schedule,
                              engine=engine)
    charm = Charm(conv)
    sink: list[float] = []
    arr = charm.create_array(_Neighbor, n_cores,
                             args=(n_cores, k, size, iters, warmup, sink),
                             map="round_robin", name="kneighbor")
    charm.start(lambda pe: arr.begin())
    charm.run(max_events=50_000_000)
    assert sink, "kNeighbor did not finish"
    stats = lrts.stats()
    if layer == "ugni":
        smsg = lrts.gni.smsg
        stats["smsg_in_flight"] = smsg.in_flight()
        stats["smsg_credits_used"] = smsg.credits_used()
    if conv.machine.faults is not None:
        stats["faults"] = conv.machine.faults.stats()
    return KNeighborResult(size=size, k=k, n_cores=n_cores, layer=layer,
                           iteration_time=sink[0], iterations=iters,
                           stats=stats)
