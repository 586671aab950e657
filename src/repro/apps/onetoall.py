"""The one-to-all benchmark (paper Fig. 9c).

§V.A: "processor 0 sends a message to one core on each remote node, and
each destination core sends an ack message back.  The results of running
this benchmark on 16 nodes [...] for small messages, uGNI-based Charm++
outperforms MPI-based Charm++ by a large margin [...] The large difference
for small messages is due to the difference in how much CPU-time used in
different implementations."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.charm import Chare, Charm
from repro.hardware.config import MachineConfig
from repro.lrts.factory import make_runtime


@dataclass
class OneToAllResult:
    size: int
    layer: str
    n_nodes: int
    #: time from first send until the last ack returns, per iteration,
    #: divided by the number of destinations: an effective per-message
    #: latency comparable across layers
    latency: float
    iterations: int


class _Node(Chare):
    """Index 0 is the root; every other index is a leaf on its own node."""

    def __init__(self, size: int, n_dests: int, iters: int, warmup: int,
                 sink: list):
        self.size = size
        self.n_dests = n_dests
        self.iters = iters
        self.warmup = warmup
        self.sink = sink
        self.acks = 0
        self.round = 0
        self.t_start = 0.0

    def go(self) -> None:
        self.round += 1
        if self.round == self.warmup + 1:
            self.t_start = self.now()
        if self.round > self.warmup + self.iters:
            elapsed = self.now() - self.t_start
            self.sink.append(elapsed / (self.iters * self.n_dests))
            return
        for d in range(1, self.n_dests + 1):
            self.thisProxy[d].hit(_size=self.size)

    def hit(self) -> None:
        self.thisProxy[0].ack(_size=8)

    def ack(self) -> None:
        self.acks += 1
        if self.acks == self.n_dests:
            self.acks = 0
            self.go()


def one_to_all(
    size: int,
    layer: str = "ugni",
    n_nodes: int = 16,
    iters: int = 20,
    warmup: int = 5,
    config: Optional[MachineConfig] = None,
) -> OneToAllResult:
    """Run the Fig. 9c benchmark: root on node 0, one leaf per other node."""
    cfg = config or MachineConfig()
    conv, _ = make_runtime(n_nodes=n_nodes, layer=layer, config=cfg)
    charm = Charm(conv)
    sink: list[float] = []
    n_dests = n_nodes - 1
    cpn = cfg.cores_per_node

    # element i lives on the first core of node i
    def node_map(indices, n_pes):
        return {i: i * cpn for i in indices}

    arr = charm.create_array(_Node, n_nodes,
                             args=(size, n_dests, iters, warmup, sink),
                             map=node_map, name="onetoall")
    charm.start(lambda pe: arr[0].go())
    charm.run(max_events=20_000_000)
    assert sink, "one-to-all did not finish"
    return OneToAllResult(size=size, layer=layer, n_nodes=n_nodes,
                          latency=sink[0], iterations=iters)
