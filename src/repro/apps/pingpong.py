"""Charm-level ping-pong latency/bandwidth (Figs. 1, 6, 8, 9a, 9b).

Reproduces the paper's methodology (§V.A): "for each iteration, processor
0 sends a message of a certain size to processor 1 on a different node
[...] the average one-way latency is calculated after measuring a thousand
iterations.  In this benchmark, the message buffer is reused" — buffer
reuse is what lets one-time costs (pool arenas, persistent channels,
registration caches) amortize, so we run warm-up iterations before
measuring.
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
class PingPongResult:
    size: int
    layer: str
    one_way_latency: float  # seconds (steady-state average)
    iterations: int
    #: layer counters (plus fault/recovery counters when faults were on)
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def bandwidth(self) -> float:
        """Bytes/second implied by the one-way latency (paper Fig. 9b)."""
        return self.size / self.one_way_latency if self.one_way_latency else 0.0


class _Pinger(Chare):
    """Element 0 = ping side, element 1 = pong side."""

    def __init__(self, size: int, iters: int, warmup: int, sink: list,
                 persistent: bool):
        self.size = size
        self.iters = iters
        self.warmup = warmup
        self.sink = sink
        self.persistent = persistent
        self.round = 0
        self.t_start = 0.0
        self._phandle = None

    # -- sending helpers ----------------------------------------------------
    def _send(self, dst: int, method: str) -> None:
        if self.persistent:
            layer = self.charm.conv.lrts
            key = f"persist->{dst}"
            handle = self.pe.ctx.get(key)
            if handle is None:
                handle = layer.create_persistent(self.pe, self._dst_rank(dst),
                                                 self.size + 1024)
                self.pe.ctx[key] = handle
            layer.send_persistent(self.pe, handle, self.charm.invocation(
                self.pe, self._aid, dst, method, self.size))
        else:
            getattr(self.thisProxy[dst], method)(_size=self.size)

    def _dst_rank(self, idx: int) -> int:
        coll = self.charm.collections[self._aid]
        return coll.home_of(idx)

    # -- protocol ----------------------------------------------------------------
    def ping(self) -> None:
        """Runs on element 0: start (or continue) the iteration loop."""
        self.round += 1
        if self.round == self.warmup + 1:
            self.t_start = self.now()
        if self.round > self.warmup + self.iters:
            elapsed = self.now() - self.t_start
            self.sink.append(elapsed / (2 * self.iters))
            return
        self._send(1, "pong")

    def pong(self) -> None:
        """Runs on element 1: bounce straight back (buffer reuse)."""
        self._send(0, "ping_back")

    def ping_back(self) -> None:
        self.ping()


def charm_pingpong(
    size: int,
    layer: str = "ugni",
    layer_config: Optional[UgniLayerConfig] = None,
    config: Optional[MachineConfig] = None,
    iters: int = 50,
    warmup: int = 10,
    intranode: bool = False,
    persistent: bool = False,
    seed: int = 0,
    faults: Optional[FaultConfig] = None,
    fault_schedule: Iterable[Any] = (),
) -> PingPongResult:
    """One-way Charm++ ping-pong latency between two PEs.

    ``intranode=True`` puts both PEs on one node (Fig. 8c); otherwise they
    sit on different nodes as in the paper.  ``persistent=True`` sends
    through a persistent channel (Fig. 8a).  ``faults`` /
    ``fault_schedule`` install a fault injector; pair a nonzero drop rate
    with ``layer_config.reliability`` or the run will simply hang on the
    first lost message.
    """
    for name, value, least in (("size", size, 0), ("iters", iters, 1),
                               ("warmup", warmup, 0)):
        if value < least:
            raise ValueError(f"charm_pingpong: {name}={value} < {least}")
    cfg = config or MachineConfig()
    if not intranode:
        cfg = cfg.replace(cores_per_node=1)
    conv, lrts = make_runtime(n_nodes=1 if intranode else 2, layer=layer,
                              config=cfg, layer_config=layer_config, seed=seed,
                              faults=faults, fault_schedule=fault_schedule)
    placement = {0: 0, 1: 1}
    charm = Charm(conv)
    sink: list[float] = []
    arr = charm.create_array(
        _Pinger, 2, args=(size, iters, warmup, sink, persistent),
        map=lambda indices, n_pes: placement, name="pingpong")
    charm.start(lambda pe: arr[0].ping())
    charm.run(max_events=10_000_000)
    assert sink, "ping-pong did not finish"
    stats = lrts.stats()
    if layer == "ugni":
        smsg = lrts.gni.smsg
        stats["smsg_in_flight"] = smsg.in_flight()
        stats["smsg_credits_used"] = smsg.credits_used()
    if conv.machine.faults is not None:
        stats["faults"] = conv.machine.faults.stats()
    return PingPongResult(size=size, layer=layer, one_way_latency=sink[0],
                          iterations=iters, stats=stats)
