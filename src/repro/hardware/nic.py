"""The Gemini NIC model: FMA and BTE transfer engines.

The distinction the paper's design hinges on (§II.A):

* **FMA** (Fast Memory Access) — the *CPU* stores data through a mapped
  window.  Lowest latency, highest small-message rate, but the issuing
  core is busy for the whole transfer (`cpu_time` below grows with size).
* **BTE** (Block Transfer Engine) — the CPU posts a descriptor and the
  NIC's DMA engine does the rest.  Higher startup latency, best bandwidth,
  and crucially the CPU is *free* — this is what lets the uGNI-based
  runtime overlap large receives with useful work while the MPI-based
  runtime sits in a blocking ``MPI_Recv`` (paper §V.B).

The BTE engine is a serialized per-NIC resource: concurrent transfers
queue, which the kNeighbor benchmark exercises.

All methods return the **CPU time** the issuing core must be charged, and
schedule completion callbacks on the engine:

* ``on_remote_data(t)`` — last byte landed in remote memory (PUT / SMSG);
* ``on_local_cq(t)`` — local completion event (source buffer reusable for
  PUT, data landed locally for GET).

Every callback may come with arguments, appended after ``t`` — callers on
a hot path pass a bound method plus its arguments instead of building a
closure per transfer.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.hardware.config import MachineConfig
from repro.hardware.router import TorusNetwork
from repro.hardware.topology import Coord
from repro.sim.engine import Engine

if TYPE_CHECKING:
    from repro.hardware.node import Node


class TransferKind(enum.Enum):
    FMA_PUT = "fma_put"
    FMA_GET = "fma_get"
    BTE_PUT = "bte_put"
    BTE_GET = "bte_get"


#: the members as module constants for the per-post paths: reading a
#: member off an Enum class is a descriptor call (~0.2 us on CPython 3.11)
FMA_PUT, FMA_GET, BTE_PUT, BTE_GET = (
    TransferKind.FMA_PUT, TransferKind.FMA_GET, TransferKind.BTE_PUT,
    TransferKind.BTE_GET)


class GeminiNIC:
    """One node's NIC: SMSG path, FMA unit, BTE engine, loopback."""

    def __init__(
        self,
        engine: Engine,
        network: TorusNetwork,
        config: MachineConfig,
        node_id: int,
        coord: Coord,
    ):
        self.engine = engine
        self.network = network
        self.config = config
        self.node_id = node_id
        self.coord = coord
        #: BTE DMA engine horizon (serialized per NIC)
        self.bte_available_at = 0.0
        #: loopback path horizon (intra-node traffic through the NIC)
        self.loopback_available_at = 0.0
        # lifetime counters
        self.smsg_sent = 0
        self.rdma_posted = 0
        #: fault-injected FMA/BTE transactions that ended in an error CQ event
        self.transaction_errors = 0

    # ------------------------------------------------------------------ #
    # SMSG path (small messages into a remote mailbox)
    # ------------------------------------------------------------------ #
    def smsg_send(
        self,
        dst: "Node",
        nbytes: int,
        on_remote_data: Callable[..., None],
        *args: Any,
        at: Optional[float] = None,
    ) -> float:
        """Send a small message to node ``dst``; returns sender CPU time.

        The payload is FMA-stored into the remote mailbox, so CPU cost
        includes the per-byte store term.  ``on_remote_data(arrival,
        *args)`` fires on the destination node when the last byte lands.
        ``at`` is the simulated time the issuing core reaches this call
        (defaults to engine.now); handlers executing ahead of the engine
        clock pass their vtime.
        """
        cfg = self.config
        engine = self.engine
        now = engine.now if at is None else at
        cpu = cfg.smsg_send_cpu + nbytes / cfg.fma_put_bandwidth
        arrival = self.network.transfer(
            now + cpu, self.coord, dst.coord, nbytes,
            bandwidth_cap=cfg.fma_put_bandwidth,
        ).arrival
        self.smsg_sent += 1
        # remote-data lands on the destination node's shard
        engine.post_at_node(dst.node_id, arrival, on_remote_data, arrival,
                            *args)
        return cpu

    # ------------------------------------------------------------------ #
    # FMA / BTE one-sided transfers
    # ------------------------------------------------------------------ #
    def post_transfer(
        self,
        kind: TransferKind,
        peer_coord: Coord,
        nbytes: int,
        on_local_cq: Optional[Callable[..., None]] = None,
        on_remote_data: Optional[Callable[..., None]] = None,
        at: Optional[float] = None,
        local_args: tuple = (),
        remote_args: tuple = (),
    ) -> float:
        """Execute a one-sided transfer; returns issuing-core CPU time.

        For PUT, data flows ``self -> peer``; for GET, ``peer -> self``.
        The remote side gets no event for a GET of its memory — which is
        exactly why the paper's GET-based rendezvous needs an ACK_TAG
        SMSG (§III.C).  The callbacks fire as ``on_local_cq(t,
        *local_args)`` / ``on_remote_data(t, *remote_args)``.
        """
        cfg = self.config
        now = self.engine.now if at is None else at
        self.rdma_posted += 1
        # event routing for sharded engines: data-arrival callbacks fire
        # on the node where the data lands, completion CQs on this node
        if on_remote_data is not None:
            peer_node = self.network.topology.id_of(peer_coord)

        if kind is FMA_PUT:
            cpu = cfg.fma_issue_cpu + nbytes / cfg.fma_put_bandwidth
            timing = self.network.transfer(
                now + cfg.fma_issue_cpu, self.coord, peer_coord, nbytes,
                bandwidth_cap=cfg.fma_put_bandwidth,
            )
            arrive = timing.arrival
            if on_remote_data is not None:
                self.engine.post_at_node(peer_node, arrive, on_remote_data,
                                         arrive, *remote_args)
            if on_local_cq is not None:
                t_cq = arrive + cfg.nic_latency + timing.hops * cfg.hop_latency
                self.engine.post_at_node(self.node_id, t_cq, on_local_cq, t_cq,
                                         *local_args)
            return cpu

        if kind is FMA_GET:
            cpu = cfg.fma_issue_cpu + nbytes / cfg.fma_get_bandwidth
            # request header travels to the peer first
            req = self.network.transfer(
                now + cfg.fma_issue_cpu, self.coord, peer_coord, 64)
            timing = self.network.transfer(
                req.head_arrival, peer_coord, self.coord, nbytes,
                bandwidth_cap=cfg.fma_get_bandwidth,
            )
            arrive = timing.arrival
            if on_remote_data is not None:  # pragma: no cover - GETs don't notify
                self.engine.post_at_node(peer_node, arrive, on_remote_data,
                                         arrive, *remote_args)
            if on_local_cq is not None:
                t_cq = arrive + cfg.cq_event_cpu
                self.engine.post_at_node(self.node_id, t_cq, on_local_cq, t_cq,
                                         *local_args)
            return cpu

        # BTE: post descriptor, engine does the work
        cpu = cfg.bte_post_cpu
        start = max(now + cpu, self.bte_available_at)
        if kind is BTE_PUT:
            setup, bw = cfg.bte_put_base, cfg.bte_put_bandwidth
            timing = self.network.transfer(
                start + setup, self.coord, peer_coord, nbytes, bandwidth_cap=bw)
            arrive = timing.arrival
            local_cq = arrive + cfg.nic_latency + timing.hops * cfg.hop_latency
        else:  # BTE_GET
            setup, bw = cfg.bte_get_base, cfg.bte_get_bandwidth
            req = self.network.transfer(start + setup, self.coord, peer_coord, 64)
            timing = self.network.transfer(
                req.head_arrival, peer_coord, self.coord, nbytes, bandwidth_cap=bw)
            arrive = timing.arrival
            local_cq = arrive + cfg.cq_event_cpu
        self.bte_available_at = start + setup + nbytes / bw
        if on_remote_data is not None and kind is BTE_PUT:
            self.engine.post_at_node(peer_node, arrive, on_remote_data, arrive,
                                     *remote_args)
        if on_local_cq is not None:
            self.engine.post_at_node(self.node_id, local_cq, on_local_cq,
                                     local_cq, *local_args)
        return cpu

    def failed_transfer(
        self,
        kind: TransferKind,
        peer_coord: Coord,
        nbytes: int,
        on_error: Callable[..., None],
        *args: Any,
        frac: float = 0.5,
        at: Optional[float] = None,
    ) -> float:
        """A transfer that dies in the fabric partway through.

        Models ``GNI_RC_TRANSACTION_ERROR``: a fraction ``frac`` of the
        payload occupies the wire (real faults burn real bandwidth before
        the NIC notices), then the error completion ``on_error(t, *args)``
        comes back to the initiator after the usual CQ round trip.  Returns
        issuing-core CPU time, mirroring :meth:`post_transfer`.
        """
        cfg = self.config
        now = self.engine.now if at is None else at
        self.rdma_posted += 1
        self.transaction_errors += 1
        wasted = max(64, int(nbytes * frac))

        if kind is FMA_PUT or kind is FMA_GET:
            cpu = cfg.fma_issue_cpu + wasted / cfg.fma_put_bandwidth
            timing = self.network.transfer(
                now + cfg.fma_issue_cpu, self.coord, peer_coord, wasted,
                bandwidth_cap=cfg.fma_put_bandwidth,
            )
        else:
            cpu = cfg.bte_post_cpu
            setup = cfg.bte_put_base if kind is BTE_PUT else cfg.bte_get_base
            bw = cfg.bte_put_bandwidth if kind is BTE_PUT else cfg.bte_get_bandwidth
            start = max(now + cpu, self.bte_available_at)
            timing = self.network.transfer(
                start + setup, self.coord, peer_coord, wasted, bandwidth_cap=bw)
            # the BTE engine is busy for the bytes it did move
            self.bte_available_at = start + setup + wasted / bw
        t_err = timing.arrival + cfg.nic_latency + timing.hops * cfg.hop_latency
        # the error CQ event comes back to the initiating node
        self.engine.post_at_node(self.node_id, t_err, on_error, t_err, *args)
        return cpu

    def best_kind(self, nbytes: int, put: bool) -> TransferKind:
        """Size-aware FMA/BTE selection (paper §III.C)."""
        cfg = self.config
        if nbytes < cfg.fma_bte_crossover and nbytes <= cfg.fma_max_bytes:
            return FMA_PUT if put else FMA_GET
        return BTE_PUT if put else BTE_GET

    # ------------------------------------------------------------------ #
    # Loopback (intra-node traffic routed through the NIC)
    # ------------------------------------------------------------------ #
    def loopback_send(
        self,
        nbytes: int,
        on_remote_data: Callable[..., None],
        *args: Any,
        at: Optional[float] = None,
    ) -> float:
        """Send to a PE on the same node *through the NIC*.

        This is the unoptimized intra-node path of Fig. 8(c): efficient in
        an isolated ping-pong, but it shares the NIC with inter-node
        traffic and serializes on the loopback engine.  Fires
        ``on_remote_data(arrival, *args)`` like :meth:`smsg_send`.
        """
        cfg = self.config
        now = self.engine.now if at is None else at
        cpu = cfg.smsg_send_cpu
        start = max(now + cpu, self.loopback_available_at)
        duration = 2 * cfg.nic_latency + nbytes / cfg.nic_loopback_bandwidth
        self.loopback_available_at = start + nbytes / cfg.nic_loopback_bandwidth
        arrive = start + duration
        self.engine.post_at_node(self.node_id, arrive, on_remote_data, arrive,
                                 *args)
        return cpu

    def __repr__(self) -> str:  # pragma: no cover
        return f"<GeminiNIC node={self.node_id} at {self.coord}>"
