"""RC/UD endpoints and the one-sided memory channel of the RDMA fabric.

The transport model is InfiniBand/Slingshot-shaped, deliberately different
from uGNI's SMSG/FMA/BTE split:

* **UD datagrams** carry only connection management (the REQ/REP queue-pair
  handshake).  Unreliable: a lost REQ is re-sent by a timer that exists
  only under fault injection.
* **RC queue pairs** carry all two-sided traffic (inline/eager sends and
  rendezvous control).  Reliable in hardware: sequence numbers, in-order
  delivery through a reorder buffer, retransmission on loss with a bounded
  retry budget per work request (IB's ``retry_cnt``), credits bounding the
  send queue depth.
* **Memory channels** are one-sided RDMA READ/WRITE against registered
  windows, validated by the same :class:`RegistrationTable` machinery the
  uGNI layer uses — so the lifecycle sanitizer shadows this fabric with no
  extra wiring.
* The **pin-down cache** recycles registered bounce windows with lazy
  deregistration (MPICH2-over-IB style), the registration-cost amortizer
  this fabric uses where uGNI uses the mempool.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.faults.injector import RDMA_ERROR_PROGRESS
from repro.hardware.machine import Machine
from repro.lrts.rdma_layer.config import (
    CONNECT_RETRY,
    EAGER_POOL_BYTES,
    SQ_DEPTH,
    RdmaLayerConfig,
)
from repro.ugni.memreg import MemHandle, RegistrationTables
from repro.ugni.rdma import PostDescriptor
from repro.ugni.types import PUT

#: wire size of a UD connection-management datagram
UD_DGRAM_BYTES = 96


class PinDownCache:
    """Registered bounce buffers with lazy deregistration (one per node).

    ``acquire`` hands out the smallest-index free block that fits (first
    fit keeps the scan deterministic); a miss mallocs + registers a fresh
    block.  ``release`` returns the block to the free list instead of
    deregistering — eviction happens only when the cached bytes exceed
    :attr:`MachineConfig.rdma_pin_cache_bytes`, oldest first.  Cached
    blocks stay registered across quiescence by design, so they are rooted
    with the sanitizer rather than reported as leaks.
    """

    def __init__(self, machine: Machine, node_id: int,
                 registrations: RegistrationTables):
        self.cfg = machine.config
        self.node_id = node_id
        self.registrations = registrations
        #: free registered blocks, oldest first: (block, handle)
        self._free: list[tuple[Any, MemHandle]] = []
        self.cached_bytes = 0
        #: blocks handed out and not yet released
        self.live = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def acquire(self, nbytes: int) -> tuple[Any, MemHandle, float]:
        """Returns ``(block, handle, cpu)``; the block covers >= nbytes."""
        for i, (block, handle) in enumerate(self._free):
            if block.size >= nbytes:
                del self._free[i]
                self.cached_bytes -= block.size
                self.hits += 1
                self.live += 1
                return block, handle, self.cfg.rdma_pin_lookup_cpu
        self.misses += 1
        self.live += 1
        block, handle, cpu = self.registrations.malloc_registered(
            self.node_id, nbytes, f"rdma.pincache[n{self.node_id}]")
        return block, handle, self.cfg.rdma_pin_lookup_cpu + cpu

    def release(self, block: Any, handle: MemHandle) -> float:
        """Return a block to the cache; returns eviction cpu (usually 0)."""
        self.live -= 1
        self._free.append((block, handle))
        self.cached_bytes += block.size
        cpu = 0.0
        while self.cached_bytes > self.cfg.rdma_pin_cache_bytes and self._free:
            old_block, old_handle = self._free.pop(0)
            self.cached_bytes -= old_block.size
            self.evictions += 1
            cpu += self.registrations.free_registered(old_block, old_handle)
        return cpu


class PinDownCaches(dict):
    """``node id -> PinDownCache`` for one fabric, built on first touch:
    a node's cache is made on its first acquire."""

    __slots__ = ("_machine", "_registrations")

    def __init__(self, machine: Machine, registrations: RegistrationTables):
        self._machine = machine
        self._registrations = registrations

    def __missing__(self, node_id: int) -> PinDownCache:
        cache = self[node_id] = PinDownCache(
            self._machine, node_id, self._registrations)
        return cache


class RcQueuePair:
    """One reliable-connected queue pair (directed ``src_rank -> dst_rank``).

    Holds both endpoints' state — this is a simulation object, not a local
    handle.  Reliability is per work request: a packet lost to fault
    injection is retransmitted after :attr:`RdmaLayerConfig.retransmit_timeout`
    up to ``retry_count`` times, then that WQE alone is abandoned (counted,
    credit reclaimed) — the QP is not torn down, which keeps later traffic
    flowing the way a real RC QP in ``retry_exceeded`` cleanup would after
    re-arming.
    """

    __slots__ = ("fabric", "src", "dst", "src_node", "dst_node", "state",
                 "next_seq", "credits", "backlog", "rx_expected", "rx_buffer",
                 "connect_attempts")

    def __init__(self, fabric: "RdmaFabric", src_rank: int, dst_rank: int,
                 at: float):
        self.fabric = fabric
        self.src = src_rank
        self.dst = dst_rank
        machine = fabric.machine
        self.src_node = machine.node_of_pe(src_rank).node_id
        self.dst_node = machine.node_of_pe(dst_rank).node_id
        #: ``connecting`` -> ``ready`` (or ``failed`` if the handshake died)
        self.state = "connecting"
        self.next_seq = 0
        self.credits = SQ_DEPTH
        #: sends waiting on credits or on the handshake: (seq, tag, nbytes, payload)
        self.backlog: deque = deque()
        self.rx_expected = 0
        #: out-of-order arrivals (a retransmitted packet overtaken by its
        #: successors): seq -> (tag, nbytes, payload)
        self.rx_buffer: dict[int, tuple] = {}
        self.connect_attempts = 0
        self._connect(at)

    # -- UD connection management ------------------------------------------
    def _connect(self, at: float) -> None:
        fab = self.fabric
        self.connect_attempts += 1

        def on_req(t: float) -> None:
            # responder side: REP is idempotent, re-REQs just re-REP
            fab._ud_send(self.dst, self.src, at=t, on_deliver=on_rep)

        def on_rep(t: float) -> None:
            if self.state != "connecting":
                return
            self.state = "ready"
            fab.qp_connects += 1
            self._flush(t)

        fab._ud_send(self.src, self.dst, at=at, on_deliver=on_req)
        if fab.machine.faults is not None:
            fab.machine.engine.call_at_node(
                self.src_node, at + CONNECT_RETRY, self._reconnect)

    def _reconnect(self) -> None:
        if self.state != "connecting":
            return
        if self.connect_attempts > self.fabric.lcfg.retry_count:
            # peer unreachable (dead node or pathological loss): fail the
            # QP rather than retrying forever; queued work is abandoned
            self.state = "failed"
            while self.backlog:
                _, tag, nbytes, payload = self.backlog.popleft()
                self.fabric.on_giveup(self, tag, nbytes, payload)
            return
        self._connect(self.fabric.machine.engine.now)

    # -- send side ----------------------------------------------------------
    def post_send(self, tag: str, nbytes: int, payload: Any, at: float) -> None:
        """Queue one WQE; FIFO order is preserved across credit stalls."""
        seq = self.next_seq
        self.next_seq += 1
        if self.state == "failed":
            self.fabric.on_giveup(self, tag, nbytes, payload)
            return
        if self.state != "ready" or self.credits == 0 or self.backlog:
            self.backlog.append((seq, tag, nbytes, payload))
            return
        self.credits -= 1
        self._xmit(seq, tag, nbytes, payload, 0, at)

    def _flush(self, t: float) -> None:
        while self.credits > 0 and self.backlog and self.state == "ready":
            seq, tag, nbytes, payload = self.backlog.popleft()
            self.credits -= 1
            self._xmit(seq, tag, nbytes, payload, 0, t)

    def _xmit(self, seq: int, tag: str, nbytes: int, payload: Any,
              attempt: int, at: float) -> None:
        fab = self.fabric
        machine = fab.machine
        faults = machine.faults
        stall = 0.0
        if faults is not None and self.src_node != self.dst_node:
            if faults.smsg_delivery_fails(self.src, self.dst):
                if attempt >= fab.lcfg.retry_count:
                    fab.rc_giveups += 1
                    machine.engine.call_at_node(
                        self.src_node, at + fab.lcfg.retransmit_timeout,
                        self._abandon, seq, tag, nbytes, payload)
                    return
                fab.rc_retransmits += 1
                machine.engine.call_at_node(
                    self.src_node, at + fab.lcfg.retransmit_timeout,
                    self._xmit, seq, tag, nbytes, payload, attempt + 1,
                    at + fab.lcfg.retransmit_timeout)
                return
            stall = faults.smsg_stall_delay(self.src, self.dst)
        fab.rc_packets += 1
        cfg = machine.config
        nodes = machine.nodes
        timing = machine.network.transfer(
            at, nodes[self.src_node].coord, nodes[self.dst_node].coord, nbytes,
            bandwidth_cap=cfg.rdma_send_bandwidth)
        arrival = timing.arrival + stall
        machine.engine.call_at_node(
            self.dst_node, arrival, self._rx, seq, tag, nbytes, payload,
            arrival)
        # hardware ACK returns the credit one completion latency later
        machine.engine.call_at_node(
            self.src_node, arrival + cfg.rdma_completion_latency,
            self._tx_complete)

    def _abandon(self, seq: int, tag: str, nbytes: int, payload: Any) -> None:
        """Retry budget exhausted: reclaim the credit, drop the WQE, and
        let the receiver stop waiting for its sequence number."""
        self.credits += 1
        self.fabric.on_giveup(self, tag, nbytes, payload)
        now = self.fabric.machine.engine.now
        self._rx(seq, None, 0, None, now)
        self._flush(now)

    def _tx_complete(self) -> None:
        self.credits += 1
        if self.backlog:
            self._flush(self.fabric.machine.engine.now)

    # -- receive side ---------------------------------------------------------
    def _rx(self, seq: int, tag: str, nbytes: int, payload: Any,
            t: float) -> None:
        if seq != self.rx_expected:
            self.rx_buffer[seq] = (tag, nbytes, payload)
            return
        while True:
            if tag is not None:  # None: the hole of a WQE given up on
                self.fabric.on_receive(self, tag, nbytes, payload, t)
            self.rx_expected += 1
            if self.rx_expected not in self.rx_buffer:
                return
            tag, nbytes, payload = self.rx_buffer.pop(self.rx_expected)


class RdmaFabric:
    """Per-machine transport state: QPs, registrations, pin caches, pools."""

    def __init__(self, machine: Machine, lcfg: RdmaLayerConfig):
        self.machine = machine
        self.cfg = machine.config
        self.lcfg = lcfg
        #: node_id -> registration table (sanitizer-shadowed when enabled),
        #: made on first touch
        self.registrations = RegistrationTables(machine)
        #: node_id -> pin-down cache, made on first touch
        self.pin_caches = PinDownCaches(machine, self.registrations)
        #: (src rank, dst rank) -> queue pair, created by :meth:`qp`
        self.qps: dict[tuple[int, int], RcQueuePair] = {}
        #: rank -> (block, handle) registered eager staging pool
        self._eager_pools: dict[int, tuple[Any, MemHandle]] = {}
        #: set by the layer: (qp, tag, nbytes, payload, t) on ordered rx
        self.on_receive: Callable[..., None] = lambda *a: None
        #: set by the layer: (qp, tag, nbytes, payload) when a WQE dies
        self.on_giveup: Callable[..., None] = lambda *a: None
        # counters
        self.qp_connects = 0
        self.ud_datagrams = 0
        self.ud_dropped = 0
        self.rc_packets = 0
        self.rc_retransmits = 0
        self.rc_giveups = 0
        self.rdma_puts = 0
        self.rdma_gets = 0
        self.rdma_retransmits = 0
        self.rdma_giveups = 0

    # -- queue pairs ----------------------------------------------------------
    def qp(self, src_rank: int, dst_rank: int, at: float) -> RcQueuePair:
        key = (src_rank, dst_rank)
        pair = self.qps.get(key)
        if pair is None:
            pair = RcQueuePair(self, src_rank, dst_rank, at)
            self.qps[key] = pair
        return pair

    # -- UD datagrams (connection management only) -----------------------------
    def _ud_send(self, src_rank: int, dst_rank: int, at: float,
                 on_deliver: Callable[[float], None]) -> None:
        machine = self.machine
        self.ud_datagrams += 1
        src_node = machine.node_of_pe(src_rank).node_id
        dst_node = machine.node_of_pe(dst_rank).node_id
        faults = machine.faults
        stall = 0.0
        if faults is not None and src_node != dst_node:
            if faults.smsg_delivery_fails(src_rank, dst_rank):
                self.ud_dropped += 1
                return
            stall = faults.smsg_stall_delay(src_rank, dst_rank)
        timing = machine.network.transfer(
            at, machine.nodes[src_node].coord, machine.nodes[dst_node].coord,
            UD_DGRAM_BYTES)
        machine.engine.call_at_node(
            dst_node, timing.arrival + stall, on_deliver,
            timing.arrival + stall)

    # -- eager staging pools ----------------------------------------------------
    def eager_pool(self, rank: int) -> float:
        """Ensure rank's registered staging pool exists; returns setup cpu.

        One block per PE models the send-side staging ring plus the
        pre-posted receive buffers of an IB eager path; steady-state sends
        only copy into it (no allocator, no registration).
        """
        if rank in self._eager_pools:
            return 0.0
        block, handle, cpu = self.registrations.malloc_registered(
            self.machine.node_of_pe(rank).node_id, EAGER_POOL_BYTES,
            f"rdma.eagerpool[pe{rank}]")
        self._eager_pools[rank] = (block, handle)
        return cpu

    # -- one-sided memory channel ------------------------------------------------
    def post_rdma(self, initiator_node: int, desc: PostDescriptor,
                  on_done: Callable[[PostDescriptor], None],
                  on_error: Callable[[PostDescriptor], None],
                  at: float) -> float:
        """RDMA READ (a ``GET`` descriptor) or WRITE (``PUT``); returns cpu.

        ``on_done(desc)`` / ``on_error(desc)`` run in engine context on the
        initiator's node.  Offloaded: the posting CPU is free after the
        doorbell (the returned :attr:`MachineConfig.rdma_post_cpu`).
        """
        machine = self.machine
        san = machine.sanitizer
        if san is not None:
            san.on_rdma_check(desc, initiator_node)
        self.registrations[desc.local_mem.node_id].check(
            desc.local_mem, desc.local_addr, desc.length)
        self.registrations[desc.remote_mem.node_id].check(
            desc.remote_mem, desc.remote_addr, desc.length)
        if desc.post_type is PUT:
            self.rdma_puts += 1
        else:
            self.rdma_gets += 1
        token = san.on_rdma_post(desc, initiator_node) if san is not None else None
        self._rdma_attempt(initiator_node, desc, on_done, on_error,
                           token, 0, at)
        return self.cfg.rdma_post_cpu

    def _rdma_attempt(self, initiator_node: int, desc: PostDescriptor,
                      on_done: Callable, on_error: Callable,
                      token: Optional[int], attempt: int, at: float) -> None:
        machine = self.machine
        cfg = self.cfg
        peer_node = desc.remote_mem.node_id
        init_coord = machine.nodes[initiator_node].coord
        peer_coord = machine.nodes[peer_node].coord
        faults = machine.faults
        if (faults is not None and peer_node != initiator_node
                and faults.rdma_fails(initiator_node, peer_node)):
            # the failed attempt really burned wire (partial progress)
            waste = max(64, int(desc.length * RDMA_ERROR_PROGRESS))
            timing = machine.network.transfer(at, init_coord, peer_coord,
                                              waste)
            err_t = timing.arrival + cfg.rdma_completion_latency
            if attempt >= self.lcfg.retry_count:
                self.rdma_giveups += 1
                san = machine.sanitizer
                if san is not None and token is not None:
                    san.on_rdma_retire(token, err_t)
                machine.engine.call_at_node(initiator_node, err_t, on_error,
                                            desc)
                return
            self.rdma_retransmits += 1
            machine.engine.call_at_node(
                initiator_node, err_t + self.lcfg.retransmit_timeout,
                self._rdma_attempt, initiator_node, desc, on_done,
                on_error, token, attempt + 1,
                err_t + self.lcfg.retransmit_timeout)
            return
        if desc.post_type is PUT:
            timing = machine.network.transfer(
                at, init_coord, peer_coord, desc.length,
                bandwidth_cap=cfg.rdma_write_bandwidth)
            done_t = timing.arrival + cfg.rdma_completion_latency
        else:
            # READ: a small request travels out, the data travels back
            req = machine.network.transfer(
                at + cfg.rdma_read_base, init_coord, peer_coord, 64)
            timing = machine.network.transfer(
                req.arrival, peer_coord, init_coord, desc.length,
                bandwidth_cap=cfg.rdma_read_bandwidth)
            done_t = timing.arrival + cfg.rdma_completion_latency
        san = machine.sanitizer
        if san is not None and token is not None:
            def complete(desc: PostDescriptor) -> None:
                san.on_rdma_retire(token, done_t)
                on_done(desc)
        else:
            complete = on_done
        machine.engine.call_at_node(initiator_node, done_t, complete, desc)

    # -- diagnostics --------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "qp_count": len(self.qps),
            "qp_connects": self.qp_connects,
            "ud_datagrams": self.ud_datagrams,
            "ud_dropped": self.ud_dropped,
            "rc_packets": self.rc_packets,
            "rc_retransmits": self.rc_retransmits,
            "rc_giveups": self.rc_giveups,
            "rdma_puts": self.rdma_puts,
            "rdma_gets": self.rdma_gets,
            "rdma_retransmits": self.rdma_retransmits,
            "rdma_giveups": self.rdma_giveups,
            "pin_hits": sum(c.hits for c in self.pin_caches.values()),
            "pin_misses": sum(c.misses for c in self.pin_caches.values()),
            "pin_evictions": sum(c.evictions for c in self.pin_caches.values()),
            "pin_cached_bytes": sum(c.cached_bytes
                                    for c in self.pin_caches.values()),
            "eager_pool_bytes": sum(b.size
                                    for b, _ in self._eager_pools.values()),
            "registered_bytes": sum(t.registered_bytes
                                    for t in self.registrations.values()),
        }


__all__ = ["PinDownCache", "RcQueuePair", "RdmaFabric", "UD_DGRAM_BYTES"]
