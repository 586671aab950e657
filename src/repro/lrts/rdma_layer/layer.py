"""The RDMA machine layer core: dispatch, RC send paths, fabric port.

Protocol crossover (deliberately different from uGNI's SMSG/FMA/BTE and
Cray MPI's 8 KB eager threshold):

* ``total <= rdma_inline_max`` (220 B) — **inline**: the payload rides in
  the work request itself; no buffer is touched on either side.
* ``total <= rdma_eager_max`` (16 KB) — **eager**: sender copies into its
  registered staging pool, receiver copies out of a pre-posted buffer.
* larger — **rendezvous**: both sides pin bounce windows through the
  pin-down cache and the payload moves as one RDMA READ (the receiver
  pulls), zero-copy on the wire path.

The rendezvous and persistent-channel state machines are the shared
:class:`~repro.lrts.protocols.ProtocolCore`; this layer binds its fabric
port: control messages ride the RC queue pair, buffers come from the
pin-down cache, persistent windows are directly registered regions (no
mempool) and transfers are one-sided RDMA READ/WRITE.

All two-sided traffic flows over RC queue pairs with hardware
retransmission, so unlike the uGNI layer there is no optional software
reliability mode — loss recovery is part of the fabric model.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.converse.scheduler import Message, PE
from repro.errors import SimulationError
from repro.hardware.machine import Machine
from repro.lrts.gpu_transport import GpuTransportMixin
from repro.lrts.interface import LrtsLayer
from repro.lrts.intranode import IntranodeMixin
from repro.lrts.messages import CARRIER_TAGS, CONTROL_BYTES, LRTS_ENVELOPE
from repro.lrts.protocols import ProtocolCore
from repro.lrts.rdma_layer.config import RdmaLayerConfig
from repro.lrts.rdma_layer.endpoints import RcQueuePair, RdmaFabric
from repro.memory.pxshm import PxshmFabric


class RdmaMachineLayer(ProtocolCore, IntranodeMixin, GpuTransportMixin,
                       LrtsLayer):
    """Charm++ machine layer on a Slingshot/InfiniBand-class fabric."""

    name = "rdma"
    _persist_label = "rdma.persist"

    def __init__(self, machine: Machine,
                 layer_config: Optional[RdmaLayerConfig] = None):
        super().__init__()
        self.machine = machine
        self.cfg = machine.config
        self.lcfg = layer_config or RdmaLayerConfig()
        self.fabric = RdmaFabric(machine, self.lcfg)
        self._registrations = self.fabric.registrations
        self._rndv_recv_cpu = self.cfg.rdma_recv_cpu
        # counters
        self.inline_sent = 0
        self.eager_sent = 0
        self.rendezvous_sent = 0
        self.intranode_sent = 0
        #: application messages lost to RC retry exhaustion (faults only)
        self.rc_lost = 0

    # ------------------------------------------------------------------ #
    # LrtsInit
    # ------------------------------------------------------------------ #
    def _setup(self) -> None:
        assert self.conv is not None
        self.pxshm = PxshmFabric(self.machine, single_copy=False)
        self._proto_setup()
        self.fabric.on_receive = self._on_rc_receive
        self.fabric.on_giveup = self._on_rc_giveup
        san = self.machine.sanitizer
        if san is not None:
            san.add_quiescence_check(self._sanitize_scan)

    def _sanitize_scan(self, san) -> None:
        """Layer-level lifecycle checks run when the engine drains."""
        if self.machine.faults is not None:
            # injected loss legitimately strands protocol state (give-up
            # paths); lifecycle complaints would all be false positives
            return
        for (src, dst), qp in self.fabric.qps.items():
            if qp.backlog:
                san.report(
                    "stuck-message", f"rdma.qp[{src}->{dst}]",
                    f"{len(qp.backlog)} WQE(s) still queued "
                    f"(state={qp.state}, credits={qp.credits})")
            if qp.rx_buffer:
                san.report(
                    "stuck-message", f"rdma.qp[{src}->{dst}]",
                    f"{len(qp.rx_buffer)} packet(s) stuck in the reorder "
                    f"buffer (expected seq {qp.rx_expected})")
        self._scan_intranode(san)
        self._scan_persistent(san)
        for node_id, cache in sorted(self.fabric.pin_caches.items()):
            if cache.live:
                san.report(
                    "pool-leak", f"rdma.pincache[n{node_id}]",
                    f"{cache.live} pinned bounce buffer(s) never released "
                    f"at quiescence")

    # ------------------------------------------------------------------ #
    # LrtsSyncSend
    # ------------------------------------------------------------------ #
    def sync_send(self, src_pe: PE, dst_rank: int, msg: Message) -> None:
        total = msg.nbytes + LRTS_ENVELOPE
        obs = self._obs
        if msg.device:
            self._gpu_send(src_pe, dst_rank, msg)
            return
        if (src_pe.node is self._pes[dst_rank].node
                and total <= self.cfg.pxshm_region_bytes):
            self.intranode_sent += 1
            if obs is not None:
                obs.on_lrts("rdma", "intranode", msg, self.machine.engine.now)
            self._send_intranode(src_pe, dst_rank, msg)
            return
        if total <= self.cfg.rdma_inline_max:
            self.inline_sent += 1
            if obs is not None:
                obs.on_lrts("rdma", "inline", msg, self.machine.engine.now)
            self._rc_send(src_pe, dst_rank, "inline", msg, total)
            return
        if total <= self.cfg.rdma_eager_max:
            self.eager_sent += 1
            if obs is not None:
                obs.on_lrts("rdma", "eager", msg, self.machine.engine.now)
            setup = self.fabric.eager_pool(src_pe.rank)
            self._rc_send(src_pe, dst_rank, "eager", msg, total,
                          extra_cpu=setup + self.cfg.t_memcpy(total))
            return
        self.rendezvous_sent += 1
        if obs is not None:
            obs.on_lrts("rdma", "rendezvous", msg, self.machine.engine.now)
        self._send_rendezvous(src_pe, dst_rank, msg, total)

    # -- RC sends, and the fabric port ------------------------------------------
    def _rc_send(self, pe: PE, dst_rank: int, tag: Any, payload: Any,
                 nbytes: int = CONTROL_BYTES, extra_cpu: float = 0.0) -> None:
        start = pe.vtime
        cpu = self.cfg.rdma_post_cpu + extra_cpu
        # pe.charge(cpu, "overhead"), inlined
        if cpu < 0:
            raise SimulationError(f"negative charge {cpu}")
        if cpu != 0.0:
            pe.vtime = start + cpu
            pe.overhead_time += cpu
            if pe._tracer is not None:
                pe._tracer.record(pe.rank, start, cpu, "overhead")
        # fabric.qp, inlined down to its miss (the handshake)
        qp = self.fabric.qps.get((pe.rank, dst_rank))
        if qp is None:
            qp = self.fabric.qp(pe.rank, dst_rank, at=pe.vtime)
        qp.post_send(tag, nbytes, payload, at=pe.vtime)

    #: a control message is an RC send of its defaults: the control's tag
    #: is the RC tag, the state the payload
    _control = _rc_send

    def _acquire(self, pe: PE, nbytes: int) -> tuple:
        """A bounce window from this node's pin-down cache."""
        cache = self.fabric.pin_caches[pe.node.node_id]
        block, handle, cpu = cache.acquire(nbytes)
        # pe.charge(cpu, "overhead"), inlined
        if cpu < 0:
            raise SimulationError(f"negative charge {cpu}")
        if cpu != 0.0:
            start = pe.vtime
            pe.vtime = start + cpu
            pe.overhead_time += cpu
            if pe._tracer is not None:
                pe._tracer.record(pe.rank, start, cpu, "overhead")
        return block, handle, cache

    def _release(self, pe: PE, buf: tuple) -> None:
        block, handle, cache = buf
        cpu = cache.release(block, handle)
        # pe.charge(cpu, "overhead"), inlined
        if cpu < 0:
            raise SimulationError(f"negative charge {cpu}")
        if cpu != 0.0:
            start = pe.vtime
            pe.vtime = start + cpu
            pe.overhead_time += cpu
            if pe._tracer is not None:
                pe._tracer.record(pe.rank, start, cpu, "overhead")

    def _post(self, pe: PE, desc, done_step: str, failed_step: str,
              state: Any, rearm: Any = None) -> None:
        """One-sided READ/WRITE; the RC hardware retries inside the fabric,
        so a persistent window needs no ``rearm``.  The continuation rides
        in ``desc.context`` as ``(pe, done_step, failed_step, state)``."""
        desc.context = (pe, done_step, failed_step, state)
        start = pe.vtime
        cpu = self.fabric.post_rdma(pe.node.node_id, desc, self._on_post_done,
                                    self._post_abandoned, at=start)
        # pe.charge(cpu, "overhead"), inlined
        if cpu < 0:
            raise SimulationError(f"negative charge {cpu}")
        if cpu != 0.0:
            pe.vtime = start + cpu
            pe.overhead_time += cpu
            if pe._tracer is not None:
                pe._tracer.record(pe.rank, start, cpu, "overhead")

    def _on_post_done(self, desc) -> None:
        """The transfer completed locally: queue ``done_step`` on its PE."""
        pe, done_step, _, state = desc.context
        # self._self_step(pe, done_step, state, app=state.msg), inlined
        pe.enqueue(Message(self._steps[done_step], pe.rank, pe.rank, 0, state),
                   self.cfg.cq_event_cpu, state.msg)

    def _post_abandoned(self, desc) -> None:
        """The transfer died after all retries: report which protocol lost
        its message, then run the cleanup step on the PE."""
        pe, _, failed_step, state = desc.context
        obs = self._obs
        if obs is not None:
            obs.on_recovery(failed_step, f"pe{pe.rank}",
                            self.machine.engine.now)
        self._self_step(pe, failed_step, state, app=state.msg)

    # ------------------------------------------------------------------ #
    # Receive side (engine context on the destination's node)
    # ------------------------------------------------------------------ #
    def _on_rc_receive(self, qp: RcQueuePair, tag: Any, nbytes: int,
                       payload: Any, t: float) -> None:
        pe = self._pes[qp.dst]
        if tag == "inline":
            pe.enqueue(payload, self.cfg.rdma_recv_cpu, payload)
        elif tag == "eager":
            pe.enqueue(payload, (self.cfg.rdma_recv_cpu
                                 + self.cfg.t_memcpy(nbytes)), payload)
        else:
            pe.enqueue(Message(self._tag_hids[tag], qp.src, qp.dst, 0, payload),
                       self.cfg.rdma_recv_cpu,
                       payload.msg if tag in CARRIER_TAGS else None)

    def _on_rc_giveup(self, qp: RcQueuePair, tag: str, nbytes: int,
                      payload: Any) -> None:
        """A WQE exhausted its retry budget; whatever it carried is lost."""
        self.rc_lost += 1
        if tag in CARRIER_TAGS:
            self._lose("rc_giveup")
        obs = self._obs
        if obs is not None:
            obs.on_recovery("rc_giveup", f"qp[{qp.src}->{qp.dst}]",
                            self.machine.engine.now)

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        s = super().stats()
        s.update(
            inline_sent=self.inline_sent,
            eager_sent=self.eager_sent,
            rendezvous_sent=self.rendezvous_sent,
            persistent_sent=self.persistent_sent,
            intranode_sent=self.intranode_sent,
            rc_lost=self.rc_lost,
            rndv_failed=self.lost.get("rndv_failed", 0),
            persistent_failed=self.lost.get("persistent_failed", 0),
        )
        if self.cfg.gpus_per_node > 0:
            s.update(self.gpu_stats())
        s.update(self.fabric.stats())
        return s
