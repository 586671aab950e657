"""The uGNI machine layer core: dispatch, SMSG path, protocol plumbing.

This class is the simulation counterpart of ``machine.c`` in the real
gemini_gni machine layer: it receives ``LrtsSyncSend`` calls from Converse,
picks a transport (pxshm / SMSG / rendezvous / persistent), runs the
protocol state machines on the PEs involved (so protocol processing
*occupies* those PEs, exactly like the real progress engine), and hands
completed messages back to the scheduler.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.converse.scheduler import Message, PE
from repro.errors import SimulationError, UgniNoSpace
from repro.hardware.machine import Machine
from repro.lrts.gpu_transport import GpuTransportMixin
from repro.lrts.interface import LrtsLayer
from repro.lrts.intranode import IntranodeMixin
from repro.lrts.messages import (
    CHARM_SMALL_TAG,
    CONTROL_BYTES,
    LRTS_ENVELOPE,
    STEP_TAGS,
    TAG_STEPS,
)
from repro.lrts.protocols import ProtocolCore
from repro.lrts.ugni_layer.config import CREDIT_RETRY_INTERVAL, UgniLayerConfig
from repro.lrts.ugni_layer.reliability import ReliabilityMixin, _RelPacket
from repro.memory.mempool import MemoryPool
from repro.memory.pxshm import PxshmFabric
from repro.ugni.api import GniJob


class UgniMachineLayer(ReliabilityMixin, ProtocolCore, IntranodeMixin,
                       GpuTransportMixin, LrtsLayer):
    """Charm++ machine layer on uGNI (the paper's contribution).

    The rendezvous and persistent protocols are
    :class:`~repro.lrts.protocols.ProtocolCore`; this class binds its
    fabric port to SMSG control messages, the memory pool and FMA/BTE
    (``_post`` lives with the retry logic in ``reliability.py``).
    """

    name = "ugni"

    def __init__(self, machine: Machine,
                 layer_config: Optional[UgniLayerConfig] = None):
        super().__init__()
        self.machine = machine
        self.cfg = machine.config
        self.lcfg = layer_config or UgniLayerConfig()
        self.gni = GniJob(machine)
        #: hot-path caches (the fabrics and the small/rendezvous cutoff are
        #: fixed for the life of the job; chasing ``self.gni.smsg...`` per
        #: message costs two attribute loads per send)
        self._smsg = self.gni.smsg
        # every SMSG and MSGQ arrival feeds its receiver's scheduler, every
        # FMA/BTE completion its poster's protocol step
        self._smsg.on_rx = self._on_smsg_rx
        self.gni.msgq.on_rx = self._on_msgq_rx
        self.gni.rdma.on_complete = self._on_post_complete
        self._small_cutoff = self._small_max()
        self._pools: dict[int, MemoryPool] = {}
        #: sends blocked on SMSG credits or a full MSGQ node queue, per
        #: (src_rank, dst_rank): ``(fabric, tag, nbytes, payload)``
        self._pending: dict[tuple[int, int], deque] = {}
        # counters
        self.small_sent = 0
        self.rendezvous_sent = 0
        self.intranode_sent = 0
        # recovery counters (stay zero unless lcfg.reliability + faults)
        self._rel_on = False
        self.rel_retransmits = 0
        self.rel_duplicates = 0
        self.rel_acks = 0
        self.rel_failed = 0
        self.rel_window_peak = 0
        self.rel_window_skips = 0
        self.post_retries = 0
        self.post_failures = 0
        self.persistent_rearms = 0

    # ------------------------------------------------------------------ #
    # LrtsInit
    # ------------------------------------------------------------------ #
    def _setup(self) -> None:
        assert self.conv is not None
        self.pxshm = PxshmFabric(
            self.machine, single_copy=(self.lcfg.intranode == "pxshm_single"))
        self._proto_setup()
        self._steps.update(flush_pending=self._flush_pending,
                           rel_rx=self._on_rel_rx, rel_ack=self._on_rel_ack)
        if self.lcfg.reliability:
            self._rel_setup()
        san = self.machine.sanitizer
        if san is not None:
            san.add_quiescence_check(self._sanitize_scan)

    def _sanitize_scan(self, san) -> None:
        """Layer-level lifecycle checks run when the engine drains."""
        if self.machine.faults is not None:
            # injected loss legitimately strands protocol state (give-up
            # paths); lifecycle complaints would all be false positives
            return
        for (src, dst), q in self._pending.items():
            if q:
                san.report(
                    "undelivered-message", f"layer.pending[{src}->{dst}]",
                    f"{len(q)} send(s) still waiting for fabric space")
        self._scan_intranode(san)
        self._scan_persistent(san)
        for pool in self._pools.values():
            if pool.live_blocks:
                san.report(
                    "pool-leak", f"mempool[{pool.name}]",
                    f"{pool.live_blocks} block(s) ({pool.live_bytes} B) "
                    f"still allocated at quiescence")

    # -- memory pools (lazy per PE, or per node in smp mode) ------------------------
    def _pool_for(self, pe: PE) -> MemoryPool:
        key = pe.node.node_id if self.lcfg.smp_pools else pe.rank
        pool = self._pools.get(key)
        if pool is None:
            pool = MemoryPool(self.gni, pe.node.node_id,
                              name=f"pool[{'n' if self.lcfg.smp_pools else 'pe'}{key}]")
            # one-time arena setup is charged to whoever faulted it in
            pe.charge(pool.setup_cost, "overhead")
            self._pools[key] = pool
        return pool

    # -- fabric port: buffers and windows -------------------------------------------
    def _acquire(self, pe: PE, nbytes: int) -> tuple:
        """Charge ``pe`` for a send/recv buffer: ``(block, handle, pool)``.

        Pool mode: cheap pool alloc from the pre-registered arena.
        No-pool mode (``pool`` is None): the full ``Tmalloc + Tregister``
        of Eq. 1.
        """
        lcfg = self.lcfg
        if lcfg.use_mempool:
            # _pool_for, inlined down to its miss
            pool = self._pools.get(
                pe.node.node_id if lcfg.smp_pools else pe.rank)
            if pool is None:
                pool = self._pool_for(pe)
            block, cost = pool.alloc(nbytes)
            pe.charge(cost, "overhead")
            return block, block.mem_handle, pool
        block, handle, cost = self.gni.registrations.malloc_registered(
            pe.node.node_id, nbytes)
        pe.charge(cost, "overhead")
        return block, handle, None

    def _release(self, pe: PE, buf: tuple) -> None:
        block, handle, pool = buf
        if pool is not None:
            pe.charge(pool.free(block), "overhead")
        else:
            pe.charge(self.gni.registrations.free_registered(block, handle),
                      "overhead")

    def _pin_window(self, pe: PE, nbytes: int, why: str) -> tuple:
        block, handle, cost = self.gni.registrations.malloc_registered(
            pe.node.node_id, nbytes, why)
        pe.charge(cost, "overhead")
        return block, handle

    def _unpin_window(self, pe: PE, win: tuple) -> None:
        pe.charge(self.gni.registrations.free_registered(*win), "overhead")

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
                and self.lcfg.intranode != "ugni"
                and total <= self.cfg.pxshm_region_bytes):
            self.intranode_sent += 1
            if obs is not None:
                obs.on_lrts("ugni", "intranode", msg, src_pe._clock.now)
            self._send_intranode(src_pe, dst_rank, msg)
            return
        if total <= self._small_cutoff:
            self.small_sent += 1
            if obs is not None:
                obs.on_lrts("ugni", "small", msg, src_pe._clock.now)
            if self.lcfg.small_path == "msgq":
                self._send_msgq(src_pe, dst_rank, msg, total)
                return
            payload: Any = msg
            if self._rel_on:
                payload = self._rel_wrap(src_pe, dst_rank, CHARM_SMALL_TAG,
                                         total, msg)
            self._smsg_push(src_pe, dst_rank, CHARM_SMALL_TAG, total, payload)
            return
        self.rendezvous_sent += 1
        if obs is not None:
            obs.on_lrts("ugni", "rendezvous", msg, src_pe._clock.now)
        self._send_rendezvous(src_pe, dst_rank, msg, total)

    def _small_max(self) -> int:
        if self.lcfg.small_path == "msgq":
            return self.gni.msgq.max_size
        return self.gni.smsg.max_size

    # ------------------------------------------------------------------ #
    # Small-message path
    # ------------------------------------------------------------------ #
    def _send_msgq(self, src_pe: PE, dst_rank: int, msg: Message,
                   total: int) -> None:
        """A small message through MSGQ.  A full node queue
        (``GNI_RC_NOT_DONE``) parks it, FIFO per connection, behind the
        same retry as an SMSG credit stall."""
        msgq = self.gni.msgq
        item = (msgq, CHARM_SMALL_TAG, total, msg)
        key = (src_pe.rank, dst_rank)
        q = self._pending.get(key)
        if q:
            q.append(item)
            return
        try:
            cpu = msgq.send(src_pe.rank, dst_rank, CHARM_SMALL_TAG, total,
                            payload=msg, at=src_pe.vtime)
        except UgniNoSpace:
            self._pending[key] = deque((item,))
            self._schedule_flush(src_pe.rank, dst_rank, src_pe.vtime)
            return
        src_pe.charge(cpu, "overhead")

    def _control(self, pe: PE, dst_rank: int, step: str, state: Any) -> None:
        """Fabric port: a protocol control SMSG (INIT/ACK/CTS/...).

        Reliability-wrapped when enabled; the reliability acks themselves
        go straight to :meth:`_smsg_push`.
        """
        tag = STEP_TAGS[step]
        if self._rel_on:
            state = self._rel_wrap(pe, dst_rank, tag, CONTROL_BYTES, state)
        self._smsg_push(pe, dst_rank, tag, CONTROL_BYTES, state)

    def _smsg_push(self, pe: PE, dst_rank: int, tag: int, nbytes: int,
                   payload: Any) -> None:
        """Raw SMSG send with credit-exhaustion queueing (FIFO per connection)."""
        obs = self._obs
        pending = self._pending
        if pending:
            # some connection is stalled (a drained one leaves the table):
            # only then is this one's key built and looked up
            q = pending.get((pe.rank, dst_rank))
            if q:
                if obs is not None:
                    obs.on_credit_stall(pe.rank, dst_rank, nbytes,
                                        self.machine.engine.now)
                q.append((self._smsg, tag, nbytes, payload))
                return
        start = pe.vtime
        try:
            cpu = self._smsg.send(pe.rank, dst_rank, tag, nbytes,
                                  payload=payload, at=start)
        except UgniNoSpace:
            if obs is not None:
                obs.on_credit_stall(pe.rank, dst_rank, nbytes, self.machine.engine.now)
            q = pending.setdefault((pe.rank, dst_rank), deque())
            q.append((self._smsg, tag, nbytes, payload))
            self._schedule_flush(pe.rank, dst_rank, start)
            return
        # pe.charge(cpu, "overhead"), inlined
        if cpu < 0:
            raise SimulationError(f"negative charge {cpu}")
        if cpu != 0.0:
            pe.vtime = start + cpu
            pe.overhead_time += cpu
            tracer = pe._tracer
            if tracer is not None:
                tracer.record(pe.rank, start, cpu, "overhead")

    def _schedule_flush(self, src_rank: int, dst_rank: int, after: float) -> None:
        self.machine.engine.call_at(
            after + CREDIT_RETRY_INTERVAL, self._self_step,
            self.conv.pes[src_rank], "flush_pending", dst_rank, 0.0)

    def _flush_pending(self, pe: PE, dst_rank: int) -> None:
        key = (pe.rank, dst_rank)
        q = self._pending.get(key)
        if not q:
            self._pending.pop(key, None)
            return
        while q:
            fabric, tag, nbytes, payload = q[0]
            try:
                cpu = fabric.send(pe.rank, dst_rank, tag, nbytes,
                                  payload=payload, at=pe.vtime)
            except UgniNoSpace:
                self._schedule_flush(pe.rank, dst_rank, pe.vtime)
                return
            pe.charge(cpu, "overhead")
            q.popleft()
        self._pending.pop(key, None)

    # ------------------------------------------------------------------ #
    # Receive side: arrivals feed the destination PE's scheduler
    # ------------------------------------------------------------------ #
    def _on_smsg_rx(self, smsg_msg) -> None:
        """Consume one SMSG arrival and enqueue it on its receiver: an
        application message as is, a protocol step or a reliability
        packet as a protocol-handler message."""
        recv_cpu = self._smsg.consume(smsg_msg)
        payload = smsg_msg.payload
        if isinstance(payload, _RelPacket):
            # dedupe + ack must run in PE context (the ack charges pe.vtime)
            step = "rel_rx"
        elif smsg_msg.tag == CHARM_SMALL_TAG:
            step = None  # a whole application message: enqueue as is
            self.delivered += 1
        else:
            step = TAG_STEPS[smsg_msg.tag]
        rank = smsg_msg.dst_pe
        if step is not None:
            payload = Message(handler=self._proto_hid,
                              src_pe=smsg_msg.src_pe, dst_pe=rank, nbytes=0,
                              payload=(step, payload))
        self._pes[rank].enqueue(payload, recv_cpu)

    def _on_msgq_rx(self, msgq_msg) -> None:
        """Consume one MSGQ arrival and enqueue its application message
        on its receiver."""
        recv_cpu = self.gni.msgq.consume(msgq_msg)
        self.delivered += 1
        self._pes[msgq_msg.dst_pe].enqueue(msgq_msg.payload, recv_cpu)

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        s = super().stats()
        s.update(
            small_sent=self.small_sent,
            rendezvous_sent=self.rendezvous_sent,
            persistent_sent=self.persistent_sent,
            intranode_sent=self.intranode_sent,
            smsg_mailbox_memory=self.gni.smsg.total_mailbox_memory,
            msgq_memory=self.gni.msgq.total_queue_memory,
            pool_registered_bytes=sum(p.registered_bytes for p in self._pools.values()),
            pool_expansions=sum(p.expansions for p in self._pools.values()),
            pool_live_blocks=sum(p.live_blocks for p in self._pools.values()),
            pool_live_bytes=sum(p.live_bytes for p in self._pools.values()),
            rel_retransmits=self.rel_retransmits,
            rel_duplicates=self.rel_duplicates,
            rel_acks=self.rel_acks,
            rel_failed=self.rel_failed,
            rel_window_peak=self.rel_window_peak,
            rel_window_skips=self.rel_window_skips,
            post_retries=self.post_retries,
            post_failures=self.post_failures,
            persistent_rearms=self.persistent_rearms,
            rndv_failed=self.rndv_failed,
            persistent_failed=self.persistent_failed,
        )
        if self.cfg.gpus_per_node > 0:
            s.update(self.gpu_stats())
        return s

    def first_touch(self) -> dict[str, int]:
        return {"smsg_connections": len(self._smsg._conn),
                "pools": len(self._pools),
                "registration_tables": len(self.gni.registrations)}
