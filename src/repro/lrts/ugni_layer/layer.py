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
from functools import partial
from typing import Any, Optional

from repro.converse.scheduler import ConverseRuntime, Message, PE
from repro.errors import LrtsError, UgniNoSpace, UgniTransactionError
from repro.hardware.machine import Machine
from repro.lrts.gpu_transport import GpuTransportMixin
from repro.lrts.interface import LrtsLayer, PersistentHandle
from repro.lrts.messages import (
    ACK_TAG,
    CHARM_SMALL_TAG,
    CONTROL_BYTES,
    INIT_TAG,
    LRTS_ENVELOPE,
    PERSISTENT_TAG,
    PUT_CTS_TAG,
    PUT_DONE_TAG,
    PUT_REQ_TAG,
)
from repro.lrts.ugni_layer.config import UgniLayerConfig
from repro.lrts.ugni_layer.intranode import IntranodeMixin
from repro.lrts.ugni_layer.persistent import (
    PERSIST_READY_TAG,
    PERSIST_SETUP_TAG,
    PERSIST_TEARDOWN_TAG,
    PersistentMixin,
)
from repro.lrts.ugni_layer.reliability import (
    REL_ACK_TAG,
    ReliabilityMixin,
    _RelPacket,
)
from repro.lrts.ugni_layer.rendezvous import RNDV_FAIL_TAG, RendezvousMixin
from repro.memory.mempool import MemoryPool
from repro.memory.pxshm import PxshmFabric
from repro.ugni.api import GniJob
from repro.ugni.cq import CompletionQueue
from repro.ugni.types import CqEventKind

#: smsg tag -> protocol-step name executed on the receiving PE
_TAG_STEPS = {
    INIT_TAG: "init",
    ACK_TAG: "ack",
    PUT_REQ_TAG: "put_req",
    PUT_CTS_TAG: "put_cts",
    PUT_DONE_TAG: "put_done",
    PERSISTENT_TAG: "persistent",
    PERSIST_SETUP_TAG: "persist_setup",
    PERSIST_READY_TAG: "persist_ready",
    PERSIST_TEARDOWN_TAG: "persist_teardown",
    REL_ACK_TAG: "rel_ack",
    RNDV_FAIL_TAG: "rndv_fail",
}


class UgniMachineLayer(ReliabilityMixin, RendezvousMixin, PersistentMixin,
                       IntranodeMixin, GpuTransportMixin, LrtsLayer):
    """Charm++ machine layer on uGNI (the paper's contribution)."""

    name = "ugni"
    supports_persistent = True

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
        self._small_cutoff = self._small_max()
        self._pools: dict[int, MemoryPool] = {}
        self._persistent: dict[int, PersistentHandle] = {}
        #: sends blocked on SMSG credits, per (src_rank, dst_rank)
        self._pending: dict[tuple[int, int], deque] = {}
        self._hooked_rx: set[int] = set()
        self._hooked_msgq_nodes: set[int] = set()
        # counters
        self.small_sent = 0
        self.rendezvous_sent = 0
        self.persistent_sent = 0
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
        #: rendezvous transfers abandoned after exhausting post retries
        #: (both sides' buffers were reclaimed; the message was lost)
        self.rndv_failed = 0
        #: persistent-channel sends abandoned after exhausting post retries
        self.persistent_failed = 0

    # ------------------------------------------------------------------ #
    # LrtsInit
    # ------------------------------------------------------------------ #
    def _setup(self) -> None:
        assert self.conv is not None
        self.pxshm = PxshmFabric(
            self.machine, single_copy=(self.lcfg.intranode == "pxshm_single"))
        self._proto_hid = self.conv.register_handler(self._proto_handler)
        #: protocol-step dispatch table (replaces a long if/elif chain on
        #: the receive hot path)
        self._steps = {
            "init": self._on_init_tag,
            "ack": self._on_ack_tag,
            "get_done": self._on_get_done,
            "put_req": self._on_put_req,
            "put_cts": self._on_put_cts,
            "put_done_local": self._on_put_done_local,
            "put_done": self._on_put_done,
            "persistent": self._on_persistent_tag,
            "persist_setup": self._on_persist_setup,
            "persist_ready": self._on_persist_ready,
            "persist_done": self._on_persist_done,
            "persist_teardown": self._on_persist_teardown,
            "flush_pending": self._flush_pending,
            "rel_rx": self._on_rel_rx,
            "rel_ack": self._on_rel_ack,
            "rndv_fail": self._on_rndv_fail,
            "post_failed": self._on_post_failed,
        }
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
                    f"{len(q)} send(s) still waiting for SMSG credits")
        for handle in self._persistent.values():
            impl = handle.impl
            if impl.queued:
                san.report(
                    "stuck-persistent", f"persistent[{handle.id}]",
                    f"{len(impl.queued)} queued send(s), channel never ready")
            elif impl.closing:
                san.report(
                    "stuck-persistent", f"persistent[{handle.id}]",
                    "destroy deferred forever (channel never quiesced)")
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

    def _pool_for_node_block(self, pe: PE, block) -> MemoryPool:
        """Find the pool that owns ``block`` (for frees on the owning PE)."""
        key = pe.node.node_id if self.lcfg.smp_pools else pe.rank
        pool = self._pools.get(key)
        if pool is not None and any(a.handle is block.mem_handle for a in pool.arenas):
            return pool
        for pool in self._pools.values():
            if any(a.handle is block.mem_handle for a in pool.arenas):
                return pool
        raise LrtsError(f"no pool owns {block!r}")

    # ------------------------------------------------------------------ #
    # LrtsSyncSend
    # ------------------------------------------------------------------ #
    def sync_send(self, src_pe: PE, dst_rank: int, msg: Message) -> None:
        total = msg.nbytes + LRTS_ENVELOPE
        obs = self._obs
        if msg.device:
            self._gpu_send(src_pe, dst_rank, msg)
            return
        if (self.machine.same_node(src_pe.rank, dst_rank)
                and self.lcfg.intranode != "ugni"):
            self.intranode_sent += 1
            if obs is not None:
                obs.on_lrts("ugni", "intranode", msg, self.machine.engine.now)
            self._send_intranode(src_pe, dst_rank, msg)
            return
        if total <= self._small_cutoff:
            self.small_sent += 1
            if obs is not None:
                obs.on_lrts("ugni", "small", msg, self.machine.engine.now)
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
            obs.on_lrts("ugni", "rendezvous", msg, self.machine.engine.now)
        self._send_rendezvous(src_pe, dst_rank, msg)

    def _small_max(self) -> int:
        if self.lcfg.small_path == "msgq":
            return self.gni.msgq.max_size
        return self.gni.smsg.max_size

    # ------------------------------------------------------------------ #
    # Small-message path
    # ------------------------------------------------------------------ #
    def _send_msgq(self, src_pe: PE, dst_rank: int, msg: Message,
                   total: int) -> None:
        self._ensure_msgq_hooked(dst_rank)
        cpu = self.gni.msgq.send(src_pe.rank, dst_rank, CHARM_SMALL_TAG,
                                 total, payload=msg, at=src_pe.vtime)
        src_pe.charge(cpu, "overhead")

    def _smsg_control(self, pe: PE, dst_rank: int, tag: int, state: Any) -> None:
        """Send a protocol control message (INIT/ACK/CTS/...).

        Reliability-wrapped when enabled; the reliability acks themselves
        go straight to :meth:`_smsg_push`.
        """
        if self._rel_on:
            state = self._rel_wrap(pe, dst_rank, tag, CONTROL_BYTES, state)
        self._smsg_push(pe, dst_rank, tag, CONTROL_BYTES, state)

    def _smsg_push(self, pe: PE, dst_rank: int, tag: int, nbytes: int,
                   payload: Any) -> None:
        """Raw SMSG send with credit-exhaustion queueing (FIFO per connection)."""
        if dst_rank not in self._hooked_rx:
            self._hook_rx(dst_rank)
        key = (pe.rank, dst_rank)
        pending = self._pending.get(key)
        obs = self._obs
        if pending:
            if obs is not None:
                obs.on_credit_stall(pe.rank, dst_rank, nbytes, self.machine.engine.now)
            pending.append((tag, nbytes, payload))
            return
        try:
            cpu = self._smsg.send(pe.rank, dst_rank, tag, nbytes,
                                  payload=payload, at=pe.vtime)
            pe.charge(cpu, "overhead")
        except UgniNoSpace:
            if obs is not None:
                obs.on_credit_stall(pe.rank, dst_rank, nbytes, self.machine.engine.now)
            q = self._pending.setdefault(key, deque())
            q.append((tag, nbytes, payload))
            self._schedule_flush(pe.rank, dst_rank, pe.vtime)

    def _schedule_flush(self, src_rank: int, dst_rank: int, after: float) -> None:
        def kick() -> None:
            pe = self.conv.pes[src_rank]
            pe.enqueue(
                Message(handler=self._proto_hid, src_pe=src_rank, dst_pe=src_rank,
                        nbytes=0, payload=("flush_pending", dst_rank)),
                recv_cpu=0.0,
            )

        self.machine.engine.call_at(
            after + self.lcfg.credit_retry_interval, kick)

    def _flush_pending(self, pe: PE, dst_rank: int) -> None:
        key = (pe.rank, dst_rank)
        q = self._pending.get(key)
        if not q:
            self._pending.pop(key, None)
            return
        while q:
            tag, nbytes, payload = q[0]
            try:
                cpu = self._smsg.send(pe.rank, dst_rank, tag, nbytes,
                                      payload=payload, at=pe.vtime)
            except UgniNoSpace:
                self._schedule_flush(pe.rank, dst_rank, pe.vtime)
                return
            pe.charge(cpu, "overhead")
            q.popleft()
        self._pending.pop(key, None)

    # ------------------------------------------------------------------ #
    # Receive side: CQ hooks feed the destination PE's scheduler
    # ------------------------------------------------------------------ #
    def _hook_rx(self, rank: int) -> None:
        self._hooked_rx.add(rank)
        # the CQ calls on_event(cq): bound straight to the drain loop
        self._smsg.rx_cq(rank).on_event = partial(self._on_smsg_event, rank)

    def _on_smsg_event(self, rank: int, cq: CompletionQueue) -> None:
        """Drain every message currently in this PE's RX CQ.

        Normally one notify delivers one message, but batching the poll
        here keeps the dispatch loop tight (hoisted lookups) and absorbs
        bursts — e.g. entries queued behind an overrun marker — in a single
        pass instead of one notify round-trip each.
        """
        smsg = self._smsg
        pe = self.conv.pes[rank]
        proto_hid = self._proto_hid
        while True:
            smsg_msg, recv_cpu = smsg.get_next(rank)
            if smsg_msg is None:
                # the event was a CQ overrun marker / error entry, not a message
                return
            if isinstance(smsg_msg.payload, _RelPacket):
                # dedupe + ack must run in PE context (the ack charges pe.vtime)
                pe.enqueue(
                    Message(handler=proto_hid, src_pe=smsg_msg.src_pe,
                            dst_pe=rank, nbytes=0,
                            payload=("rel_rx", smsg_msg.payload)),
                    recv_cpu,
                )
            elif smsg_msg.tag == CHARM_SMALL_TAG:
                self.delivered += 1
                pe.enqueue(smsg_msg.payload, recv_cpu)
            else:
                pe.enqueue(
                    Message(handler=proto_hid, src_pe=smsg_msg.src_pe,
                            dst_pe=rank, nbytes=0,
                            payload=(_TAG_STEPS[smsg_msg.tag], smsg_msg.payload)),
                    recv_cpu,
                )
            if not cq:
                return

    def _ensure_msgq_hooked(self, rank: int) -> None:
        node = self.machine.node_of_pe(rank)
        if node.node_id in self._hooked_msgq_nodes:
            return
        self._hooked_msgq_nodes.add(node.node_id)
        cq = self.gni.msgq.rx_cq(node.node_id)
        cq.on_event = lambda _cq, nid=node.node_id: self._on_msgq_event(nid)

    def _on_msgq_event(self, node_id: int) -> None:
        msg, recv_cpu = self.gni.msgq.get_next(node_id)
        assert msg is not None
        self.delivered += 1
        self.conv.pes[msg.dst_pe].enqueue(msg.payload, recv_cpu)

    # ------------------------------------------------------------------ #
    # Protocol handler (runs on the PE that owns each step)
    # ------------------------------------------------------------------ #
    def _proto_handler(self, pe: PE, message: Message) -> None:
        step, state = message.payload
        self._dispatch_step(pe, step, state)

    @staticmethod
    def _step_for_tag(tag: int) -> str:
        return _TAG_STEPS[tag]

    def _dispatch_step(self, pe: PE, step: str, state: Any) -> None:
        try:
            fn = self._steps[step]
        except KeyError:  # pragma: no cover - defensive
            raise LrtsError(f"unknown protocol step {step!r}") from None
        fn(pe, state)

    # ------------------------------------------------------------------ #
    # Post-completion plumbing
    # ------------------------------------------------------------------ #
    def _await_post(self, desc, cb, on_error=None) -> None:
        """Arrange for ``cb(time)`` when the descriptor's local CQ fires.

        An ``ERROR`` completion (fault-injected transaction failure) goes
        to ``on_error(time)`` instead; with no handler it raises
        :class:`UgniTransactionError` — the documented behaviour of a
        layer running without recovery enabled.
        """
        cq = CompletionQueue(self.machine.engine, capacity=1, name="post")
        desc.src_cq = cq

        def on_event(q: CompletionQueue) -> None:
            entry = q.get_event()
            if entry.kind is CqEventKind.ERROR:
                if on_error is None:
                    raise UgniTransactionError(
                        f"post {desc.id} failed and reliability is disabled "
                        f"(see UgniLayerConfig.reliability)"
                    )
                on_error(entry.time)
                return
            cb(entry.time)

        cq.on_event = on_event

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
