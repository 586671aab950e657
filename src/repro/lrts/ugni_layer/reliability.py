"""Transport-error recovery for the uGNI machine layer.

Enabled via ``UgniLayerConfig(reliability=True)``; the default is off and
the layer's fault-free behaviour is bit-identical with or without this
module loaded.  Three mechanisms:

* **SMSG retransmission** — every outgoing SMSG (application smalls and
  protocol control messages alike, except acks) is wrapped in a
  :class:`_RelPacket` carrying a per-``(src, dst)`` sequence number.  The
  receiver acks each copy with an *unreliable, unwrapped*
  :data:`REL_ACK_TAG` message and suppresses duplicate sequence numbers,
  giving exactly-once delivery on top of a lossy fabric.  Unacked packets
  are retransmitted by the ``rel_retry`` step, armed on the engine with
  bounded exponential backoff; after
  ``UgniLayerConfig.max_retries`` attempts the packet is abandoned and
  counted in ``rel_failed``.
* **FMA/BTE post retry** — :meth:`_post` (the protocol core's ``post``
  verb) completes every rendezvous / persistent post through the rdma
  engine's one consumer, :meth:`_on_post_complete`: a failed completion
  (fault-injected transaction error) re-posts the descriptor after
  backoff (the ``repost`` step) instead of crashing the run.
* **Persistent-channel re-arm** — a failed persistent PUT may leave the
  pinned send window in an undefined state, so the retry first
  deregisters and re-registers the source buffer
  (:meth:`_persist_rearm`) before re-posting.

The sequence-number field rides inside the modelled 32-byte SMSG header,
so wrapping changes no wire sizes; reliability's cost is the ack traffic,
the timer machinery, and the extra dispatch on the receive path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.converse.scheduler import Message, PE
from repro.errors import SimulationError, UgniTransactionError
from repro.lrts.messages import CARRIER_TAGS, CHARM_SMALL_TAG, REL_ACK_TAG
from repro.lrts.ugni_layer.config import REL_WINDOW_CAP


@dataclass
class _RelPacket:
    """Reliability envelope around one SMSG message."""

    seq: int
    src: int
    dst: int
    #: the wrapped message's original smsg tag
    tag: int
    payload: Any
    #: precomputed ``(src, dst, seq)`` — the ack payload and the tx-table
    #: key.  Built once at wrap time so the retransmit and receive paths
    #: never rebuild the tuple.
    key: tuple = None
    #: precomputed ``(src, dst)`` connection pair for receiver-side dedup
    pair: tuple = None


@dataclass
class _RelTx:
    """Sender-side record of an unacked packet."""

    pkt: _RelPacket
    nbytes: int
    attempts: int = 1
    timer: Any = None


class _RelRx:
    """Receiver-side dedup state for one ``(src, dst)`` pair.

    A cumulative-ack watermark plus a small out-of-order window: every
    sequence number ``<= watermark`` has been delivered, and ``window``
    holds only the delivered seqs above it (gaps from loss/reordering).
    Membership (``seq <= watermark or seq in window``) is exactly
    equivalent to the old grow-forever seen-set, but memory stays
    O(reordering depth) instead of O(messages ever received).
    """

    __slots__ = ("watermark", "window")

    def __init__(self) -> None:
        self.watermark = -1
        self.window: set[int] = set()

    def seen(self, seq: int) -> bool:
        return seq <= self.watermark or seq in self.window

    def mark(self, seq: int) -> None:
        window = self.window
        window.add(seq)
        mark = self.watermark
        while mark + 1 in window:
            mark += 1
            window.discard(mark)
        self.watermark = mark

    def force_advance(self, cap: int) -> int:
        """Skip gaps until the window fits ``cap``; returns seqs skipped.

        A gap that keeps the window above ``cap`` can only be a sequence
        number its sender permanently abandoned (give-up after
        ``max_retries``) — no further copy will ever arrive, so skipping it
        is safe.  A straggler copy of a skipped seq (e.g. one stalled in
        the fabric when the sender gave up) is treated as a duplicate,
        which keeps the failure the sender already reported consistent.
        """
        skipped = 0
        window = self.window
        while len(window) > cap:
            mark = self.watermark + 1
            skipped += 1
            while mark + 1 in window:
                mark += 1
                window.discard(mark)
            self.watermark = mark
        return skipped


class ReliabilityMixin:
    """Mixed into :class:`UgniMachineLayer`; all state is layer-owned."""

    # -- lifecycle ------------------------------------------------------------
    def _rel_setup(self) -> None:
        """Called from ``_setup`` when ``lcfg.reliability`` is on."""
        self._rel_on = True
        #: next sequence number per (src, dst)
        self._rel_next_seq: dict[tuple[int, int], int] = {}
        #: unacked packets: (src, dst, seq) -> record
        self._rel_tx: dict[tuple[int, int, int], _RelTx] = {}
        #: receiver-side duplicate suppression: (src, dst) -> watermark +
        #: out-of-order window (bounded; see :class:`_RelRx`)
        self._rel_seen: dict[tuple[int, int], _RelRx] = {}

    def _rel_trace(self, event: str, where: Any = None, **detail: Any) -> None:
        obs = self._obs
        if obs is not None:
            # counts into recovery/<event>; give-up events also trigger an
            # automatic flight-recorder dump
            obs.on_recovery(event, where, self.machine.engine.now, **detail)

    def _rel_backoff(self, attempt: int) -> float:
        """Bounded exponential backoff before retry ``attempt`` (1-based)."""
        lcfg = self.lcfg
        return min(
            lcfg.retry_backoff_base * 2.0 ** (attempt - 1),
            lcfg.retry_backoff_max,
        )

    # -- sender side ----------------------------------------------------------
    def _rel_wrap(self, pe: PE, dst_rank: int, tag: int, nbytes: int,
                  payload: Any) -> _RelPacket:
        """Assign a sequence number and arm the retransmit timer."""
        pair = (pe.rank, dst_rank)
        seq = self._rel_next_seq.get(pair, 0)
        self._rel_next_seq[pair] = seq + 1
        pkt = _RelPacket(seq, pe.rank, dst_rank, tag, payload,
                         key=(pe.rank, dst_rank, seq), pair=pair)
        rec = _RelTx(pkt, nbytes)
        self._rel_tx[pkt.key] = rec
        self._rel_arm_timer(rec)
        return pkt

    def _rel_arm_timer(self, rec: _RelTx) -> None:
        # the timer names its record by key: holding ``rec`` would tie
        # rec -> timer -> rec into a cycle per message
        pkt = rec.pkt
        rec.timer = self.machine.engine.call_after(
            self._rel_backoff(rec.attempts), self._self_step,
            self.conv.pes[pkt.src], "rel_retry", pkt.key, 0.0)

    def _rel_retry(self, pe: PE, message: Message) -> None:
        key = message.payload
        rec = self._rel_tx.get(key)
        if rec is None:
            return  # acked while the timer was in flight
        pkt = rec.pkt
        if rec.attempts >= self.lcfg.max_retries:
            del self._rel_tx[key]
            self.rel_failed += 1
            self._rel_trace("give_up", where=pkt.pair,
                            seq=pkt.seq, attempts=rec.attempts)
            self._rel_abandon(pkt, "rel_failed")
            return
        rec.attempts += 1
        self.rel_retransmits += 1
        self._rel_trace("retransmit", where=pkt.pair,
                        seq=pkt.seq, attempt=rec.attempts)
        self._smsg_push(pe, pkt.dst, pkt.tag, pkt, rec.nbytes)
        self._rel_arm_timer(rec)

    def _rel_abandon(self, pkt: _RelPacket, cause: str) -> None:
        """No copy of ``pkt`` will be sent again: unless the receiver took
        one, its message is lost (and a straggler copy a duplicate), and
        what a peer holds for it is settled (:meth:`refused`)."""
        rx = self._rel_seen.setdefault(pkt.pair, _RelRx())
        if not rx.seen(pkt.seq):
            rx.mark(pkt.seq)
            if pkt.tag in CARRIER_TAGS:
                self._lose(cause)
            self.refused(pkt.payload)

    def _on_rel_ack(self, pe: PE, message: Message) -> None:
        """Sender PE: the receiver has the packet — stop retransmitting."""
        rec = self._rel_tx.pop(message.payload, None)
        if rec is not None:
            rec.timer.cancel()

    # -- receiver side --------------------------------------------------------
    def _on_rel_rx(self, pe: PE, message: Message) -> None:
        """Receiver PE: ack, deduplicate, then dispatch the inner message."""
        pkt: _RelPacket = message.payload
        # ack every copy — the ack for an earlier copy may itself be lost
        self.rel_acks += 1
        self._smsg_push(pe, pkt.src, REL_ACK_TAG, pkt.key)
        rx = self._rel_seen.get(pkt.pair)
        if rx is None:
            rx = self._rel_seen[pkt.pair] = _RelRx()
        if rx.seen(pkt.seq):
            self.rel_duplicates += 1
            self._rel_trace("duplicate_dropped", where=pkt.pair, seq=pkt.seq)
            return
        rx.mark(pkt.seq)
        if len(rx.window) > self.rel_window_peak:
            self.rel_window_peak = len(rx.window)
        if len(rx.window) > REL_WINDOW_CAP:
            skipped = rx.force_advance(REL_WINDOW_CAP)
            self.rel_window_skips += skipped
            self._rel_trace("window_skip", where=pkt.pair, skipped=skipped,
                            watermark=rx.watermark)
        if pkt.tag == CHARM_SMALL_TAG:
            self.deliver(pe.rank, pkt.payload, recv_cpu=0.0)
        else:
            # the control's step, run here through the handler table
            message.payload = pkt.payload
            self.conv._handlers[self._tag_hids[pkt.tag]](pe, message)

    # -- guarded FMA/BTE posts ------------------------------------------------
    def _post(self, pe: PE, desc, done_step: str, failed_step: str,
              state: Any, rearm: Any = None) -> None:
        """Fabric port: post ``desc``; ``done_step`` runs on ``pe`` when its
        local completion arrives.

        The continuation rides in ``desc.context`` as ``(pe, done_step,
        failed_step, state, rearm, attempts)`` and the rdma engine hands
        the descriptor back to :meth:`_on_post_complete`
        (``GNI_GetCompleted``), so a post allocates no closure, and nothing
        it leaves behind points back at the descriptor (DESIGN §16).

        A failed completion (fault-injected transaction error) raises
        :class:`UgniTransactionError` without reliability — the documented
        behaviour of a layer running without recovery enabled.  With it,
        each error re-posts after backoff, first re-registering the send
        window of the persistent channel ``rearm`` when one is given (a
        failed PUT leaves the pinned window in an undefined state).

        When retries are exhausted the post is abandoned: ``post_failures``
        is bumped, the loss is traced (``post_give_up``, then the failed
        step's own name) and ``failed_step`` runs in PE scheduler context —
        it charges time and sends control messages, so not in the
        completion callback — to release buffers and notify the peer
        instead of leaking a waiter that never completes.
        """
        desc.context = (pe, done_step, failed_step, state, rearm, 0)
        start = pe.vtime
        cpu = self.gni.rdma.post(pe.node.node_id, desc, at=start)
        # pe.charge(cpu, "overhead"), inlined
        if cpu < 0:
            raise SimulationError(f"negative charge {cpu}")
        if cpu != 0.0:
            pe.vtime = start + cpu
            pe.overhead_time += cpu
            if pe._tracer is not None:
                pe._tracer.record(pe.rank, start, cpu, "overhead")

    def _on_post_complete(self, desc, t: float, failed: bool) -> None:
        """The rdma engine's one consumer: a completed post's continuation
        runs on its PE; a failed one is retried or given up."""
        pe, done_step, failed_step, state, rearm, attempts = desc.context
        if not failed:
            # self._self_step(pe, done_step, state, app=state.msg), inlined
            pe.enqueue(Message(self._steps[done_step], pe.rank, pe.rank, 0,
                               state), self.cfg.cq_event_cpu, state.msg)
            return
        if not self._rel_on:
            raise UgniTransactionError(
                f"post {desc.id} failed and reliability is disabled "
                f"(see UgniLayerConfig.reliability)")
        attempts += 1
        if attempts > self.lcfg.max_retries:
            self.post_failures += 1
            self._rel_trace("post_give_up", where=pe.rank,
                            desc=desc.id, attempts=attempts)
            self._rel_trace(failed_step, where=pe.rank)
            self._self_step(pe, failed_step, state, app=state.msg)
            return
        desc.context = (pe, done_step, failed_step, state, rearm, attempts)
        self.post_retries += 1
        self._rel_trace("post_retry", where=pe.rank,
                        desc=desc.id, attempt=attempts)
        self.machine.engine.call_after(self._rel_backoff(attempts),
                                       self._self_step, pe, "repost", desc,
                                       0.0, state.msg)

    def _repost(self, pe: PE, message: Message) -> None:
        desc = message.payload
        _, _, _, _, rearm, _ = desc.context
        if rearm is not None:
            self._persist_rearm(pe, rearm, desc)
        cpu = self.gni.rdma.post(pe.node.node_id, desc, at=pe.vtime)
        pe.charge(cpu, "overhead")

    def _persist_rearm(self, pe: PE, handle, desc) -> None:
        """Re-register a persistent channel's send window after a failed PUT."""
        chan = handle.impl
        block, old_handle = chan.src_win
        pe.charge(self.gni.MemDeregister(old_handle), "overhead")
        new_handle, cost = self.gni.MemRegister(block)
        pe.charge(cost, "overhead")
        san = self.machine.sanitizer
        if san is not None:
            san.root_region(new_handle,
                            f"{self._persist_label}[{handle.id}].src")
        chan.src_win = (block, new_handle)
        desc.local_mem = new_handle
        self.persistent_rearms += 1
        self._rel_trace("persist_rearm", where=pe.rank, channel=handle.id)
