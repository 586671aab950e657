"""The protocol core: rendezvous and persistent channels, written once.

Both large-message protocols are the same state machine on every fabric;
what differs is how a control message travels, where a buffer comes from
and how a one-sided transfer is posted.  Those are the six verbs of the
*fabric port* below — the paper's §III.B argument (everything
machine-specific fits behind a handful of calls) taken one level down.

GET-based rendezvous (the paper's design, Fig. 5)::

    sender                      receiver
    ------                      --------
    acquire buffer
    control "init" (addr,hndl) ->
                                acquire recv buffer
                                GET  <== data pulled
                             <- control "ack"
    release                     release, deliver to Converse

With the uGNI memory pool the acquire/release pairs collapse to pool
allocs (Fig. 7b), turning Eq. 1's ``2(Tmalloc+Tregister)`` into
``2·Tmempool``; the RDMA layer's pin-down cache plays the same role.

PUT-based (the variant §III.C rejects — one extra rendezvous message)::

    control "put_req" (size) ->
                                acquire recv buffer
                             <- control "put_cts" (addr,hndl)
    PUT                      ==> data pushed
    control "put_done"       ->
    release send buffer         release, deliver to Converse

A layer's ``lcfg.rendezvous`` picks the first step: a field of
:class:`UgniLayerConfig`, a class constant ``"get"`` of
:class:`RdmaLayerConfig`.

Buffers are *real*: pool blocks, pinned bounce windows or registered
node-memory blocks, and the RDMA engines validate every transaction
against the registration tables, so protocol bugs fail loudly.  A post
abandoned after the fabric's retry budget runs ``get_failed`` /
``put_failed``: the failing side reclaims its buffer and a ``rndv_fail``
control lets the peer reclaim the one it pinned — the message is lost,
but nothing leaks and nobody hangs.

Persistent channels (paper §IV.A, Figs. 7a / 8a):

    "persistent messages eliminate the overhead of memory allocation,
    registration and de-registration [...] because the memory buffer on
    the receiver is persistent and known to the sender, the sender can
    directly put its message data into the persistent buffer, which saves
    one control message [...] the one-way latency is reduced to
    Tcost = Trdma + Tsmsg."

Setup (``LrtsCreatePersistent``) is sender-initiated: ``persist_setup``
asks the destination PE to pin a ``max_bytes`` window (answered by
``persist_ready``); the sender pins its own so steady-state sends touch no
allocator at all.  Sends issued before the handshake completes are queued
and flushed on readiness; each send is one PUT, ``persist_done`` on local
completion, then a ``persistent`` notify — exactly the pre-negotiated-
window scheme persistent alltoallv analyses assume.

The fabric port (each layer implements these in a few lines):

``_control(pe, dst_rank, step, state)``
    one control message; ``step`` then runs on ``dst_rank`` with ``state``
``_acquire(pe, nbytes) -> buf`` / ``_release(pe, buf)``
    a registered transfer buffer, charged to ``pe``
``_pin_window(pe, nbytes, why) -> win`` / ``_unpin_window(pe, win)``
    a long-lived registered window, rooted with the sanitizer as ``why``
``_post(pe, desc, done_step, failed_step, state, rearm=None)``
    post a one-sided transfer; ``done_step`` (or, once the fabric gives up
    and has reported the loss, ``failed_step``) runs on ``pe``.  ``rearm``
    names the persistent channel whose send window a retry must re-pin.

``buf`` and ``win`` are layer tokens: tuples starting ``(block, handle)``
— all the core reads, to build descriptors — followed by whatever the
layer needs to release them (the owning pool or cache).  Two constants
complete the port: ``_rndv_recv_cpu`` and ``_persist_label``.
"""

from __future__ import annotations

from typing import Any

from repro.converse.scheduler import Message, PE
from repro.errors import LrtsError
from repro.lrts.interface import PersistentHandle
from repro.lrts.messages import LRTS_ENVELOPE
from repro.ugni.rdma import PostDescriptor
from repro.ugni.types import PostType


class _Rndv:
    """In-flight rendezvous state, carried by reference in the controls."""

    __slots__ = ("msg", "nbytes", "src_rank", "dst_rank", "src", "dst")

    def __init__(self, msg: Message, nbytes: int, src_rank: int,
                 dst_rank: int):
        self.msg = msg
        self.nbytes = nbytes
        self.src_rank = src_rank
        self.dst_rank = dst_rank
        #: each side's buffer token while it is held, else ``None``
        self.src = None
        self.dst = None


class _Channel:
    """Machine-layer-private state hanging off a PersistentHandle."""

    __slots__ = ("src_win", "dst_win", "queued", "inflight", "closing")

    def __init__(self) -> None:
        self.src_win = None
        self.dst_win = None
        #: sends issued before the channel became ready
        self.queued: list[Message] = []
        #: PUTs posted but not yet locally completed (or abandoned)
        self.inflight = 0
        #: destroy_persistent was called; teardown happens once the
        #: channel quiesces
        self.closing = False


def _desc(post_type: PostType, local: tuple, remote: tuple,
          nbytes: int) -> PostDescriptor:
    """A transfer of ``nbytes`` between two buffer/window tokens."""
    return PostDescriptor(
        post_type=post_type, local_mem=local[1], remote_mem=remote[1],
        length=nbytes, local_addr=local[0].addr, remote_addr=remote[0].addr)


class ProtocolCore:
    """Rendezvous + persistent channels over the fabric port (a mixin)."""

    supports_persistent = True
    #: recv_cpu charged when a rendezvous payload is handed to Converse
    _rndv_recv_cpu = 0.0
    #: prefix of this layer's channel labels in sanitizer reports
    _persist_label = "persistent"
    #: rendezvous transfers abandoned after exhausting the retry budget
    #: (both sides' buffers were reclaimed; the message was lost)
    rndv_failed = 0
    persistent_sent = 0
    #: persistent-channel sends abandoned after exhausting the budget
    persistent_failed = 0

    def _proto_setup(self) -> None:
        """Register the protocol handler and the step table (``LrtsInit``)."""
        self._proto_hid = self.conv.register_handler(self._proto_handler)
        self._persistent: dict[int, PersistentHandle] = {}
        #: protocol-step dispatch table; layers add their private steps
        self._steps = {
            "init": self._on_init,
            "get_done": self._on_get_done,
            "get_failed": self._on_get_failed,
            "ack": self._on_ack,
            "put_req": self._on_put_req,
            "put_cts": self._on_put_cts,
            "put_done_local": self._on_put_local_done,
            "put_failed": self._on_put_failed,
            "put_done": self._on_put_done,
            "rndv_fail": self._on_rndv_fail,
            "persist_setup": self._on_persist_setup,
            "persist_ready": self._on_persist_ready,
            "persist_done": self._on_persist_done,
            "persist_send_failed": self._on_persist_send_failed,
            "persistent": self._on_persistent,
            "persist_teardown": self._on_persist_teardown,
        }

    def _proto_handler(self, pe: PE, message: Message) -> None:
        """Runs each step on the PE that owns it (so protocol processing
        *occupies* that PE, exactly like the real progress engine)."""
        step, state = message.payload
        self._steps[step](pe, state)

    def _self_step(self, pe: PE, step: str, state: Any,
                   recv_cpu: float | None = None) -> None:
        """Queue ``step`` on ``pe`` itself.

        Completions and timers fire in engine context, but the step they
        trigger charges time and sends control messages, so it goes
        through the PE's scheduler like any message (``recv_cpu``
        defaults to one CQ-event poll).
        """
        pe.enqueue(
            Message(handler=self._proto_hid, src_pe=pe.rank, dst_pe=pe.rank,
                    nbytes=0, payload=(step, state)),
            self.cfg.cq_event_cpu if recv_cpu is None else recv_cpu)

    # ------------------------------------------------------------------ #
    # Rendezvous
    # ------------------------------------------------------------------ #
    def _send_rendezvous(self, src_pe: PE, dst_rank: int, msg: Message,
                         total: int) -> None:
        state = _Rndv(msg, total, src_pe.rank, dst_rank)
        state.src = self._acquire(src_pe, total)
        self._control(src_pe, dst_rank,
                      "init" if self.lcfg.rendezvous == "get" else "put_req",
                      state)

    # -- GET protocol -----------------------------------------------------
    def _on_init(self, pe: PE, state: _Rndv) -> None:
        """Receiver: allocate, then pull the data with a GET."""
        state.dst = self._acquire(pe, state.nbytes)
        self._post(pe, _desc(PostType.GET, state.dst, state.src, state.nbytes),
                   "get_done", "get_failed", state)

    def _on_get_done(self, pe: PE, state: _Rndv) -> None:
        """Receiver: data landed — ACK the sender, deliver to Converse.

        The control message leaves *before* the release (paper Fig. 5), on
        every fabric: a release that has to evict must not delay the ACK.
        """
        self._control(pe, state.src_rank, "ack", state)
        # The received buffer *is* the delivered message; the app consumes
        # it and the runtime reclaims it at handoff in this model.
        self._release(pe, state.dst)
        state.dst = None
        # self.deliver(pe.rank, ...), inlined: this step runs on that PE
        self.delivered += 1
        pe.enqueue(state.msg, self._rndv_recv_cpu)

    def _on_get_failed(self, pe: PE, state: _Rndv) -> None:
        """Receiver: GET abandoned — reclaim, and tell the sender to."""
        self.rndv_failed += 1
        self._release(pe, state.dst)
        state.dst = None
        self._control(pe, state.src_rank, "rndv_fail", state)

    def _on_ack(self, pe: PE, state: _Rndv) -> None:
        """Sender: receiver has the data — reclaim the send buffer.

        Guarded and nulled like every release here, so a late
        ``rndv_fail`` for the same transfer cannot free it twice.
        """
        if state.src is not None:
            self._release(pe, state.src)
            state.src = None

    # -- PUT protocol -----------------------------------------------------
    def _on_put_req(self, pe: PE, state: _Rndv) -> None:
        """Receiver: allocate and tell the sender where to put."""
        state.dst = self._acquire(pe, state.nbytes)
        self._control(pe, state.src_rank, "put_cts", state)

    def _on_put_cts(self, pe: PE, state: _Rndv) -> None:
        """Sender: push the data, then notify."""
        self._post(pe, _desc(PostType.PUT, state.src, state.dst, state.nbytes),
                   "put_done_local", "put_failed", state)

    def _on_put_local_done(self, pe: PE, state: _Rndv) -> None:
        """Sender: PUT completed locally — notify the receiver and free."""
        self._control(pe, state.dst_rank, "put_done", state)
        self._release(pe, state.src)
        state.src = None

    def _on_put_failed(self, pe: PE, state: _Rndv) -> None:
        """Sender: PUT abandoned — reclaim the send buffer and tell the
        receiver to reclaim the one it advertised in the CTS."""
        self.rndv_failed += 1
        self._release(pe, state.src)
        state.src = None
        self._control(pe, state.dst_rank, "rndv_fail", state)

    def _on_put_done(self, pe: PE, state: _Rndv) -> None:
        """Receiver: data landed — deliver."""
        self._release(pe, state.dst)
        state.dst = None
        self.deliver(pe.rank, state.msg, self._rndv_recv_cpu)

    # -- give-up cleanup ----------------------------------------------------
    def _on_rndv_fail(self, pe: PE, state: _Rndv) -> None:
        """The peer's post was abandoned: reclaim this side's buffer.

        Runs on the sender after a failed GET (its ``init`` pinned ``src``)
        or on the receiver after a failed PUT (its CTS pinned ``dst``); the
        failing side already reclaimed its own buffer.
        """
        if pe.rank == state.src_rank and state.src is not None:
            self._release(pe, state.src)
            state.src = None
        elif pe.rank == state.dst_rank and state.dst is not None:
            self._release(pe, state.dst)
            state.dst = None

    # ------------------------------------------------------------------ #
    # Persistent channels
    # ------------------------------------------------------------------ #
    def create_persistent(self, src_pe: PE, dst_rank: int,
                          max_bytes: int) -> PersistentHandle:
        if max_bytes <= 0:
            raise LrtsError(
                f"persistent channel needs max_bytes > 0, got {max_bytes}")
        if dst_rank == src_pe.rank:
            raise LrtsError("persistent channel to self is pointless")
        handle = PersistentHandle(src_pe.rank, dst_rank, max_bytes)
        chan = handle.impl = _Channel()
        # pin the sender-side window now (one-time cost)
        chan.src_win = self._pin_window(
            src_pe, max_bytes + LRTS_ENVELOPE,
            f"{self._persist_label}[{handle.id}].src")
        self._persistent[handle.id] = handle
        self._control(src_pe, dst_rank, "persist_setup", handle)
        return handle

    # -- handshake ----------------------------------------------------------
    def _on_persist_setup(self, pe: PE, handle: PersistentHandle) -> None:
        """Destination PE: pin the persistent receive window."""
        handle.impl.dst_win = self._pin_window(
            pe, handle.max_bytes + LRTS_ENVELOPE,
            f"{self._persist_label}[{handle.id}].dst")
        self._control(pe, handle.src_rank, "persist_ready", handle)

    def _on_persist_ready(self, pe: PE, handle: PersistentHandle) -> None:
        """Sender PE: channel open; flush anything queued."""
        handle.ready = True
        chan: _Channel = handle.impl
        queued, chan.queued = chan.queued, []
        for msg in queued:
            self._persistent_put(pe, handle, msg)
        # a destroy issued before the handshake completed was deferred
        # until the channel had windows to release on both ends
        if chan.closing:
            self._try_persist_finalize(pe, handle)

    # -- data path ----------------------------------------------------------
    def send_persistent(self, src_pe: PE, handle: PersistentHandle,
                        msg: Message) -> None:
        if handle.src_rank != src_pe.rank:
            raise LrtsError(
                f"persistent handle belongs to PE {handle.src_rank}, "
                f"used from {src_pe.rank}")
        if msg.nbytes > handle.max_bytes:
            raise LrtsError(
                f"message of {msg.nbytes} B exceeds persistent channel "
                f"max of {handle.max_bytes} B")
        if handle.impl.closing:
            raise LrtsError("send on a persistent channel being destroyed")
        msg.sent_at = src_pe.vtime
        src_pe.charge(self.cfg.converse_send_cpu, "overhead")
        self.conv.messages_sent += 1
        self.persistent_sent += 1
        if not handle.ready:
            handle.impl.queued.append(msg)
            return
        self._persistent_put(src_pe, handle, msg)

    def _persistent_put(self, pe: PE, handle: PersistentHandle,
                        msg: Message) -> None:
        chan: _Channel = handle.impl
        handle.sends += 1
        chan.inflight += 1
        self._post(pe, _desc(PostType.PUT, chan.src_win, chan.dst_win,
                             msg.nbytes + LRTS_ENVELOPE),
                   "persist_done", "persist_send_failed", (handle, msg),
                   rearm=handle)

    def _on_persist_done(self, pe: PE, payload) -> None:
        """Sender's local completion: notify the receiver (Fig. 7a)."""
        handle, msg = payload
        handle.impl.inflight -= 1
        self._control(pe, handle.dst_rank, "persistent", payload)
        if handle.impl.closing:
            self._try_persist_finalize(pe, handle)

    def _on_persist_send_failed(self, pe: PE, payload) -> None:
        """PUT abandoned: this send is lost, but the channel's pinned
        windows persist and later sends still work — count the
        abandonment so the application can see it."""
        handle, _ = payload
        self.persistent_failed += 1
        handle.impl.inflight -= 1
        if handle.impl.closing:
            self._try_persist_finalize(pe, handle)

    def _on_persistent(self, pe: PE, payload) -> None:
        """Receiver: the PUT has landed; the notify carries no data."""
        _, msg = payload
        self.deliver(pe.rank, msg, recv_cpu=0.0)

    # -- teardown -----------------------------------------------------------
    def destroy_persistent(self, src_pe: PE, handle: PersistentHandle) -> None:
        """Release both pinned windows (cost charged to the caller).

        Teardown is *deferred* while the channel still has work in the air:
        freeing the pinned send window under an in-flight PUT is a
        use-after-free on real hardware, and destroying before the
        handshake answered would leak the receiver-side window.  The actual
        release happens in :meth:`_try_persist_finalize` once the channel
        quiesces.  Calling destroy twice is a no-op.
        """
        chan: _Channel = handle.impl
        if chan.queued:
            raise LrtsError("destroying a persistent channel with queued sends")
        if chan.closing:
            return
        chan.closing = True
        self._try_persist_finalize(src_pe, handle)

    def _try_persist_finalize(self, pe: PE, handle: PersistentHandle) -> None:
        """Complete a deferred destroy once the channel has quiesced."""
        chan: _Channel = handle.impl
        if not chan.closing or chan.inflight or chan.queued:
            return
        if not handle.ready and chan.dst_win is None and chan.src_win is not None:
            # handshake still pending: wait for persist_ready so the
            # receiver-side window exists to be torn down
            return
        if chan.src_win is not None:
            self._unpin_window(pe, chan.src_win)
            chan.src_win = None
        if chan.dst_win is not None:
            # receiver-side release; charge there via a protocol message
            self._control(pe, handle.dst_rank, "persist_teardown", handle)
        handle.ready = False
        chan.closing = False
        self._persistent.pop(handle.id, None)

    def _on_persist_teardown(self, pe: PE, handle: PersistentHandle) -> None:
        chan: _Channel = handle.impl
        if chan.dst_win is not None:
            self._unpin_window(pe, chan.dst_win)
            chan.dst_win = None

    def _scan_persistent(self, san) -> None:
        """The persistent half of a layer's quiescence scan."""
        for handle in self._persistent.values():
            where = f"{self._persist_label}[{handle.id}]"
            if handle.impl.queued:
                san.report(
                    "stuck-persistent", where,
                    f"{len(handle.impl.queued)} queued send(s), "
                    f"channel never ready")
            elif handle.impl.closing:
                san.report(
                    "stuck-persistent", where,
                    "destroy deferred forever (channel never quiesced)")
