"""POSIX-shared-memory intra-node transport (paper §IV.C).

Two delivery modes, both of which the paper measured (Fig. 8c):

* **double copy** — the sender copies its message into the shared region,
  the receiver copies it out into a fresh runtime buffer.  Simple, and the
  region slot frees as soon as the receiver's copy completes.  Competitive
  below ~16 KB, loses to MPI's XPMEM path beyond that.
* **single copy** — sender-side copy only: because the Charm++ runtime
  owns message buffers, the receiver can hand the in-region message
  straight to the application with no copy.  The slot is released when the
  application message is freed (we approximate: on delivery, since the
  scheduler consumes messages promptly) — this is the variant that beats
  MPI overall.

Flow control: each directed core pair has a region of
``pxshm_region_bytes``; messages occupy region space from the sender copy
until release.  A full region queues the send locally (the fabric retries
on release), modelling the producer-consumer ring of the real pxshm layer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import LrtsError
from repro.hardware.machine import Machine


@dataclass
class PxshmMessage:
    src_pe: int
    dst_pe: int
    nbytes: int
    payload: Any = None


class _Channel:
    """One directed shared-memory queue between two cores of a node."""

    __slots__ = ("capacity", "used", "backlog")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.used = 0
        #: sends waiting for region space: (msg, deliver_cb)
        self.backlog: deque = deque()


class PxshmFabric:
    """All intra-node shared-memory channels of one job."""

    def __init__(self, machine: Machine, single_copy: bool = True):
        self.machine = machine
        self.config = machine.config
        self.engine = machine.engine
        #: sender-side single copy (the paper's optimization) vs double copy
        self.single_copy = single_copy
        self._channels: dict[tuple[int, int], _Channel] = {}
        self.messages = 0
        self.backlogged = 0

    def _channel(self, src_pe: int, dst_pe: int) -> _Channel:
        key = (src_pe, dst_pe)
        ch = self._channels.get(key)
        if ch is None:
            ch = _Channel(self.config.pxshm_region_bytes)
            self._channels[key] = ch
        return ch

    # -- data path ----------------------------------------------------------------
    def send(
        self,
        src_pe: int,
        dst_pe: int,
        nbytes: int,
        payload: Any,
        deliver: Callable[[PxshmMessage, float, float], None],
        at: Optional[float] = None,
    ) -> float:
        """Send an intra-node message; returns sender CPU seconds.

        ``deliver(msg, time, recv_cpu)`` is invoked when the message is
        available to the receiver's progress engine; ``recv_cpu`` is what
        the receiving PE must charge (copy-out for double copy, handoff
        only for single copy).
        """
        if not self.machine.same_node(src_pe, dst_pe):
            raise LrtsError(
                f"pxshm between different nodes: {src_pe} -> {dst_pe}"
            )
        if src_pe == dst_pe:
            raise LrtsError("pxshm to self; the scheduler handles local sends")
        cfg = self.config
        if nbytes > cfg.pxshm_region_bytes:
            # it would wait in the backlog for space no release can make
            raise LrtsError(
                f"pxshm message of {nbytes} B exceeds the "
                f"{cfg.pxshm_region_bytes} B region; send it through the NIC")
        ch = self._channel(src_pe, dst_pe)
        msg = PxshmMessage(src_pe, dst_pe, nbytes, payload)
        # sender always pays: lock/fence + copy into the region
        now = self.engine.now if at is None else at
        cpu = cfg.pxshm_sync_cpu + cfg.t_memcpy(nbytes)
        if ch.used + nbytes <= ch.capacity:
            self._enqueue(ch, msg, deliver, start=now + cpu)
        else:
            self.backlogged += 1
            ch.backlog.append((msg, deliver))
        return cpu

    def _enqueue(self, ch: _Channel, msg: PxshmMessage,
                 deliver: Callable, start: float) -> None:
        cfg = self.config
        ch.used += msg.nbytes
        self.messages += 1
        # visible to the receiver after the sender's fence
        notify_at = start + cfg.pxshm_sync_cpu
        if self.single_copy:
            recv_cpu = cfg.pxshm_sync_cpu  # handoff, no copy
        else:
            recv_cpu = cfg.pxshm_sync_cpu + cfg.t_memcpy(msg.nbytes)

        def fire(t: float) -> None:
            deliver(msg, t, recv_cpu)
            # slot released once the receiver is done with the region:
            # immediately after copy-out (double copy) or on handoff
            # (single copy; scheduler consumes the message promptly)
            self._release(ch, msg.nbytes, t + recv_cpu)

        self.engine.call_at(notify_at, fire, notify_at)

    def _release(self, ch: _Channel, nbytes: int, at: float) -> None:
        def do_release() -> None:
            ch.used -= nbytes
            assert ch.used >= 0, "pxshm region accounting went negative"
            while ch.backlog:
                msg, deliver = ch.backlog[0]
                if ch.used + msg.nbytes > ch.capacity:
                    break
                ch.backlog.popleft()
                self._enqueue(ch, msg, deliver, start=self.engine.now)

        self.engine.call_at(at, do_release)

    # -- introspection --------------------------------------------------------
    @property
    def region_memory(self) -> int:
        """Shared-memory footprint of all channels created so far."""
        return len(self._channels) * self.config.pxshm_region_bytes

    def pending(self) -> int:
        return sum(len(ch.backlog) for ch in self._channels.values())
