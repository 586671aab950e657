"""Converse condition-daemon timers (CcdCallFnAfter).

The real Converse scheduler interleaves timer callbacks with message
execution; here a timer enqueues a scheduler item on its PE when it fires,
so callbacks run in PE context (can send messages, charge time) and
serialize with handlers exactly like everything else.
"""

from __future__ import annotations

from typing import Callable

from repro.converse.scheduler import ConverseRuntime, Message, PE
from repro.errors import CharmError


class TimerService:
    """Per-runtime timer facility (CcdCallFnAfter-style)."""

    def __init__(self, conv: ConverseRuntime):
        self.conv = conv
        self._hid = conv.register_handler(self._fire)
        self.scheduled = 0
        self.fired = 0

    def call_after(self, delay: float, pe_rank: int,
                   fn: Callable[[PE], None]) -> "TimerHandle":
        """Run ``fn(pe)`` on PE ``pe_rank`` after ``delay`` seconds."""
        if delay < 0:
            raise CharmError(f"negative timer delay {delay}")
        handle = TimerHandle(self, pe_rank, fn)
        self.scheduled += 1
        handle._ev = self.conv.engine.call_after(delay, self._enqueue, handle)
        return handle

    # -- internals ------------------------------------------------------------
    def _enqueue(self, handle: "TimerHandle") -> None:
        # the engine event has fired: a late cancel() has nothing to reach
        handle._ev = None
        if handle.cancelled:
            return
        self.conv.pes[handle.pe_rank].enqueue(
            Message(self._hid, handle.pe_rank, handle.pe_rank, 0,
                    payload=handle))

    def _fire(self, pe: PE, msg: Message) -> None:
        handle: TimerHandle = msg.payload
        if handle.cancelled:
            return
        self.fired += 1
        handle.fn(pe)


class TimerHandle:
    """Cancellable reference to a pending timer."""

    __slots__ = ("service", "pe_rank", "fn", "cancelled", "_ev")

    def __init__(self, service: TimerService, pe_rank: int,
                 fn: Callable[[PE], None]):
        self.service = service
        self.pe_rank = pe_rank
        self.fn = fn
        self.cancelled = False
        #: the pending engine event, when one exists (None once it fires)
        self._ev = None

    def cancel(self) -> None:
        self.cancelled = True
        ev = self._ev
        if ev is not None:
            # release the heap entry eagerly — retransmit timers are
            # armed-and-cancelled on every reliable SMSG, and leaving them
            # to lazy cancellation bloats the event heap
            self._ev = None
            ev.cancel()
