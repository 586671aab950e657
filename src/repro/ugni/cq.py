"""Completion queues (``GNI_CqCreate`` / ``GNI_CqGetEvent``).

A CQ is a bounded FIFO of :class:`CqEntry` records.  Real code discovers
events by polling; a discrete-event simulation would waste unbounded work
busy-polling, so a CQ also supports a *notify hook*: the machine layer
registers ``on_event`` and the simulation wakes it exactly when an entry
arrives.  The poll cost the real code would pay is still charged — the
consumer pays ``cq_poll_cpu`` per :meth:`get_event` call — so the timing
model is unchanged, only the wasted host cycles are elided.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import UgniInvalidParam
from repro.sim.engine import Engine
from repro.ugni.types import CqEventKind


class CqEntry:
    """One completion event (treated as immutable once pushed)."""

    __slots__ = ("kind", "time", "tag", "data", "source")

    def __init__(self, kind: CqEventKind, time: float, tag: Any = None,
                 data: Any = None, source: Any = None):
        self.kind = kind
        self.time = time
        #: application tag (SMSG tag, post descriptor id, ...)
        self.tag = tag
        #: event payload: the SMSG message, the completed descriptor, ...
        self.data = data
        #: originating PE / node, when meaningful
        self.source = source

    def __repr__(self) -> str:  # pragma: no cover
        return (f"CqEntry(kind={self.kind!r}, time={self.time!r}, "
                f"tag={self.tag!r}, data={self.data!r}, "
                f"source={self.source!r})")


class CompletionQueue:
    """A single completion queue."""

    __slots__ = ("engine", "capacity", "name", "pe", "_entries",
                 "on_event", "overruns", "error_events", "total_events")

    def __init__(self, engine: Engine, capacity: int = 4096, name: str = "",
                 pe: Optional[int] = None):
        if capacity < 1:
            raise UgniInvalidParam(f"CQ capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        if not name:
            # numbered per engine: a fresh machine names its queues alike
            # whatever ran earlier in the process
            name = f"cq{engine.unnamed_cqs}"
            engine.unnamed_cqs += 1
        self.name = name
        #: the PE this queue belongs to, for an owner that hooks all its
        #: queues with one shared ``on_event`` (the SMSG RX queues)
        self.pe = pe
        #: FIFO, oldest first.  A list: a hooked consumer drains on every
        #: notify, so a push finds it empty or one deep and ``pop(0)`` has
        #: next to nothing to move, and an idle queue keeps no
        #: preallocated block of slots
        self._entries: list[CqEntry] = []
        #: fired when an entry lands while the queue was empty
        self.on_event: Optional[Callable[["CompletionQueue"], None]] = None
        #: number of events that found the queue full.  We never drop the
        #: data event itself; each overrun also produces an explicit
        #: ``ERROR`` entry (``tag="overrun"``) so consumers see the
        #: condition instead of a silently-growing counter.
        self.overruns = 0
        #: ``ERROR``-kind entries pushed (overrun markers + fault-injected
        #: transaction errors)
        self.error_events = 0
        self.total_events = 0

    # -- producer side ------------------------------------------------------
    def push(self, entry: CqEntry) -> None:
        """Deliver an event (called by the NIC/fabric at completion time)."""
        overrun = len(self._entries) >= self.capacity
        if overrun:
            self.overruns += 1
        if entry.kind is CqEventKind.ERROR:
            self.error_events += 1
        self._entries.append(entry)
        self.total_events += 1
        san = self.engine.sanitizer
        if san is not None:
            san.on_cq_push(self, entry)
        obs = self.engine.observer
        if obs is not None:
            obs.on_cq_push(self, entry, entry.time)
        if overrun:
            # explicit overrun marker, queued right after the event that hit
            # the full queue (the counter and these entries always agree)
            self._entries.append(CqEntry(
                CqEventKind.ERROR, entry.time, tag="overrun", data=entry,
                source=entry.source))
            self.error_events += 1
        if self.on_event is not None:
            self.on_event(self)

    # -- consumer side ------------------------------------------------------
    def get_event(self) -> Optional[CqEntry]:
        """``GNI_CqGetEvent``: pop the oldest entry, or None (NOT_DONE)."""
        if self._entries:
            entry = self._entries.pop(0)
            san = self.engine.sanitizer
            if san is not None:
                san.on_cq_pop(self, entry)
            return entry
        return None

    def peek(self) -> Optional[CqEntry]:
        return self._entries[0] if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<CompletionQueue {self.name} depth={len(self._entries)}>"
