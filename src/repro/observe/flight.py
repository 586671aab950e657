"""Flight recorder: a bounded ring of recent records plus dumps.

The recorder continuously notes interesting events (faults, recovery
actions, stalls) into a ring — bounded memory no matter how long the run
— and snapshots the ring when something goes wrong: a reliability
give-up, a sanitizer violation, or an engine stall.  The snapshot (a
:class:`FlightDump`) is what a postmortem reads: "the last N things the
runtime did before it gave up".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

#: default ring size — enough to cover a few retransmission windows
DEFAULT_CAPACITY = 256


@dataclass(frozen=True)
class FlightRecord:
    """One noted event."""

    time: float
    category: str  # "fault", "recovery", "smsg", "sanitize", "engine"
    event: str  # e.g. "node_crash", "post_retry", "credit_stall"
    where: Any = None  # PE / node / pair / queue identifier
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FlightDump:
    """One snapshot of the ring, taken at a trigger."""

    reason: str
    time: float
    where: Any = None
    #: ring contents at the trigger, oldest first
    records: tuple[FlightRecord, ...] = ()
    #: records that had already been evicted before the trigger
    dropped: int = 0

    def render(self) -> str:
        lines = [f"flight dump: {self.reason} at t={self.time:.9f} "
                 f"({len(self.records)} records, {self.dropped} dropped)"]
        for rec in self.records:
            lines.append(f"  t={rec.time:.9f} [{rec.category}] {rec.event} "
                         f"{rec.where} {rec.detail}")
        return "\n".join(lines)


class FlightRecorder:
    """Ring buffer of recent records, dumped on fault/violation/stall."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        #: the newest ``capacity`` records, oldest first
        self.records: deque[FlightRecord] = deque(maxlen=capacity)
        #: records evicted to honor the capacity
        self.dropped = 0
        self.dumps: list[FlightDump] = []

    def note(self, time: float, category: str, event: str,
             where: Any = None, **detail: Any) -> None:
        records = self.records
        if len(records) == records.maxlen:
            self.dropped += 1
        records.append(FlightRecord(time, category, event, where, detail))

    def dump(self, reason: str, time: float, where: Any = None) -> FlightDump:
        snap = FlightDump(reason=reason, time=time, where=where,
                          records=tuple(self.records),
                          dropped=self.dropped)
        self.dumps.append(snap)
        return snap
