"""Tag matching state: posted-receive and unexpected-message queues.

MPI semantics, enforced by :class:`~repro.mpish.world.MpiWorld` (the
receive calls scan the unexpected queue, an arrival scans the posted one):

* a receive matches ``(src, tag)`` with ``ANY`` wildcards;
* matching is FIFO within the set of candidates (non-overtaking);
* cost: every match operation pays ``mpi_match_base_cpu`` plus
  ``mpi_match_per_entry_cpu`` per queue entry scanned before the match
  (or per entry in the whole queue on failure).  Long unexpected queues —
  the N-Queens random spray — therefore make every probe/receive slower,
  which is the paper's "prolonged MPI_Iprobe" observation made concrete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.mpish.request import MpiRequest

ANY = -1


@dataclass(slots=True)
class Arrival:
    """An arrived message (or rendezvous RTS) awaiting a matching receive."""

    src: int
    dst: int
    tag: int
    nbytes: int
    payload: Any
    time: float  # arrival time
    #: "eager" (data is in internal buffers) or "rts" (rendezvous pending)
    protocol: str = "eager"
    #: for an RTS: the sender's request, which the FIN completes
    rndv: Any = None
    seq: int = 0


class MatchEngine:
    """Per-rank matching state."""

    __slots__ = ("rank", "posted", "unexpected", "known_sources",
                 "max_unexpected", "total_matches")

    def __init__(self, rank: int):
        self.rank = rank
        self.posted: list[MpiRequest] = []
        self.unexpected: list[Arrival] = []
        #: distinct peers this rank has received from (live connections);
        #: an ANY_SOURCE probe must scan one mailbox per entry
        self.known_sources: set[int] = set()
        # diagnostics
        self.max_unexpected = 0
        self.total_matches = 0

    @property
    def unexpected_depth(self) -> int:
        return len(self.unexpected)
