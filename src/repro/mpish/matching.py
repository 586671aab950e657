"""Tag matching: posted-receive and unexpected-message queues.

MPI semantics enforced here:

* a receive matches ``(src, tag)`` with ``ANY`` wildcards;
* matching is FIFO within the set of candidates (non-overtaking);
* cost: every match operation pays ``mpi_match_base_cpu`` plus
  ``mpi_match_per_entry_cpu`` per queue entry scanned before the match
  (or per entry in the whole queue on failure).  Long unexpected queues —
  the N-Queens random spray — therefore make every probe/receive slower,
  which is the paper's "prolonged MPI_Iprobe" observation made concrete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.hardware.config import MachineConfig
from repro.mpish.request import MpiRequest

ANY = -1


@dataclass
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
    #: opaque sender-side state for the rendezvous GET
    rndv: Any = None
    seq: int = 0


class MatchEngine:
    """Per-rank matching state."""

    def __init__(self, rank: int, config: MachineConfig):
        self.rank = rank
        self.config = config
        self.posted: list[MpiRequest] = []
        self.unexpected: list[Arrival] = []
        #: distinct peers this rank has received from (live connections);
        #: an ANY_SOURCE probe must scan one mailbox per entry
        self.known_sources: set[int] = set()
        # diagnostics
        self.max_unexpected = 0
        self.total_matches = 0

    # -- receiver side -----------------------------------------------------------
    def match_unexpected(self, src: int, tag: int,
                         pop: bool = True) -> tuple[Optional[Arrival], float]:
        """Find the oldest unexpected arrival matching (src, tag).

        Returns ``(arrival_or_None, cpu_cost)``.  ``pop=False`` is the
        MPI_Iprobe variant (peek without consuming).
        """
        cfg = self.config
        # the wildcard test and the scan cost are written out in both
        # match loops: a helper would be a call per queue entry scanned
        for i, arr in enumerate(self.unexpected):
            if (src == ANY or src == arr.src) and (tag == ANY or tag == arr.tag):
                if pop:
                    self.unexpected.pop(i)
                    self.total_matches += 1
                return arr, (cfg.mpi_match_base_cpu
                             + (i + 1) * cfg.mpi_match_per_entry_cpu)
        return None, (cfg.mpi_match_base_cpu
                      + len(self.unexpected) * cfg.mpi_match_per_entry_cpu)

    def post(self, req: MpiRequest) -> None:
        self.posted.append(req)

    # -- arrival side ---------------------------------------------------------------
    def match_posted(self, arr: Arrival) -> tuple[Optional[MpiRequest], float]:
        """Match an arrival against posted receives (progress-engine work)."""
        cfg = self.config
        src, tag = arr.src, arr.tag
        for i, req in enumerate(self.posted):
            if (req.src == ANY or req.src == src) and (
                    req.tag == ANY or req.tag == tag):
                self.posted.pop(i)
                self.total_matches += 1
                return req, (cfg.mpi_match_base_cpu
                             + (i + 1) * cfg.mpi_match_per_entry_cpu)
        return None, (cfg.mpi_match_base_cpu
                      + len(self.posted) * cfg.mpi_match_per_entry_cpu)

    def add_unexpected(self, arr: Arrival) -> None:
        self.unexpected.append(arr)
        self.known_sources.add(arr.src)
        if len(self.unexpected) > self.max_unexpected:
            self.max_unexpected = len(self.unexpected)

    def probe_scan_cost(self) -> float:
        """Connection-scan component of an ANY_SOURCE MPI_Iprobe.

        The probe walks per-peer mailboxes and returns at the first one
        with data, so the expected scan length is the connection count
        divided by how many messages are currently waiting: sparse traffic
        (one pending message among hundreds of peers — the N-Queens spray
        in steady state) pays the full scan, bursty traffic (a deep
        unexpected queue) finds data quickly.
        """
        expected_scan = len(self.known_sources) / (1 + len(self.unexpected))
        return expected_scan * self.config.mpi_iprobe_per_conn_cpu

    @property
    def unexpected_depth(self) -> int:
        return len(self.unexpected)
