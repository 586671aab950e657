"""Quiescence detection (CmiStartQD).

Charm++'s quiescence detection answers "have all messages been processed
and no new ones created?" — the termination condition of task-parallel
programs like the paper's N-Queens (built on ParSSSE, which relies on it).

Algorithm: the classic two-wave counting scheme Charm++ uses.  A wave
collects ``(sent, processed)`` counters from every PE up a spanning tree.
Quiescence is declared when **two consecutive waves** observe the same
totals with ``sent == processed`` — one wave alone can race with messages
in flight, which the test suite demonstrates.

The QD control traffic itself travels through the machine layer like any
message but is excluded from the counters it aggregates.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.converse.collectives import SpanningTree
from repro.converse.scheduler import ConverseRuntime, Message, PE


class QuiescenceDetector:
    """Counting quiescence detection over a spanning tree."""

    def __init__(self, conv: ConverseRuntime):
        self.conv = conv
        self.tree = SpanningTree(len(conv.pes))
        #: app-message counters, maintained by notify_send/notify_process
        self.sent = [0] * len(conv.pes)
        self.processed = [0] * len(conv.pes)
        self._on_quiescence: Optional[Callable[[float], None]] = None
        self._prev_totals: Optional[tuple[int, int]] = None
        self._wave_acc: dict[int, tuple[int, int, int]] = {}
        self._active = False
        self.waves = 0
        self._h_down = conv.register_handler(self._wave_down)
        self._h_up = conv.register_handler(self._wave_up)

    # -- counter feed (called by applications' send/execute wrappers) -----------
    def notify_send(self, pe_rank: int, n: int = 1) -> None:
        self.sent[pe_rank] += n

    def notify_process(self, pe_rank: int, n: int = 1) -> None:
        self.processed[pe_rank] += n

    # -- API ---------------------------------------------------------------------
    def start(self, on_quiescence: Callable[[float], None]) -> None:
        """Begin detection; ``on_quiescence(time)`` fires on PE 0."""
        if self._active:
            raise RuntimeError("quiescence detection already active")
        self._active = True
        self._on_quiescence = on_quiescence
        self._prev_totals = None
        self.conv.send_from_outside(
            0, Message(self._h_down, 0, 0, 16), at=self.conv.engine.now)

    # -- wave protocol ----------------------------------------------------------
    def _wave_down(self, pe: PE, msg: Message) -> None:
        for child in self.tree.children(pe.rank):
            self.conv.send(pe, child, Message(self._h_down, pe.rank, child, 16))
        # contribute this PE's own counters to the wave.  This MERGES into
        # the accumulator rather than overwriting it: a child's up-message
        # can overtake the parent's own down-message (out-of-order
        # delivery), and an overwrite here would silently discard that
        # child's contribution, stalling the wave forever.
        self._wave_merge(pe, self.sent[pe.rank], self.processed[pe.rank], 1)

    def _wave_up(self, pe: PE, msg: Message) -> None:
        s, p, k = msg.payload
        self._wave_merge(pe, s, p, k)

    def _wave_merge(self, pe: PE, s: int, p: int, k: int) -> None:
        """Fold one contribution (own counters or a child subtree) into the
        wave accumulator; forward up once the whole subtree has reported."""
        acc_s, acc_p, acc_k = self._wave_acc.get(pe.rank, (0, 0, 0))
        acc_s, acc_p, acc_k = acc_s + s, acc_p + p, acc_k + k
        expected = 1 + sum(self.tree.subtree_size(c)
                           for c in self.tree.children(pe.rank))
        if acc_k < expected:
            self._wave_acc[pe.rank] = (acc_s, acc_p, acc_k)
            return
        self._wave_acc.pop(pe.rank, None)
        self._send_up(pe, acc_s, acc_p, acc_k)

    def _send_up(self, pe: PE, s: int, p: int, k: int) -> None:
        parent = self.tree.parent(pe.rank)
        if parent is not None:
            self.conv.send(
                pe, parent,
                Message(self._h_up, pe.rank, parent, 16, payload=(s, p, k)))
            return
        # wave complete at the root
        self.waves += 1
        totals = (s, p)
        if s == p and self._prev_totals == totals:
            self._active = False
            cb, self._on_quiescence = self._on_quiescence, None
            if cb is not None:
                cb(pe.vtime)
            return
        self._prev_totals = totals
        # re-launch the next wave
        self.conv.send(pe, pe.rank, Message(self._h_down, pe.rank, pe.rank, 16))
