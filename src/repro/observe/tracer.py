"""Causal message tracing: one trace ID threaded send -> exec.

A trace ID is minted when :meth:`~repro.converse.scheduler.ConverseRuntime.send`
accepts a message and rides on ``Message.trace_id`` through every layer the
message crosses.  Each layer appends a stage row — the same per-path
breakdown Projections gives Charm++ (paper §V's time profiles), but causal:
every row belongs to exactly one message, so "where did message 412 spend
its time" is a lookup, not a correlation exercise.

Canonical stage names, in causal order (not every message crosses every
stage — an intranode send skips the fabric entirely):

``send``      minted in the Converse scheduler on the source PE
``lrts``      the machine layer chose a protocol path (detail: which)
``tx``        the fabric accepted bytes for the wire (SMSG/NIC)
``arrive``    landed: in the SMSG mailbox (``smsg_rx[{pe}]``), or on a CQ
``deliver``   the destination PE enqueued the message
``exec``      the destination PE ran the handler

Retransmissions legitimately repeat ``tx``/``arrive``; timestamps stay
monotone non-decreasing because every layer stamps simulated time.

The record is typed columns, not objects: a span is one row of
``array`` columns (source, destination, bytes) at ``trace_id - base - 1``,
a stage is one row of (trace ID, stage code, time, where, detail), with
``where`` and ``detail`` indexes into one intern table — or, for a stage a
PE stamps (``send``/``deliver``/``exec``), ``-1 - rank``, rendered
``pe{rank}`` only when read.  :meth:`MessageTracer.records` is the one
read path.

Writes: :meth:`MessageTracer.send` mints a span with its ``send`` row,
:meth:`MessageTracer.row` appends any other stage row by code, and
:meth:`MessageTracer.stage` is the same by name.  The observer's
``on_deliver`` / ``on_exec`` write their PE-stamped rows into the columns
themselves and read ``_sent_at`` / ``_rndv_at`` in place.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Any, Iterator, Optional

#: stage codes a stage row stores; names a caller adds are appended
STAGES = ("send", "lrts", "tx", "arrive", "deliver", "exec", "gpu")
SEND, LRTS, TX, ARRIVE, DELIVER, EXEC, GPU = range(len(STAGES))
_NAN = float("nan")


class MessageTracer:
    """Mints trace IDs and accumulates per-message stage rows.

    IDs are a plain counter (deterministic: minting happens in simulated
    event order), and every span minted is kept.
    """

    def __init__(self) -> None:
        self._next_id = 0
        #: IDs at or below ``_base`` were skipped by :meth:`fast_forward`
        #: before anything was minted; span row 0 is trace ID ``_base + 1``
        self._base = 0
        # span columns (a source PE of -1 marks an ID never minted)
        self._src = array("i")
        self._dst = array("i")
        self._nbytes = array("q")
        #: the span's ``send`` time (set at mint) and its first
        #: ``lrts``/``rendezvous`` time (NaN: none)
        self._sent_at = array("d")
        self._rndv_at = array("d")
        # stage rows
        self._tid = array("q")
        self._code = array("b")
        self._time = array("d")
        self._where = array("i")
        self._detail = array("i")
        self._stage_names = list(STAGES)
        self._stage_code = {name: code for code, name in enumerate(STAGES)}
        #: the intern table of ``where`` / ``detail`` values (0 is None)
        self._names: list[Any] = [None]
        self._name_index: dict[Any, int] = {None: 0}
        self._grouped: Optional[tuple] = None

    def _span_columns(self) -> tuple[array, ...]:
        return (self._src, self._dst, self._nbytes, self._sent_at,
                self._rndv_at)

    def _stage_columns(self) -> tuple[array, ...]:
        return (self._tid, self._code, self._time, self._where, self._detail)

    def send(self, src_pe: int, dst_pe: int, nbytes: int,
             time: float) -> int:
        """Mint a trace ID: the span and its ``send`` row (where
        ``pe{src_pe}``) in one write."""
        self._next_id = tid = self._next_id + 1
        self._src.append(src_pe)
        self._dst.append(dst_pe)
        self._nbytes.append(nbytes)
        self._sent_at.append(time)
        self._rndv_at.append(_NAN)
        self._tid.append(tid)
        self._code.append(SEND)
        self._time.append(time)
        self._where.append(-1 - src_pe)
        self._detail.append(0)
        return tid

    def row(self, trace_id: Optional[int], code: int, time: float,
            where: Any, detail: Any = None) -> None:
        """Append one stage row, ``where`` and ``detail`` interned.  An ID
        with no span here (None, minted before this tracer existed, or
        skipped by :meth:`fast_forward`) writes nothing."""
        if trace_id is None:
            return
        row = trace_id - self._base - 1
        if not 0 <= row < len(self._src) or self._src[row] < 0:
            return
        if (code == LRTS and detail == "rendezvous"
                and self._rndv_at[row] != self._rndv_at[row]):
            self._rndv_at[row] = time
        self._tid.append(trace_id)
        self._code.append(code)
        self._time.append(time)
        index = self._name_index
        at = index.get(where)
        self._where.append(self._intern(where) if at is None else at)
        at = index.get(detail)
        self._detail.append(self._intern(detail) if at is None else at)

    def stage(self, trace_id: Optional[int], stage: str, time: float,
              where: Any = None, detail: Any = None) -> None:
        """:meth:`row` by stage name (a new name gets the next code)."""
        code = self._stage_code.get(stage)
        if code is None:
            code = self._stage_code[stage] = len(self._stage_names)
            self._stage_names.append(stage)
        self.row(trace_id, code, time, where, detail)

    def _intern(self, value: Any) -> int:
        index = self._name_index[value] = len(self._names)
        self._names.append(value)
        return index

    def fast_forward(self, next_id: int) -> None:
        """Never mint IDs at or below ``next_id`` (checkpoint restore).

        A restarted runtime gets a fresh tracer; fast-forwarding it past
        the checkpointed counter keeps trace IDs globally unique across
        the crash/restore boundary and — because the restore path is
        deterministic — identical for identical (config, seed, schedule).
        The skipped IDs hold no span: with none minted the columns start
        at ``next_id``, otherwise they are padded with unminted rows.
        """
        if next_id <= self._next_id:
            return
        if not self._src:
            self._base = next_id
        else:
            gap = next_id - self._next_id
            self._src.extend(array("i", [-1]) * gap)
            self._dst.extend(array("i", [-1]) * gap)
            self._nbytes.extend(array("q", [0]) * gap)
            self._sent_at.extend(array("d", [_NAN]) * gap)
            self._rndv_at.extend(array("d", [_NAN]) * gap)
        self._next_id = next_id

    # -- queries -----------------------------------------------------------
    def minted(self) -> int:
        return self._next_id

    def footprint(self) -> dict[str, int]:
        """Spans, stage rows held, column bytes."""
        return {
            "spans": len(self._src) - self._src.count(-1),
            "stage_rows": len(self._tid),
            "column_bytes": sum(len(col) * col.itemsize
                                for col in self._span_columns()
                                + self._stage_columns()),
        }

    def _groups(self) -> tuple[list[int], list[int]]:
        """Stage rows in trace-ID order, each span's in append order, and
        where each span's run starts: span row ``s`` owns
        ``order[starts[s]:starts[s + 1]]``.  Cached until a write."""
        key = (len(self._tid), len(self._src))
        if self._grouped is None or self._grouped[0] != key:
            tids = self._tid
            order = sorted(range(len(tids)), key=tids.__getitem__)
            counts = [0] * (len(self._src) + 1)
            base = self._base
            for row in order:
                counts[tids[row] - base] += 1
            self._grouped = (key, order, list(accumulate(counts)))
        return self._grouped[1], self._grouped[2]

    def _render(self, row: int) -> tuple[str, float, Any, Any]:
        where = self._where[row]
        return (self._stage_names[self._code[row]], self._time[row],
                self._names[where] if where >= 0 else f"pe{-1 - where}",
                self._names[self._detail[row]])

    def records(self) -> Iterator[tuple[int, int, int, int, list[tuple]]]:
        """``(trace_id, src_pe, dst_pe, nbytes, stages)`` per span in
        trace-ID order, ``stages`` as ``(stage, time, where, detail)``
        tuples in the order they were stamped: what the exporters read."""
        order, starts = self._groups()
        base, src = self._base, self._src
        for row in range(len(src)):
            if src[row] < 0:
                continue
            yield (base + row + 1, src[row], self._dst[row],
                   self._nbytes[row],
                   [self._render(r)
                    for r in order[starts[row]:starts[row + 1]]])

    def delivered(self) -> int:
        """How many spans ran a handler (``exec`` stage)."""
        return len({tid for tid, code in zip(self._tid, self._code)
                    if code == EXEC})
