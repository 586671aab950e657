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

The record is typed columns, not objects.  A span is one row of
``array`` columns (source, destination, bytes, send time) at
``trace_id - base - 1``; its ``send`` stage is implied by that row and
rendered first, so no row is written for it.  Every other stage is one
row of three columns: trace ID, time, and a key into a table of
``(code, where, detail)`` triples, with ``where`` and ``detail`` indexes
into one intern table — or, for a stage a PE stamps (``deliver`` /
``exec``), ``where`` is ``-1 - rank``, rendered ``pe{rank}`` only when
read.  The first ``lrts``/``rendezvous`` time of a span is kept in a map
over rendezvous spans only.  :meth:`MessageTracer.records` is the one
read path.

Writes: the observer's per-message hooks mint spans and append rows in
place, each with keys it caches the first time it sees a label;
:meth:`MessageTracer.send` mints a span, :meth:`MessageTracer.row`
appends a stage row by code and :meth:`MessageTracer.stage` by name —
the writers for rare hooks (``on_gpu``) and direct callers.
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
        #: the span's ``send`` time, set at mint
        self._sent_at = array("d")
        #: span row -> its first ``lrts``/``rendezvous`` time
        self._rndv_at: dict[int, float] = {}
        # stage rows
        self._tid = array("q")
        self._time = array("d")
        self._key = array("i")
        #: key -> ``(code, where, detail)``, interned by :meth:`_key_of`
        self._keys: list[tuple[int, int, int]] = []
        self._key_index: dict[tuple[int, int, int], int] = {}
        self._stage_names = list(STAGES)
        self._stage_code = {name: code for code, name in enumerate(STAGES)}
        #: the intern table of ``where`` / ``detail`` values (0 is None)
        self._names: list[Any] = [None]
        self._name_index: dict[Any, int] = {None: 0}
        self._grouped: Optional[tuple] = None

    def _columns(self) -> tuple[array, ...]:
        return (self._src, self._dst, self._nbytes, self._sent_at,
                self._tid, self._time, self._key)

    def send(self, src_pe: int, dst_pe: int, nbytes: int,
             time: float) -> int:
        """Mint a trace ID: the span row, which implies its ``send`` stage
        (where ``pe{src_pe}``)."""
        self._next_id = tid = self._next_id + 1
        self._src.append(src_pe)
        self._dst.append(dst_pe)
        self._nbytes.append(nbytes)
        self._sent_at.append(time)
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
                and row not in self._rndv_at):
            self._rndv_at[row] = time
        self._tid.append(trace_id)
        self._time.append(time)
        self._key.append(self._key_of(code, where, detail))

    def stage(self, trace_id: Optional[int], stage: str, time: float,
              where: Any = None, detail: Any = None) -> None:
        """:meth:`row` by stage name (a new name gets the next code)."""
        code = self._stage_code.get(stage)
        if code is None:
            code = self._stage_code[stage] = len(self._stage_names)
            self._stage_names.append(stage)
        self.row(trace_id, code, time, where, detail)

    def _key_of(self, code: int, where: Any, detail: Any) -> int:
        """The key of stage ``code`` at ``where`` with ``detail``."""
        index = self._name_index
        at_where, at_detail = index.get(where), index.get(detail)
        return self._intern_key(
            code, self._intern(where) if at_where is None else at_where,
            self._intern(detail) if at_detail is None else at_detail)

    def _pe_key(self, code: int, rank: int) -> int:
        """The key of stage ``code`` stamped by PE ``rank``."""
        return self._intern_key(code, -1 - rank, 0)

    def _intern_key(self, code: int, where: int, detail: int) -> int:
        triple = (code, where, detail)
        key = self._key_index.get(triple)
        if key is None:
            key = self._key_index[triple] = len(self._keys)
            self._keys.append(triple)
        return key

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
        self._next_id = next_id

    # -- queries -----------------------------------------------------------
    def minted(self) -> int:
        return self._next_id

    def footprint(self) -> dict[str, int]:
        """Spans, the stage rows they read as (each span's ``send`` row
        implied), column bytes."""
        spans = len(self._src) - self._src.count(-1)
        return {
            "spans": spans,
            "stage_rows": len(self._tid) + spans,
            "column_bytes": sum(len(col) * col.itemsize
                                for col in self._columns()),
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
        code, where, detail = self._keys[self._key[row]]
        return (self._stage_names[code], self._time[row],
                self._names[where] if where >= 0 else f"pe{-1 - where}",
                self._names[detail])

    def records(self) -> Iterator[tuple[int, int, int, int, list[tuple]]]:
        """``(trace_id, src_pe, dst_pe, nbytes, stages)`` per span in
        trace-ID order, ``stages`` as ``(stage, time, where, detail)``
        tuples in the order they were stamped, the implied ``send`` first:
        what the exporters read."""
        order, starts = self._groups()
        base, src, sent_at = self._base, self._src, self._sent_at
        send = self._stage_names[SEND]
        for row in range(len(src)):
            if src[row] < 0:
                continue
            stages = [(send, sent_at[row], f"pe{src[row]}", None)]
            stages += [self._render(r)
                       for r in order[starts[row]:starts[row + 1]]]
            yield (base + row + 1, src[row], self._dst[row],
                   self._nbytes[row], stages)

    def delivered(self) -> int:
        """How many spans ran a handler (``exec`` stage)."""
        exec_keys = {key for key, (code, _, _) in enumerate(self._keys)
                     if code == EXEC}
        return len({tid for tid, key in zip(self._tid, self._key)
                    if key in exec_keys})
