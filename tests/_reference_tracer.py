"""Frozen reference trace record: spans and the PE timeline as objects.

A verbatim copy of ``repro.observe.tracer`` (``Stage`` / ``Span`` objects,
a dict of spans keyed by trace ID), of the ``Observer`` hooks that wrote
them (``on_send`` / ``on_deliver`` / ``on_exec`` / ``on_lrts`` /
``on_gpu`` / ``on_tx``, the interval hook ``record`` with its ``timeline``
dict of ``(start, duration, kind)`` tuples) and of the exporters that read
them, as they stood before the record became typed columns.  Only the
class names changed (``Ref`` prefix).  The arrival hook is the former
``on_cq_push`` body under its present name and signature, ``on_arrive``,
and ``on_net_transfer`` is frozen too, so no span stage or metric of the
oracle is written by the code under test.  ``RefObserver`` subclasses the
live ``Observer`` for the metrics, sources and flight recorder.  ``tests/test_observe_equivalence.py`` runs the
same simulations under it and under the live observer and requires
identical exports, spans and metrics digests.  Do not "fix" or optimise
this file: it is the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.observe.core import Observer

_US = 1e6


@dataclass(frozen=True)
class RefStage:
    """One protocol stage a traced message crossed."""

    stage: str
    time: float
    where: Any = None
    detail: Optional[str] = None


@dataclass
class RefSpan:
    """The full causal record of one traced message."""

    trace_id: int
    src_pe: int
    dst_pe: int
    nbytes: int
    stages: list[RefStage] = field(default_factory=list)

    def times(self, stage: str) -> list[float]:
        return [s.time for s in self.stages if s.stage == stage]

    def has(self, stage: str) -> bool:
        return any(s.stage == stage for s in self.stages)

    @property
    def monotone(self) -> bool:
        times = [s.time for s in self.stages]
        return all(a <= b for a, b in zip(times, times[1:]))


class RefMessageTracer:
    def __init__(self, capacity: Optional[int] = None):
        self._next_id = 0
        self.spans: dict[int, RefSpan] = {}
        self.capacity = capacity
        self.evicted = 0

    def mint(self, src_pe: int, dst_pe: int, nbytes: int) -> int:
        self._next_id += 1
        tid = self._next_id
        self.spans[tid] = RefSpan(tid, src_pe, dst_pe, nbytes)
        if self.capacity is not None and len(self.spans) > self.capacity:
            oldest = next(iter(self.spans))
            del self.spans[oldest]
            self.evicted += 1
        return tid

    def stage(self, trace_id: int, stage: str, time: float,
              where: Any = None, detail: Optional[str] = None) -> None:
        span = self.spans.get(trace_id)
        if span is None:
            return  # evicted, or minted before this tracer existed
        span.stages.append(RefStage(stage, time, where, detail))

    def fast_forward(self, next_id: int) -> None:
        if next_id > self._next_id:
            self._next_id = next_id

    def minted(self) -> int:
        return self._next_id

    def delivered_spans(self) -> list[RefSpan]:
        return [s for s in self.spans.values() if s.has("exec")]

    def span(self, trace_id: int) -> Optional[RefSpan]:
        return self.spans.get(trace_id)


class RefObserver(Observer):
    """The live observer with the object-built trace record."""

    #: a plain attribute here, shadowing the live observer's read view
    timeline = None

    def __init__(self, machine):
        super().__init__(machine)
        self.tracer = RefMessageTracer()
        self.timeline: dict[int, list[tuple[float, float, str]]] = {}

    def on_send(self, msg: Any, src_pe: int, time: float) -> None:
        tid = self.tracer.mint(src_pe, msg.dst_pe, msg.nbytes)
        msg.trace_id = tid
        self.tracer.stage(tid, "send", time, where=f"pe{src_pe}")
        self.metrics.inc("msg/sent")
        self.metrics.inc("msg/bytes_sent", msg.nbytes)

    def on_deliver(self, msg: Any, rank: int, time: float) -> None:
        tid = msg.trace_id
        self.tracer.stage(tid, "deliver", time, where=f"pe{rank}")
        self.metrics.inc("msg/delivered")
        span = self.tracer.span(tid)
        if span is None:
            return
        for st in span.stages:
            if st.stage == "send":
                self.metrics.observe("msg/latency", time, time - st.time)
                break
        for st in span.stages:
            if st.stage == "lrts" and st.detail == "rendezvous":
                self.metrics.inc("rndv/roundtrips")
                self.metrics.observe("rndv/roundtrip_time", time,
                                     time - st.time)
                break

    def on_exec(self, msg: Any, rank: int, time: float) -> None:
        self.tracer.stage(msg.trace_id, "exec", time, where=f"pe{rank}")
        self.metrics.inc("msg/executed")

    def on_lrts(self, layer: str, path: str, msg: Any, time: float) -> None:
        tid = self.trace_id_of(msg)
        if tid is not None:
            self.tracer.stage(tid, "lrts", time, where=layer, detail=path)
        self.metrics.inc(f"lrts/{layer}/{path}")
        self.metrics.inc(f"lrts/{layer}/bytes", getattr(msg, "nbytes", 0))

    def on_gpu(self, stage: str, msg: Any, nbytes: int, time: float,
               where: Any = None) -> None:
        tid = self.trace_id_of(msg)
        if tid is not None:
            self.tracer.stage(tid, "gpu", time, where=where, detail=stage)
        self.metrics.inc(f"gpu/{stage}")
        self.metrics.inc(f"gpu/bytes_{stage}", nbytes)

    def on_tx(self, payload: Any, kind: str, nbytes: int, where: Any,
              time: float) -> None:
        tid = self.trace_id_of(payload)
        if tid is not None:
            self.tracer.stage(tid, "tx", time, where=where, detail=kind)
        self.metrics.inc(f"tx/{kind}")
        self.metrics.inc("tx/bytes", nbytes)

    def on_arrive(self, payload: Any, where: Any, time: float) -> None:
        tid = self.trace_id_of(payload)
        if tid is not None:
            self.tracer.stage(tid, "arrive", time, where=where)
        self.metrics.inc("cq/pushed")

    def on_net_transfer(self, src: Any, dst: Any, nbytes: int,
                        now: float, depart: float, hops: int) -> None:
        self.metrics.inc("net/transfers")
        self.metrics.inc("net/bytes", nbytes)
        self.metrics.inc("net/hops", hops)
        self.metrics.observe("net/inject_backlog", now, depart - now)

    def record(self, pe_rank: int, start: float, duration: float,
               kind: str) -> None:
        self.timeline.setdefault(pe_rank, []).append((start, duration, kind))
        if self.profile is not None:
            self.profile.record(pe_rank, start, duration, kind)


def ref_chrome_trace(observer: RefObserver) -> dict[str, Any]:
    events: list[dict[str, Any]] = []
    for rank in sorted(observer.timeline):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": rank,
            "args": {"name": f"PE {rank}"},
        })
        for start, duration, kind in observer.timeline[rank]:
            events.append({
                "name": kind, "cat": "pe", "ph": "X", "pid": 0, "tid": rank,
                "ts": start * _US, "dur": duration * _US,
            })
    for tid in sorted(observer.tracer.spans):
        span = observer.tracer.spans[tid]
        if not span.stages:
            continue
        first, last = span.stages[0], span.stages[-1]
        name = f"msg {span.src_pe}->{span.dst_pe} ({span.nbytes}B)"
        common = {"cat": "msg", "id": tid, "pid": 0, "name": name}
        events.append({**common, "ph": "b", "tid": span.src_pe,
                       "ts": first.time * _US,
                       "args": {"stage": first.stage}})
        for st in span.stages[1:-1]:
            events.append({**common, "ph": "n", "tid": span.src_pe,
                           "ts": st.time * _US,
                           "args": {"stage": st.stage,
                                    "detail": st.detail,
                                    "where": str(st.where)}})
        events.append({**common, "ph": "e", "tid": span.dst_pe,
                       "ts": last.time * _US,
                       "args": {"stage": last.stage}})
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def ref_pe_utilization(observer: RefObserver) -> dict[int, dict[str, float]]:
    out: dict[int, dict[str, float]] = {}
    for rank, intervals in observer.timeline.items():
        by_kind: dict[str, float] = {}
        for _start, duration, kind in intervals:
            by_kind[kind] = by_kind.get(kind, 0.0) + duration
        out[rank] = by_kind
    return out


def ref_format_timeline(observer: RefObserver) -> str:
    util = ref_pe_utilization(observer)
    if not util:
        return "timeline: no PE activity recorded"
    lines = ["rank  busy%   breakdown"]
    for rank in sorted(util):
        by_kind = util[rank]
        total = sum(by_kind.values())
        idle = by_kind.get("idle", 0.0)
        busy = total - idle
        pct = 100.0 * busy / total if total else 0.0
        parts = ", ".join(
            f"{kind}={seconds * 1e6:.1f}us"
            for kind, seconds in sorted(by_kind.items(),
                                        key=lambda kv: (-kv[1], kv[0]))
            if kind != "idle")
        lines.append(f"pe{rank:<4} {pct:5.1f}%  {parts}")
    return "\n".join(lines)
