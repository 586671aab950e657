"""Exporters: Chrome trace-event JSON (Perfetto) and per-PE timelines.

``chrome_trace`` renders an observer's timeline + message spans in the
Chrome trace-event format, loadable in https://ui.perfetto.dev or
``chrome://tracing``: each PE is a track of "X" (complete) slices for its
busy/idle intervals, and each traced message is an async "b"/"n"/"e"
chain riding its trace ID, so clicking a message shows every protocol
stage it crossed.  Timestamps are simulated microseconds.

``format_timeline`` is the terminal-friendly Projections-style view: one
row per PE, busy fraction plus the dominant activity kinds — the same
lens the paper's Fig. 12 uses to find the N-Queens grain-size cliff.
"""

from __future__ import annotations

import json
from typing import IO, Any

from repro.observe.core import Observer

#: simulated seconds -> trace microseconds
_US = 1e6


def chrome_trace(observer: Observer) -> dict[str, Any]:
    """Render one observer as a Chrome trace-event JSON object."""
    events: list[dict[str, Any]] = []
    timeline = observer.timeline
    for rank in sorted(timeline):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": rank,
            "args": {"name": f"PE {rank}"},
        })
        for start, duration, kind in timeline[rank]:
            events.append({
                "name": kind, "cat": "pe", "ph": "X", "pid": 0, "tid": rank,
                "ts": start * _US, "dur": duration * _US,
            })
    for tid, src_pe, dst_pe, nbytes, stages in observer.tracer.records():
        if not stages:
            continue
        first, last = stages[0], stages[-1]
        name = f"msg {src_pe}->{dst_pe} ({nbytes}B)"
        common = {"cat": "msg", "id": tid, "pid": 0, "name": name}
        events.append({**common, "ph": "b", "tid": src_pe,
                       "ts": first[1] * _US, "args": {"stage": first[0]}})
        for stage, time, where, detail in stages[1:-1]:
            events.append({**common, "ph": "n", "tid": src_pe,
                           "ts": time * _US,
                           "args": {"stage": stage, "detail": detail,
                                    "where": str(where)}})
        events.append({**common, "ph": "e", "tid": dst_pe,
                       "ts": last[1] * _US, "args": {"stage": last[0]}})
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(observer: Observer, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(observer), fh)


def pe_utilization(observer: Observer) -> dict[int, dict[str, float]]:
    """Per-PE seconds spent in each activity kind."""
    out: dict[int, dict[str, float]] = {}
    for rank, _start, duration, kind in observer.intervals():
        by_kind = out.setdefault(rank, {})
        by_kind[kind] = by_kind.get(kind, 0.0) + duration
    return out


def format_timeline(observer: Observer) -> str:
    """Projections-style per-PE utilization summary (text)."""
    util = pe_utilization(observer)
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


def write_metrics_jsonl(rows: list[dict[str, Any]], fh: IO[str]) -> None:
    """One JSON object per line; sorted keys for byte-stable artifacts."""
    for row in rows:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
