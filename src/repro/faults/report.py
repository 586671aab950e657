"""Summaries of fault and recovery activity.

The injector reports ``fault`` events and the machine layers and the
resilience manager report ``recovery`` events (retransmits, duplicate
drops, post retries, give-ups, persistent-channel re-arms, checkpoints,
restarts) to the machine's :class:`~repro.observe.Observer`, which counts
them as ``counter/fault/<event>`` / ``counter/recovery/<event>`` and
keeps the most recent ones, with their detail, in its flight recorder.
These helpers fold those counters — and a
:class:`~repro.resilience.ResilienceManager`'s own, which outlive every
restart — into one per-event summary.
"""

from __future__ import annotations

from collections import Counter
from typing import Any


def fault_report(observer: Any = None,
                 resilience: Any = None) -> dict[str, dict[str, int]]:
    """Per-event counts for the ``fault`` and ``recovery`` categories.

    Pass an observer (whose ``counter/fault/*`` and ``counter/recovery/*``
    metrics are folded in), a
    :class:`~repro.resilience.ResilienceManager` (whose
    checkpoint/crash/restart counters land under ``recovery``), or both —
    counts are merged by taking the max per event, since a run with both
    sources active records each manager event in each of them.  Manager
    counters matter when the crashed incarnations' observers are gone:
    the manager outlives every restart.
    """
    out: dict[str, Counter] = {"fault": Counter(), "recovery": Counter()}
    if observer is not None:
        for key, value in observer.snapshot().items():
            for cat, counts in out.items():
                prefix = f"counter/{cat}/"
                if key.startswith(prefix):
                    counts[key[len(prefix):]] = int(value)
    if resilience is not None:
        for event, n in resilience.stats().items():
            out["recovery"][event] = max(out["recovery"][event], int(n))
    return {cat: dict(cnt) for cat, cnt in out.items()}


def format_fault_report(observer: Any = None,
                        resilience: Any = None) -> str:
    """Human-readable fault/recovery summary (one line per event kind)."""
    rep = fault_report(observer=observer, resilience=resilience)
    lines = []
    for cat in ("fault", "recovery"):
        events = rep[cat]
        if not events:
            continue
        lines.append(f"{cat}:")
        for event, n in sorted(events.items()):
            lines.append(f"  {event:<20} {n}")
    if not lines:
        return "no fault or recovery events recorded"
    return "\n".join(lines)
