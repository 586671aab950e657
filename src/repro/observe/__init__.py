"""Deterministic runtime observability (opt-in, off by default).

``repro.observe`` answers "where did the time and the messages go" the
way Projections answers it for Charm++ (paper §V): a metrics registry of
deterministic counters/gauges/sim-time histograms, causal per-message
tracing exported as Perfetto-loadable Chrome trace JSON, a flight
recorder that dumps the last N runtime events on give-up, sanitizer
violation, or engine stall, and :class:`TimeProfile`, the time-binned
utilization profile of the paper's Fig. 12 (it needs no observer).

Enable per machine with ``MachineConfig(observe=True)`` or process-wide
with ``REPRO_OBSERVE=1`` (the same opt-in shape as ``repro.sanitize``);
``benchmarks/run_all.py --observe`` folds a sha256 metrics digest into
the regression report.
"""

from repro.observe.core import (
    GIVEUP_EVENTS,
    Observer,
    active_observers,
    clear_registry,
    collect_snapshot,
    metrics_digest,
    observe_requested,
)
from repro.observe.export import (
    chrome_trace,
    format_timeline,
    pe_utilization,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.observe.flight import FlightDump, FlightRecorder
from repro.observe.profile import TimeProfile
from repro.observe.registry import MetricsRegistry
from repro.observe.selfmetrics import lane_report, self_metrics
from repro.observe.tracer import MessageTracer

__all__ = [
    "GIVEUP_EVENTS",
    "Observer",
    "active_observers",
    "clear_registry",
    "collect_snapshot",
    "metrics_digest",
    "observe_requested",
    "chrome_trace",
    "format_timeline",
    "pe_utilization",
    "write_chrome_trace",
    "write_metrics_jsonl",
    "FlightDump",
    "FlightRecorder",
    "MetricsRegistry",
    "TimeProfile",
    "lane_report",
    "self_metrics",
    "MessageTracer",
]
