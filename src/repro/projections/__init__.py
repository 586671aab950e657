"""Projections-style performance tracing (paper Fig. 12, [Kale et al. 2006]).

The paper analyses N-Queens with time-binned utilization profiles from the
Projections tool: per time bin, how much CPU went to useful computation
(yellow), how much to runtime/communication overhead (black), and how much
was idle (white).  :class:`~repro.projections.tracing.UtilizationTracer`
hooks the scheduler's charge stream and produces exactly that histogram;
:mod:`repro.projections.render` draws it as ASCII for the benchmark
reports.
"""

from repro.projections.profile import TimeProfile
from repro.projections.render import render_profile
from repro.projections.tracing import UtilizationTracer

__all__ = ["UtilizationTracer", "TimeProfile", "render_profile"]
