"""Seeded, schedule-driven fault injection for the simulated Gemini stack.

Hardware on a 20,000-node Cray is never fault-free: links flap, CRC
errors kill in-flight transactions, nodes die.  This package injects
those conditions into the simulated fabric so the runtime's recovery
machinery (``UgniLayerConfig.reliability``) can be exercised and its cost
measured (the ``ablation_faults`` exhibit).

Determinism: all stochastic decisions draw from the machine's named
``"faults"`` RNG stream (:mod:`repro.sim.rng`), so a given seed replays
the exact same fault schedule.  With no injector installed — or with an
injector whose rates are all zero and whose schedule is empty — every
layer takes its exact fault-free fast path: no RNG draws, no timing
changes, bit-identical results.
"""

from repro.faults.injector import (
    FaultConfig,
    FaultInjector,
    LinkFlap,
    NodeCrash,
    install_faults,
)
from repro.faults.report import fault_report, format_fault_report

__all__ = [
    "FaultConfig",
    "FaultInjector",
    "LinkFlap",
    "NodeCrash",
    "install_faults",
    "fault_report",
    "format_fault_report",
]
