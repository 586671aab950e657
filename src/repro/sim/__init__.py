"""Deterministic discrete-event simulation kernel.

Everything in the repro stack — NICs, links, schedulers, runtimes,
applications — runs on one :class:`~repro.sim.engine.Engine` instance.  The
kernel is deliberately small:

* :class:`~repro.sim.engine.Engine` — event heap + clock + run loop.
* :class:`~repro.sim.engine.Event` — one-shot triggerable with callbacks,
  usable from processes via ``yield``.
* :class:`~repro.sim.process.Process` — generator-based coroutine processes
  (``yield 1.5e-6`` to sleep, ``yield event`` to wait).
* :class:`~repro.sim.rng.RngRegistry` — named, independently seeded RNG
  streams so adding a consumer never perturbs existing streams.
"""

from repro.sim.engine import Engine, Event, EventHandle
from repro.sim.process import Process
from repro.sim.rng import RngRegistry

__all__ = [
    "Engine",
    "Event",
    "EventHandle",
    "Process",
    "RngRegistry",
]
