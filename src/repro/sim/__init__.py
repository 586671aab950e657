"""Deterministic discrete-event simulation kernel.

Everything in the repro stack — NICs, links, schedulers, runtimes,
applications — runs on one :class:`~repro.sim.engine.Engine` instance as
callbacks on its events.  The kernel is deliberately small:

* :class:`~repro.sim.engine.Engine` — event heap + clock + run loop.
* :class:`~repro.sim.engine.EventHandle` — a cancellable view of one
  armed event.
* :class:`~repro.sim.rng.RngRegistry` — named, independently seeded RNG
  streams so adding a consumer never perturbs existing streams.
"""

from repro.sim.engine import Engine, EventHandle
from repro.sim.rng import RngRegistry

__all__ = [
    "Engine",
    "EventHandle",
    "RngRegistry",
]
