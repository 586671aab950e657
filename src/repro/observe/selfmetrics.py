"""Self-metrics: what the *simulator* did, as opposed to the machine it
simulates — how warm its caches are, what the collector cost it, whether
the compiled core carried the loop, how much lazy state got built.

Plain reads of state the simulator keeps anyway: nothing here is counted
on a hit path, and none of it is in a ``stats()`` dict, a checksum or a
metrics digest, so reading it (or not) cannot move a simulated result.
"""

from __future__ import annotations

from types import MethodDescriptorType
from typing import TYPE_CHECKING, Any, Optional

from repro.hardware.router import TorusNetwork
from repro.sim import _speed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.machine import Machine
    from repro.lrts.interface import LrtsLayer


def self_metrics(machine: "Machine",
                 lrts: Optional["LrtsLayer"] = None) -> dict[str, Any]:
    """One dict of every simulator self-metric of ``machine``.

    ``route`` is :meth:`TorusNetwork.route_stats`, ``collector`` is
    :meth:`Engine.collector_stats`, ``c_core`` says whether the compiled
    slab core runs this engine's loop (``bound``), whether the compiled
    lane is what this network's ``transfer`` reaches (``router``: it is
    bound on :class:`TorusNetwork` and nothing on the instance shadows
    it) and why not, if the core failed to build; ``first_touch`` counts
    the lazily built objects that exist — the network's, plus the machine
    layer's when ``lrts`` is given; ``observer``, when the machine has one,
    is :meth:`Observer.footprint` — what its trace record holds.
    """
    engine = machine.engine
    net = machine.network
    first_touch = net.first_touch()
    if lrts is not None:
        first_touch.update(lrts.first_touch())
    metrics = {
        "route": net.route_stats(),
        "collector": engine.collector_stats(),
        "c_core": {"bound": engine._core is not None,
                   "router": (isinstance(vars(TorusNetwork)["transfer"],
                                         MethodDescriptorType)
                              and "transfer" not in vars(net)),
                   "build_error": _speed.build_error},
        "first_touch": first_touch,
    }
    if machine.observer is not None:
        metrics["observer"] = machine.observer.footprint()
    return metrics


def lane_report() -> str:
    """One line for a report header: the lanes a default engine and network
    run on in this process, and why if the core failed to build."""
    engine = "c-core" if _speed.core is not None else "pure-python"
    router = ("c-lane" if isinstance(vars(TorusNetwork)["transfer"],
                                     MethodDescriptorType) else "python-body")
    return (f"[lanes] engine={engine} router={router} "
            f"build_error={_speed.build_error}")
