"""The :class:`FaultInjector`: stochastic rates plus a deterministic schedule.

Two kinds of faults:

* **Rate-driven** (:class:`FaultConfig`) — each SMSG delivery / FMA/BTE
  post independently fails with a configured probability, decided at the
  moment the operation enters the fabric.  The hooks live in
  :meth:`repro.ugni.smsg.SmsgFabric.send` and
  :meth:`repro.ugni.rdma.RdmaEngine.post`; both consult
  ``machine.faults`` and do nothing when it is ``None``.
* **Scheduled** (:class:`LinkFlap`, :class:`NodeCrash`) — absolute-time
  events armed on the simulation engine before the run starts: a link
  goes down (or degrades) and later recovers; a node dies for good.

All probabilistic decisions draw from the machine's ``"faults"`` RNG
stream, and *only* when the relevant rate is nonzero — so an injector
with all-zero rates consumes no RNG state and perturbs nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Union

from repro.errors import SimulationError
from repro.hardware.machine import Machine
from repro.hardware.topology import Coord

#: how long a stalled SMSG sits in the fabric before delivery
SMSG_STALL_DURATION = 20e-6
#: fraction of the payload that occupies the wire before a failed post's
#: error completion is generated (bandwidth really burned)
RDMA_ERROR_PROGRESS = 0.5


@dataclass(frozen=True)
class FaultConfig:
    """Stochastic fault rates (all default to zero = fault-free)."""

    #: probability an inter-node SMSG delivery is silently dropped
    smsg_drop_rate: float = 0.0
    #: probability an SMSG delivery is stalled (credit held, arrival late)
    smsg_stall_rate: float = 0.0
    #: probability an inter-node FMA/BTE post dies with a transaction error
    rdma_error_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("smsg_drop_rate", "smsg_stall_rate", "rdma_error_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise SimulationError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class LinkFlap:
    """One directed link fails (or degrades) at ``at`` for ``duration``."""

    at: float
    frm: Coord
    to: Coord
    duration: float
    #: ``None`` = hard down; else run at this fraction of nominal bandwidth
    degrade: Optional[float] = None


@dataclass(frozen=True)
class NodeCrash:
    """Node ``node_id`` dies permanently at ``at``."""

    at: float
    node_id: int


ScheduleEvent = Union[LinkFlap, NodeCrash]


class FaultInjector:
    """Decides, counts, and traces every injected fault.

    Installed on the machine as ``machine.faults`` (see
    :func:`install_faults`); the SMSG fabric and RDMA engine consult it on
    each inter-node operation.  Counters here are the ground truth the
    chaos tests reconcile against the recovery layer's retry counters.
    """

    def __init__(
        self,
        machine: Machine,
        config: Optional[FaultConfig] = None,
        schedule: Iterable[ScheduleEvent] = (),
    ):
        self.machine = machine
        self.config = config or FaultConfig()
        self.schedule = tuple(sorted(schedule, key=lambda ev: ev.at))
        self.rng = machine.rng.stream("faults")
        self._conv = None  # bound runtime, for halting crashed nodes' PEs
        self._armed = False
        self._pending: dict[int, Any] = {}  # pending scheduled-event handles
        self._next_key = 0
        #: upcalls fired (in registration order) after a node crash has
        #: been applied — the resilience layer hooks recovery in here
        self._crash_listeners: list[Any] = []
        # lifetime counters
        self.smsg_dropped = 0
        self.smsg_stalled = 0
        self.rdma_failed = 0
        self.link_events = 0
        self.node_crashes = 0

    # -- wiring ---------------------------------------------------------------
    def bind_runtime(self, conv: Any) -> None:
        """Attach the Converse runtime so node crashes can halt its PEs."""
        self._conv = conv

    def add_crash_listener(self, fn: Any) -> None:
        """Register ``fn(ev)`` to run right after a :class:`NodeCrash` lands.

        Listeners fire *after* the node is marked dead and its PEs are
        halted — the crash is a fait accompli by the time the upcall runs,
        exactly like a real fault-detection notification.  The resilience
        manager uses this to stop the run loop and begin recovery.
        """
        self._crash_listeners.append(fn)

    def arm(self) -> None:
        """Schedule every :class:`LinkFlap` / :class:`NodeCrash` on the engine."""
        if self._armed:
            return
        self._armed = True
        for ev in self.schedule:
            if isinstance(ev, LinkFlap):
                self._arm_one(ev.at, self._link_down, ev)
                if math.isfinite(ev.duration):
                    self._arm_one(ev.at + ev.duration, self._link_up, ev)
            elif isinstance(ev, NodeCrash):
                self._arm_one(ev.at, self._crash, ev)
            else:
                raise SimulationError(f"unknown schedule event {ev!r}")

    def _arm_one(self, at: float, fn: Any, ev: ScheduleEvent) -> None:
        # The injector tracks only *pending* events: _fire removes its own
        # entry before running, so disarm() and pending_events() see
        # exactly what has not fired yet.
        key = self._next_key
        self._next_key += 1
        handle = self.machine.engine.call_at(at, self._fire, key, fn, ev)
        self._pending[key] = (handle, ev)

    def _fire(self, key: int, fn: Any, ev: ScheduleEvent) -> None:
        self._pending.pop(key, None)
        fn(ev)

    def disarm(self) -> None:
        """Cancel every scheduled fault that has not fired yet.

        The recovery path calls this on the crashed runtime before
        draining it: leftover schedule events belong to the *job*, not
        the dying machine, and will be re-armed (clamped to the restart
        time) on the replacement runtime — firing them here too would
        double-count every fault.
        """
        for handle, _ev in self._pending.values():
            handle.cancel()
        self._pending.clear()

    def pending_events(self) -> tuple:
        """Schedule events not yet fired, in schedule order.

        The recovery path snapshots this *before* :meth:`disarm` to learn
        which of the job's faults still lie ahead and must be re-armed on
        the replacement runtime.  A :class:`LinkFlap` counts as pending
        until its recovery half has fired.
        """
        live = {id(ev) for _handle, ev in self._pending.values()}
        return tuple(ev for ev in self.schedule if id(ev) in live)

    # -- stochastic decisions (called from the fabric hot paths) ---------------
    def smsg_delivery_fails(self, src_pe: int, dst_pe: int) -> bool:
        """Should this inter-node SMSG delivery be dropped?"""
        if not self.machine.node_of_pe(dst_pe).alive:
            self.smsg_dropped += 1
            self._emit("smsg_drop", where=(src_pe, dst_pe), cause="dead_peer")
            return True
        rate = self.config.smsg_drop_rate
        if rate > 0.0 and self.rng.random() < rate:
            self.smsg_dropped += 1
            self._emit("smsg_drop", where=(src_pe, dst_pe), cause="injected")
            return True
        return False

    def smsg_stall_delay(self, src_pe: int, dst_pe: int) -> float:
        """Extra fabric delay for this delivery (0.0 = no stall)."""
        rate = self.config.smsg_stall_rate
        if rate > 0.0 and self.rng.random() < rate:
            self.smsg_stalled += 1
            self._emit("smsg_stall", where=(src_pe, dst_pe),
                       duration=SMSG_STALL_DURATION)
            return SMSG_STALL_DURATION
        return 0.0

    def rdma_fails(self, initiator_node: int, peer_node: int) -> bool:
        """Should this inter-node FMA/BTE post die with a transaction error?"""
        if not self.machine.nodes[peer_node].alive:
            self.rdma_failed += 1
            self._emit("rdma_error", where=(initiator_node, peer_node),
                       cause="dead_peer")
            return True
        rate = self.config.rdma_error_rate
        if rate > 0.0 and self.rng.random() < rate:
            self.rdma_failed += 1
            self._emit("rdma_error", where=(initiator_node, peer_node),
                       cause="injected")
            return True
        return False

    # -- scheduled events -------------------------------------------------------
    def _link_down(self, ev: LinkFlap) -> None:
        net = self.machine.network
        if ev.degrade is not None:
            net.degrade_link(ev.frm, ev.to, ev.degrade)
            self._emit("link_degraded", where=(ev.frm, ev.to),
                       factor=ev.degrade, duration=ev.duration)
        else:
            net.fail_link(ev.frm, ev.to)
            self._emit("link_down", where=(ev.frm, ev.to), duration=ev.duration)
        self.link_events += 1

    def _link_up(self, ev: LinkFlap) -> None:
        self.machine.network.restore_link(ev.frm, ev.to)
        self._emit("link_up", where=(ev.frm, ev.to))
        self.link_events += 1

    def _crash(self, ev: NodeCrash) -> None:
        node = self.machine.nodes[ev.node_id]
        if not node.alive:
            return
        node.alive = False
        self.node_crashes += 1
        self._emit("node_crash", where=ev.node_id)
        if self._conv is not None:
            for rank in node.pes():
                if rank < len(self._conv.pes):
                    self._conv.pes[rank].halt()
        for listener in self._crash_listeners:
            listener(ev)

    # -- reporting --------------------------------------------------------------
    def _emit(self, event: str, where: Any = None, **detail: Any) -> None:
        obs = self.machine.observer
        if obs is not None:
            obs.on_fault(event, where, self.machine.engine.now, **detail)

    def stats(self) -> dict[str, int]:
        return {
            "smsg_dropped": self.smsg_dropped,
            "smsg_stalled": self.smsg_stalled,
            "rdma_failed": self.rdma_failed,
            "link_events": self.link_events,
            "node_crashes": self.node_crashes,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<FaultInjector drops={self.smsg_dropped} "
                f"rdma_errors={self.rdma_failed} schedule={len(self.schedule)}>")


def install_faults(
    machine: Machine,
    config: Optional[FaultConfig] = None,
    schedule: Iterable[ScheduleEvent] = (),
    conv: Any = None,
) -> FaultInjector:
    """Create a :class:`FaultInjector`, attach it as ``machine.faults``, arm it."""
    if machine.faults is not None:
        raise SimulationError("a fault injector is already installed")
    inj = FaultInjector(machine, config, schedule)
    machine.faults = inj
    if conv is not None:
        inj.bind_runtime(conv)
    inj.arm()
    return inj
