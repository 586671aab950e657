"""The :class:`ResilienceManager`: the recovery pipeline's control loop.

Protocol (DESIGN.md §13):

1. **Checkpoint by riding the quiescence wave.**  The application calls
   :meth:`ResilienceManager.at_phase_boundary` from inside a handler at
   each natural phase boundary (typically the root's reduction target).
   If a checkpoint is due, the manager starts a
   :class:`~repro.converse.quiescence.QuiescenceDetector` wave; the wave's
   callback — which fires only once two consecutive waves agree that every
   application send has been executed — takes the checkpoint with
   ``at_quiescence=True`` and only then releases the application's
   continuation.  The engine is *not* drained: armed fault schedules and
   timers legitimately sit on the heap, which is exactly why drained-mode
   checkpointing could never compose with the fault injector.
2. **Crash detection.**  The manager registers a crash listener on the
   :class:`~repro.faults.FaultInjector`; when a
   :class:`~repro.faults.NodeCrash` lands the listener records it and
   stops the engine, returning control to :meth:`run`.
3. **Teardown.**  The dying incarnation's injector is disarmed (remaining
   schedule events belong to the job, not the dead machine) and the old
   engine drained: surviving in-flight traffic resolves, messages to the
   dead node are dropped by the injector's dead-peer path, and the
   lifecycle sanitizer's drained-engine audit runs on the old machine —
   recovery must not leak a registration, pool block, or credit.
4. **Restart.**  A fresh machine/runtime is built on the surviving nodes
   (plus spares while :attr:`RecoveryPolicy.spare_nodes` last);
   :func:`~repro.charm.checkpoint.restore_into` rebuilds the collections
   with a load-rebalance mapper, restores the RNG registry and trace-ID
   counter, and advances the clock to the checkpoint time; the manager
   then advances it further to ``t_crash + restart_cost`` so recovery
   consumes simulated time and the clock never rewinds.  The remaining
   fault schedule is re-armed, clamped to the resume time.
5. **Resume.**  The application is re-bound to the restored proxies and
   kicked; elements carry their own progress, so the job continues from
   the checkpointed round.

Determinism: every step above is a pure function of (config, seed, crash
schedule) — restart sizes, placements, clock arithmetic and RNG state are
all derived deterministically, so the recovery benchmark's result digest
is bit-identical across runs and across ``--jobs`` fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import Any, Callable, Iterable, Optional

from repro.charm.checkpoint import Checkpoint, restore_into, take_checkpoint
from repro.charm.loadbalancer import restore_rebalance_map
from repro.charm.runtime import Charm
from repro.errors import SimulationError
from repro.faults import FaultConfig, LinkFlap, NodeCrash, install_faults
from repro.lrts.factory import make_runtime

#: fixed restart overhead in simulated seconds (relaunch, wire-up) ...
RESTART_BASE = 100e-6
#: ... plus checkpoint-state reload at this bandwidth (bytes/s)
RESTART_BANDWIDTH = 2e9
#: event budget for draining a dying incarnation
DRAIN_MAX_EVENTS = 2_000_000


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs of the recovery pipeline (all simulated-time seconds)."""

    #: minimum simulated time between coordinated checkpoints; a phase
    #: boundary earlier than this just continues without a wave
    checkpoint_interval: float = 200e-6
    #: crashed nodes are replaced (job keeps its size) while spares last;
    #: afterwards the job shrinks to the survivors
    spare_nodes: int = 0
    #: give up after this many restarts (runaway-crash-schedule guard)
    max_restarts: int = 32


@dataclass
class RecoveryReport:
    """What one resilient run did, and what it cost."""

    result: dict
    sim_time_s: float
    checkpoints: int
    crashes: int
    restarts: int
    #: simulated work redone: sum over crashes of (crash - last checkpoint)
    lost_work_s: float
    #: simulated restart overhead: sum of modeled restart costs
    restart_cost_s: float
    n_pes_final: int
    crash_times: list = field(default_factory=list)


class ResilienceManager:
    """Drives one phase-structured application to completion under faults.

    ``app`` follows a small duck-typed protocol:

    * ``setup(charm, manager)`` — create collections (fresh start only);
    * ``rebind(charm, manager, proxies)`` — adopt restored proxies after
      a restart;
    * ``kick(charm)`` — (re)start driving; runs in PE context, and must
      derive where to resume from element state (elements carry their own
      progress across restores);
    * ``done()`` — the job has produced its final answer;
    * ``result(charm)`` — the digestable final result.

    Elements reach the manager as ``self._resilience`` (re-bound each
    incarnation, never checkpointed) to call :meth:`at_phase_boundary`.
    """

    def __init__(
        self,
        app: Any,
        *,
        n_nodes: int,
        layer: str = "ugni",
        config: Any = None,
        layer_config: Any = None,
        seed: int = 0,
        policy: Optional[RecoveryPolicy] = None,
        fault_config: Optional[FaultConfig] = None,
        crash_schedule: Iterable[Any] = (),
        skip: tuple = (),
    ):
        self.app = app
        self.layer = layer
        self.config = config
        self.layer_config = layer_config
        self.seed = seed
        self.policy = policy or RecoveryPolicy()
        self.fault_config = fault_config
        self.schedule = tuple(sorted(crash_schedule, key=lambda ev: ev.at))
        self.skip = tuple(skip)

        self._n_nodes = n_nodes
        self._spares = self.policy.spare_nodes
        self.charm: Optional[Charm] = None
        self.conv = None
        self.lrts = None
        self.injector = None
        self._ckpt: Optional[Checkpoint] = None
        self._last_ckpt_time = 0.0
        self._crash_ev: Optional[NodeCrash] = None
        self._wave_pending = False
        #: True while a dying incarnation is being drained/replaced —
        #: checkpoint waves completing on it must be dropped, not taken
        self._recovering = False
        # lifetime accounting (the recovery report and report-fold source)
        self.checkpoints = 0
        self.crashes = 0
        self.restarts = 0
        self.lost_work_s = 0.0
        self.restart_cost_s = 0.0
        self.crash_times: list[float] = []

    # ------------------------------------------------------------------ #
    # Incarnation construction
    # ------------------------------------------------------------------ #
    def _build(self, n_nodes: int) -> None:
        cpn = 1 if self.config is None else self.config.cores_per_node
        conv, lrts = make_runtime(
            n_pes=n_nodes * cpn, layer=self.layer, config=self.config,
            layer_config=self.layer_config, seed=self.seed)
        self.conv, self.lrts = conv, lrts
        self.charm = Charm(conv)
        self.injector = None

    def _install_faults(self, schedule: tuple) -> None:
        if self.fault_config is None and not schedule:
            return
        self.injector = install_faults(
            self.conv.machine, config=self.fault_config,
            schedule=schedule, conv=self.conv)
        self.injector.add_crash_listener(self._on_crash)

    def _bind_elements(self) -> None:
        """Point every element's ``_resilience`` at this manager.

        Re-done each incarnation; the attribute is in
        :data:`~repro.charm.checkpoint.RUNTIME_ATTRS`, so checkpoints
        never capture (and deep-copy) the manager or a dead runtime.
        """
        for coll in self.charm.collections.values():
            for pe_elems in coll.local.values():
                for elem in pe_elems.values():
                    elem._resilience = self

    # ------------------------------------------------------------------ #
    # Checkpointing (the quiescence ride-along)
    # ------------------------------------------------------------------ #
    def at_phase_boundary(self, continuation: Callable[[], None]) -> None:
        """Checkpoint-if-due, then run ``continuation`` (from a handler).

        When no checkpoint is due the continuation runs immediately, in
        the calling handler.  When one is due, a quiescence wave confirms
        that the application really has drained (the phase boundary is
        the application's claim; the wave is the runtime's proof), the
        checkpoint is taken inside the wave callback, and the
        continuation is re-injected via ``charm.start`` — the application
        stalls for exactly the wave's duration, the simulated cost of a
        coordinated checkpoint.
        """
        if self._recovering:
            # a phase completing on the dying incarnation during the
            # post-crash drain: the restored incarnation re-drives from
            # the checkpoint, so this chain ends here
            return
        now = self.charm.engine.now
        if (self._wave_pending
                or now - self._last_ckpt_time < self.policy.checkpoint_interval):
            continuation()
            return
        self._wave_pending = True
        charm = self.charm

        def on_quiescence(_t: float) -> None:
            self._wave_pending = False
            if self._recovering or charm is not self.charm:
                # the wave outlived its incarnation (crash landed while it
                # was in flight); a checkpoint now would capture a
                # half-dead machine at a post-crash timestamp
                return
            self._take_checkpoint()
            charm.start(lambda pe: continuation())

        charm.start_quiescence(on_quiescence)

    def _take_checkpoint(self) -> None:
        self._ckpt = take_checkpoint(self.charm, skip=self.skip,
                                     at_quiescence=True)
        self._last_ckpt_time = self.charm.engine.now
        self.checkpoints += 1
        self._emit("checkpoint", bytes=self._ckpt.state_bytes(),
                   n_elements=self._ckpt.n_elements)

    # ------------------------------------------------------------------ #
    # Crash detection and recovery
    # ------------------------------------------------------------------ #
    def _on_crash(self, ev: NodeCrash) -> None:
        """Injector upcall: a node just died (PEs already halted)."""
        if self.app.done():
            # post-completion crash: the answer is already out; cancel the
            # rest of the schedule so the run can drain and return
            if self.injector is not None:
                self.injector.disarm()
            return
        if self._crash_ev is None:
            self._crash_ev = ev
            self._emit("crash_detected", where=ev.node_id)
            self.charm.engine.stop()

    @staticmethod
    def _remaining_schedule(pending: tuple, fired: NodeCrash, t_resume: float,
                            n_nodes: int) -> tuple:
        """The job's un-fired fault schedule, re-targeted at the new machine.

        ``pending`` is the old injector's :meth:`pending_events` snapshot,
        taken before it was disarmed.  Events are clamped to the resume
        time (a crash scheduled inside the restart window lands the moment
        the job is back up — restart does not grant immunity) and node ids
        are wrapped onto the new, possibly smaller, node count.
        """
        out = []
        for ev in pending:
            if ev is fired:
                continue
            at = max(ev.at, t_resume)
            if isinstance(ev, NodeCrash):
                out.append(NodeCrash(at=at, node_id=ev.node_id % n_nodes))
            elif isinstance(ev, LinkFlap):
                out.append(dc_replace(ev, at=at))
            else:
                out.append(ev)
        return tuple(out)

    def _recover(self) -> None:
        ev, self._crash_ev = self._crash_ev, None
        old_conv, old_inj = self.conv, self.injector
        t_crash = old_conv.engine.now
        self.crashes += 1
        self.restarts += 1
        self.crash_times.append(t_crash)
        if self.restarts > self.policy.max_restarts:
            raise SimulationError(
                f"gave up after {self.policy.max_restarts} restarts "
                f"(crash schedule outruns recovery)")
        # 1) teardown: future faults belong to the job, not this machine —
        #    snapshot what has not fired, then cancel it on the old engine
        pending = old_inj.pending_events()
        old_inj.disarm()
        self._wave_pending = False
        self._recovering = True
        # 2) drain the dying incarnation: survivor traffic resolves,
        #    dead-peer sends are dropped (sanitizer-clean), and the
        #    drained-engine audit runs on the old machine
        old_conv.run(max_events=DRAIN_MAX_EVENTS)
        survivors = sum(1 for nd in old_conv.machine.nodes if nd.alive)
        if survivors == 0:
            raise SimulationError("every node has crashed; nothing to restart on")
        replace = min(self._spares, self._n_nodes - survivors)
        self._spares -= replace
        self._n_nodes = survivors + replace
        # 3) restart cost model + the determinism state carried over
        ckpt = self._ckpt
        lost = t_crash - ckpt.sim_time
        cost = RESTART_BASE + ckpt.state_bytes() / RESTART_BANDWIDTH
        self.lost_work_s += lost
        self.restart_cost_s += cost
        t_resume = t_crash + cost
        self._build(self._n_nodes)
        # placement rebalanced from the checkpointed measured loads; groups
        # fold onto a smaller restart
        proxies = restore_into(self.charm, ckpt, map=restore_rebalance_map,
                               group_shrink="merge")
        # the clock never rewinds: checkpoint time <= crash < resume
        self.charm.engine.advance_to(t_resume)
        self._install_faults(self._remaining_schedule(pending, ev, t_resume,
                                                      self._n_nodes))
        self.app.rebind(self.charm, self, proxies)
        self._bind_elements()
        self._recovering = False
        self._emit("restart", where=ev.node_id, n_nodes=self._n_nodes,
                   lost_work=lost, cost=cost, elements=ckpt.n_elements)
        # 4) post-restart checkpoint (FTC-Charm++ does the same): a second
        #    crash must not re-lose the work the first one already cost us
        self._take_checkpoint()
        self.charm.start(lambda pe: self.app.kick(self.charm))

    # ------------------------------------------------------------------ #
    # The run loop
    # ------------------------------------------------------------------ #
    def run(self, max_events: Optional[int] = None) -> RecoveryReport:
        """Run the application to completion, recovering from every crash."""
        self._build(self._n_nodes)
        self._install_faults(self.schedule)
        self.app.setup(self.charm, self)
        self._bind_elements()
        # checkpoint 0: a crash before the first phase boundary must have
        # something to restore (taken wave-mode — the schedule is armed)
        self._take_checkpoint()
        self.charm.start(lambda pe: self.app.kick(self.charm))
        while True:
            self.charm.run(max_events=max_events)
            if self._crash_ev is not None:
                self._recover()
                continue
            break
        if not self.app.done():
            raise SimulationError(
                "engine drained but the application never finished "
                "(phase chain broken?)")
        return RecoveryReport(
            result=self.app.result(self.charm),
            sim_time_s=self.charm.engine.now,
            checkpoints=self.checkpoints,
            crashes=self.crashes,
            restarts=self.restarts,
            lost_work_s=self.lost_work_s,
            restart_cost_s=self.restart_cost_s,
            n_pes_final=len(self.conv.pes),
            crash_times=list(self.crash_times),
        )

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, int]:
        """Integer recovery counters (folded by ``fault_report``)."""
        return {
            "checkpoint": self.checkpoints,
            "crash_detected": self.crashes,
            "restart": self.restarts,
        }

    def _emit(self, event: str, where: Any = None, **detail: Any) -> None:
        machine = self.conv.machine
        obs = machine.observer
        if obs is not None:
            obs.on_recovery(event, where, machine.engine.now, **detail)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<ResilienceManager nodes={self._n_nodes} "
                f"ckpts={self.checkpoints} restarts={self.restarts}>")
