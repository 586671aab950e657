"""The per-PE message-driven scheduler (CsdScheduler) and runtime core.

Execution model
---------------

Each PE executes messages strictly sequentially.  A handler is a Python
function that runs *logically* over a span of simulated time: when it
starts, the PE's virtual clock (:attr:`PE.vtime`) equals the engine time;
every cost the handler incurs — application work via :meth:`PE.charge`,
runtime costs charged by the layers — advances ``vtime``; anything the
handler hands to the hardware is released at the then-current ``vtime``
(the ``at=`` argument of every fabric call), so causality holds without
slicing handlers into callbacks.

Accounting
----------

``charge(dt, kind)`` attributes time to ``"useful"`` (application work) or
``"overhead"`` (runtime/communication processing); gaps between executions
are idle.  This is the exact three-way split of the paper's Projections
profiles (Fig. 12: white = idle, black = overhead, colored = useful).  An
optional tracer receives every interval for time-binned rendering.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from repro.errors import CharmError, SimulationError
from repro.hardware.machine import Machine


@dataclass(slots=True)
class Message:
    """A Converse message: envelope + payload.

    ``nbytes`` is the simulated wire size; ``payload`` is the Python value
    the handler receives.  The envelope fields mirror the real Converse
    header (handler index, source PE).
    """

    handler: int
    src_pe: int
    dst_pe: int
    nbytes: int
    payload: Any = None
    #: scheduler priority; lower runs first, None = FIFO lane
    prio: Optional[int] = None
    #: simulated time the message was handed to LrtsSyncSend
    sent_at: float = 0.0
    #: causal trace ID minted by the observer at send; ``None`` when
    #: observability is off or the message bypassed ``ConverseRuntime.send``
    trace_id: Optional[int] = None
    #: device-resident payload: ``False`` for host memory (the default),
    #: ``True`` for a runtime-managed transient device buffer, or a
    #: :class:`~repro.hardware.gpu.DeviceBuffer` the application owns.
    #: Truthy values route the send through the machine layer's GPU
    #: transport (staged-through-host or GPUDirect).
    device: Any = False


class PE:
    """One processing element: a core running the Converse scheduler."""

    __slots__ = ("runtime", "engine", "_clock", "rank", "node", "_tracer",
                 "_observer",
                 "_dispatch_cpu", "_handlers", "_fifo", "_head", "_prioq",
                 "_prio_seq",
                 "_running", "_scheduled", "_blocked", "halted",
                 "dropped_dead", "busy_until", "vtime", "useful_time",
                 "overhead_time", "idle_since", "idle_time",
                 "messages_executed", "_ctx")

    def __init__(self, runtime: "ConverseRuntime", rank: int):
        self.runtime = runtime
        self.engine = engine = runtime.engine
        #: what answers ``.now`` for the scheduling path: the engine's C
        #: core when it is bound (an attribute read, where ``Engine.now``
        #: is a Python property and a frame per message), else the engine
        self._clock = engine._core if engine._core is not None else engine
        self.rank = rank
        self.node = runtime.machine.node_of_pe(rank)
        # hot-path caches: both are fixed at runtime construction, and
        # charge()/_run_next() execute once per message
        self._tracer = runtime.tracer
        self._observer = runtime.machine.observer
        self._dispatch_cpu = runtime.config.sched_dispatch_cpu
        self._handlers = runtime._handlers  # registry list, appended in place
        # execution state.  The FIFO lane is a list read from ``_head``:
        # an idle PE keeps an empty list, and it is non-empty exactly
        # while a message waits (``_run_next`` resets it on catching up).
        # The priority heap is made by the first prioritised message.
        self._fifo: list = []
        self._head = 0
        self._prioq: Optional[list] = None
        self._prio_seq = 0
        self._running = False  # a handler is executing right now
        self._scheduled = False  # a _run_next is on the event heap
        self._blocked = False  # stuck in a blocking call (MPI_Recv)
        self.halted = False  # node crashed: dead silicon, drops everything
        #: messages dropped because this PE was already halted
        self.dropped_dead = 0
        self.busy_until = 0.0
        self.vtime = 0.0
        # accounting
        self.useful_time = 0.0
        self.overhead_time = 0.0
        self.idle_since = 0.0
        self.idle_time = 0.0
        self.messages_executed = 0
        self._ctx: Optional[dict[str, Any]] = None

    @property
    def ctx(self) -> dict[str, Any]:
        """Per-PE scratch for machine layers / applications, made on the
        first read."""
        ctx = self._ctx
        if ctx is None:
            ctx = self._ctx = {}
        return ctx

    # ------------------------------------------------------------------ #
    # Time accounting
    # ------------------------------------------------------------------ #
    def charge(self, dt: float, kind: str = "useful") -> None:
        """Advance this PE's virtual clock by ``dt`` seconds of ``kind``.

        Must be called from within a handler executing on this PE (or at
        init time before the scheduler starts).
        """
        if dt < 0:
            raise SimulationError(f"negative charge {dt}")
        if dt == 0.0:
            return
        start = self.vtime
        self.vtime += dt
        if kind == "useful":
            self.useful_time += dt
        else:
            self.overhead_time += dt
        tracer = self._tracer
        if tracer is not None:
            tracer.record(self.rank, start, dt, kind)

    @property
    def now(self) -> float:
        """The PE-local notion of current time (vtime while executing)."""
        return self.vtime if self._running else max(self.engine.now, self.busy_until)

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def enqueue(self, msg: Message, recv_cpu: float = 0.0) -> None:
        """Put a ready message on this PE's scheduler queue (now).

        ``recv_cpu`` is network-layer receive processing (CQ poll, copy
        out, matching) charged as overhead when the message is picked up.
        """
        if self.halted:
            # dead silicon: a message that reaches a crashed PE vanishes
            # (previously it sat on the queue forever, which made queue
            # inspection — and the checkpoint's quiescence audit — lie
            # about pending work)
            self.dropped_dead += 1
            return
        obs = self._observer
        if obs is not None and msg.trace_id is not None:
            obs.on_deliver(msg, self.rank, self._clock.now)
        if msg.prio is None:
            self._fifo.append((msg, recv_cpu))
        else:
            prioq = self._prioq
            if prioq is None:
                prioq = self._prioq = []
            heapq.heappush(prioq, (msg.prio, self._prio_seq, msg, recv_cpu))
            self._prio_seq += 1
        # _kick, inlined (the queue is known to be non-empty)
        if self._running or self._scheduled or self._blocked:
            return
        self._scheduled = True
        t = self._clock.now
        bu = self.busy_until
        self.engine.post_at(bu if bu > t else t, self._run_next)

    def deliver_at(self, time: float, msg: Message, recv_cpu: float = 0.0) -> None:
        """Schedule :meth:`enqueue` at an absolute simulated time.

        Routed by node so a sharded engine tags the delivery with this
        PE's shard — bootstrap injections (``send_from_outside``) arrive
        from outside any shard context and would otherwise be tagged
        shard 0 regardless of the target PE.
        """
        self.engine.post_at_node(self.node.node_id, time, self.enqueue,
                                 msg, recv_cpu)

    # -- blocking calls (the MPI machine layer's MPI_Recv) -----------------------
    def begin_blocking(self) -> None:
        """Mark this PE blocked; no further messages run until unblocked.

        Called from inside a handler that ends in a blocking call (the
        MPI-based layer's large-message ``MPI_Recv``).  The paper: "once a
        MPI_IProbe returns true, the progress engine calls blocking
        MPI_Recv [...] which prevents the progress engine from doing any
        other work" (§V.B).
        """
        self._blocked = True

    def halt(self) -> None:
        """Stop this PE permanently (its node crashed).

        Queued and future messages are never executed; the fault injector
        calls this for every PE of a crashed node.  Modeled as a blocked
        state that is never unblocked — accounting stays consistent and
        in-flight hardware events addressed to the PE are simply dropped
        on the floor, as they would be by dead silicon.
        """
        self._blocked = True
        self.halted = True
        self.dropped_dead += self.queue_length
        self._fifo.clear()
        self._head = 0
        self._prioq = None

    def end_blocking(self, t: float) -> None:
        """Unblock at simulated time ``t``; the wait is charged as overhead."""
        if not self._blocked:
            raise SimulationError(f"PE {self.rank} was not blocked")
        self._blocked = False
        self.vtime = self.busy_until
        self.charge(max(0.0, t - self.busy_until), "overhead")
        self.busy_until = self.vtime
        self.idle_since = self.vtime
        self._kick()

    def _kick(self) -> None:
        if self._running or self._scheduled or self._blocked:
            return
        if not self._fifo and not self._prioq:
            return
        self._scheduled = True
        t = self._clock.now
        bu = self.busy_until
        self.engine.post_at(bu if bu > t else t, self._run_next)

    def _run_next(self) -> None:
        """Execute the next queued message: one engine event per message.

        ``charge`` (for the dispatch overhead) and the trailing ``_kick``
        are inlined — this runs once per message.
        """
        self._scheduled = False
        if self._running:  # pragma: no cover - defensive
            return
        fifo = self._fifo
        if self._prioq:
            _, _, msg, recv_cpu = heapq.heappop(self._prioq)
        elif fifo:
            head = self._head
            msg, recv_cpu = fifo[head]
            head += 1
            if head == len(fifo):
                # caught up: an idle PE holds an empty list again
                fifo.clear()
                head = 0
            else:
                # still backlogged: let go of the cell just read (a bare
                # head index would keep every delivered message alive)
                # and cut the consumed prefix once it is the larger half
                fifo[head - 1] = None
                if head >= 32 and head * 2 >= len(fifo):
                    del fifo[:head]
                    head = 0
            self._head = head
        else:
            return
        t = self._clock.now
        tracer = self._tracer
        if t > self.idle_since:
            self.idle_time += t - self.idle_since
            if tracer is not None:
                tracer.record(self.rank, self.idle_since,
                              t - self.idle_since, "idle")
        self._running = True
        self.vtime = t
        # network receive processing + scheduler dispatch are overhead
        dt = recv_cpu + self._dispatch_cpu
        if dt < 0:
            raise SimulationError(f"negative charge {dt}")
        if dt != 0.0:
            self.vtime = t + dt
            self.overhead_time += dt
            if tracer is not None:
                tracer.record(self.rank, t, dt, "overhead")
        obs = self._observer
        if obs is not None and msg.trace_id is not None:
            obs.on_exec(msg, self.rank, t)
        try:
            handler = self._handlers[msg.handler]
        except IndexError:
            raise CharmError(f"unknown handler id {msg.handler}") from None
        try:
            handler(self, msg)
        finally:
            self._running = False
            self.busy_until = bu = self.idle_since = self.vtime
            self.messages_executed += 1
            # _kick: the engine clock has not moved during the handler
            if (not self._scheduled and not self._blocked
                    and (fifo or self._prioq)):
                self._scheduled = True
                self.engine.post_at(bu if bu > t else t, self._run_next)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def queue_length(self) -> int:
        return (len(self._fifo) - self._head
                + (len(self._prioq) if self._prioq else 0))

    def utilization(self) -> dict[str, float]:
        """Fractions of time spent useful / overhead / idle up to now."""
        total = self.engine.now
        if total <= 0:
            return {"useful": 0.0, "overhead": 0.0, "idle": 1.0}
        idle = self.idle_time
        idle += max(0.0, total - max(self.idle_since, self.busy_until))
        return {
            "useful": self.useful_time / total,
            "overhead": self.overhead_time / total,
            "idle": min(1.0, idle / total),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PE {self.rank} q={self.queue_length} busy_until={self.busy_until:.9f}>"


class ConverseRuntime:
    """Handler registry + PEs + the attached machine layer."""

    def __init__(self, machine: Machine, tracer: Optional[Any] = None,
                 n_pes: Optional[int] = None):
        """``n_pes`` restricts the job to the first N cores (block layout,
        filling whole nodes first, like ``aprun`` placement); the machine
        may have more cores than the job uses."""
        self.machine = machine
        self.engine = machine.engine
        self.config = machine.config
        # one interval hook per PE: the observer when the machine has one
        # (it keeps the raw timeline and feeds the caller's sink from the
        # same stream), else the caller's sink itself
        if machine.observer is not None:
            machine.observer.profile = tracer
            tracer = machine.observer
        self.tracer = tracer
        n = machine.n_pes if n_pes is None else n_pes
        if not 1 <= n <= machine.n_pes:
            raise CharmError(
                f"job wants {n} PEs but the machine has {machine.n_pes}")
        self._handlers: list[Callable[[PE, Message], None]] = []
        self._handler_ids: dict[Callable, int] = {}
        self.pes = [PE(self, rank) for rank in range(n)]
        self.lrts = None  # attached via attach_lrts
        self.messages_sent = 0

    # -- handlers -----------------------------------------------------------
    def register_handler(self, fn: Callable[[PE, Message], None]) -> int:
        """CmiRegisterHandler: idempotent per function."""
        hid = self._handler_ids.get(fn)
        if hid is None:
            hid = len(self._handlers)
            self._handlers.append(fn)
            self._handler_ids[fn] = hid
        return hid

    # -- machine layer ---------------------------------------------------------
    def attach_lrts(self, lrts) -> None:
        if self.lrts is not None:
            raise CharmError("an LRTS layer is already attached")
        self.lrts = lrts
        lrts.init(self)

    # -- send paths -----------------------------------------------------------
    def send(self, src_pe: PE, dst_rank: int, msg: Message) -> None:
        """CmiSyncSend: non-blocking; charges send overhead to ``src_pe``.

        Local sends bypass the machine layer entirely (the scheduler just
        re-enqueues), exactly as the real Converse does.
        """
        lrts = self.lrts
        if lrts is None:
            raise CharmError("no machine layer attached")
        self.messages_sent += 1
        msg.sent_at = start = src_pe.vtime
        obs = src_pe._observer
        if obs is not None:
            # stage times use the engine clock (monotone across events),
            # not PE vtime (which can run ahead of the engine)
            obs.on_send(msg, src_pe.rank, self.engine.now)
        # src_pe.charge(converse_send_cpu, "overhead"), inlined: a config
        # constant, which MachineConfig refuses when negative
        dt = self.config.converse_send_cpu
        if dt != 0.0:
            src_pe.vtime = start + dt
            src_pe.overhead_time += dt
            tracer = src_pe._tracer
            if tracer is not None:
                tracer.record(src_pe.rank, start, dt, "overhead")
        if dst_rank == src_pe.rank:
            src_pe.deliver_at(src_pe.vtime, msg)
            return
        lrts.sync_send(src_pe, dst_rank, msg)

    def send_from_outside(self, dst_rank: int, msg: Message, at: float = 0.0) -> None:
        """Inject a bootstrap message from outside any handler (mainchare)."""
        self.pes[dst_rank].deliver_at(at, msg)

    def broadcast_from_outside(self, make_msg: Callable[[int], Message],
                               ranks: Optional[Iterable[int]] = None) -> None:
        """Inject one bootstrap message per rank (``make_msg(rank)``) at 0.

        The per-PE kick that starts every collective/spray benchmark:
        the :meth:`send_from_outside` loop, each delivery routed by its
        PE's node (consecutive ``seq`` stamps, rank order).
        """
        for r in (range(len(self.pes)) if ranks is None else ranks):
            self.pes[r].deliver_at(0.0, make_msg(r))

    # -- run ----------------------------------------------------------------
    def run(self, until: float = float("inf"), max_events: Optional[int] = None) -> float:
        return self.engine.run(until=until, max_events=max_events)

    def total_utilization(self) -> dict[str, float]:
        """Machine-wide utilization split (averaged over PEs)."""
        agg = {"useful": 0.0, "overhead": 0.0, "idle": 0.0}
        for pe in self.pes:
            u = pe.utilization()
            for k in agg:
                agg[k] += u[k]
        n = len(self.pes)
        return {k: v / n for k, v in agg.items()}
