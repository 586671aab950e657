"""The discrete-event engine: a clock over a slab-allocated event store.

The engine is single-threaded and fully deterministic: events scheduled
for the same timestamp fire in scheduling order (a monotonically
increasing sequence number breaks ties), so a given program + seed always
produces the same trace.  This determinism is load-bearing — the
paper-reproduction benchmarks assert on simulated metrics, and the test
suite asserts exact replay equality.  ``tests/_reference_engine.py``
keeps the previous tuple+heapq engine as the executable specification of
the ordering contract; a hypothesis property test drives both engines
through random interleavings and asserts identical firing orders.

Everything simulated is a callback; there are no coroutines and no wait
objects.  The scheduling surface is small: ``call_at`` / ``call_after``
return a cancellable :class:`EventHandle`, ``post_at`` arms without one,
``call_at_node`` / ``post_at_node`` name the hardware node an event
belongs to (for :class:`~repro.parallel.ShardedEngine`), and
``call_after_batch`` arms a group sharing one callback.

Hot-path architecture (this module executes millions of times per
benchmark):

* **Slab storage.**  Event payloads live in parallel arrays indexed by a
  *slot*: ``_s_time`` / ``_s_seq`` / ``_s_fn`` / ``_s_args`` (plain
  lists — CPython list indexing is an incref, no boxing) and
  ``_s_state`` (a bytearray: FREE / PENDING / CANCELLED).
  Slots are recycled through a free list, so arming an event writes a
  few array cells instead of allocating; the slab only grows when more
  events are simultaneously pending than ever before.
* **One skip path.**  All consumers — ``step()``, ``run()``,
  ``peek()`` — find the next live event through :meth:`_peek_live`, the
  single reap loop.
* **Handles are slot views.**  :class:`EventHandle` is an
  ``(engine, slot, seq)`` triple; payloads stay in the slab.  The
  ``seq`` stamp makes stale handles *safe*: cancelling a handle whose
  slot was already recycled is a no-op instead of corruption.  A handle
  is never reused for another event, and ``post_at`` / ``post_at_node``
  skip handle creation entirely for fire-and-forget events.
* Cancellation is lazy (O(1), a state flip); cancelled entries are
  counted, reaped when they reach the heap head and compacted away
  when they dominate.
* **No collector inside the loop.**  :meth:`Engine.run` switches the
  cyclic garbage collector off while events execute and puts it back
  the way it found it (:meth:`Engine._collector_paused`): what a run
  allocates and keeps is machine state, the message path builds no
  reference cycles, and a pass over a live heap frees nothing.
"""

from __future__ import annotations

import gc
import heapq
import math
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional, Sequence

from repro.errors import SimulationError
from repro.sim import _speed

#: the compiled slab core (repro.sim._speedups.EngineCore), or None when
#: unavailable — see repro.sim._speed for the build/fallback policy
_CORE_CLS = None if _speed.core is None else _speed.core.EngineCore

_INF = math.inf

#: compact only when at least this many cancelled entries are parked ...
_COMPACT_MIN = 64
#: ... and they exceed this fraction of all parked entries
_COMPACT_RATIO = 0.5

#: slab slot states
_FREE, _PENDING, _CANCELLED = 0, 1, 2

#: Engine methods shadowed by per-instance bindings to the compiled core.
#: Single source of truth: __init__ binds exactly these names, and
#: _core_eligible audits exactly these names, so a method can never be
#: forwarded to the core without also being guarded against overrides.
_CORE_FORWARDED = (
    "call_at", "call_after", "call_at_node", "post_at", "post_at_node",
    "step", "peek", "stop",
)


class EventHandle:
    """Handle for a scheduled callback; supports :meth:`cancel`.

    A handle is a *view* onto a slab slot: ``(engine, slot, seq)``.  The
    ``seq`` stamp is compared against the slab before every operation,
    so a handle that outlives its event (the slot has been recycled for
    an unrelated future event) degrades to a harmless no-op — unlike
    the pre-slab engine, where cancelling a reused handle cancelled
    somebody else's event.

    Cancellation is lazy: the parked heap entry is reaped later.  This
    keeps ``cancel`` O(1), which matters because protocol timeouts are
    frequently armed and almost always cancelled.
    """

    __slots__ = ("engine", "slot", "seq")

    def __init__(self, engine: "Engine", slot: int, seq: int):
        self.engine = engine
        self.slot = slot
        self.seq = seq

    def _live(self) -> bool:
        eng = self.engine
        return eng._s_seq[self.slot] == self.seq

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent, stale-safe)."""
        # Inlined engine internals: armed-and-cancelled timers are a
        # per-message hot path for the reliable SMSG protocol.
        eng = self.engine
        slot = self.slot
        if eng._s_seq[slot] != self.seq or eng._s_state[slot] != _PENDING:
            return  # already fired, already cancelled, or slot recycled
        eng._s_state[slot] = _CANCELLED
        eng._s_fn[slot] = None
        eng._s_args[slot] = None
        cancelled = eng._cancelled + 1
        eng._cancelled = cancelled
        if (cancelled >= _COMPACT_MIN
                and cancelled > _COMPACT_RATIO * len(eng._heap)):
            eng._compact()

    @property
    def cancelled(self) -> bool:
        """True while this handle's event is parked in cancelled state."""
        eng = self.engine
        return (eng._s_seq[self.slot] == self.seq
                and eng._s_state[self.slot] == _CANCELLED)

    @property
    def time(self) -> float:
        """The armed timestamp (meaningful only while the event is live)."""
        return self.engine._s_time[self.slot]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._live():
            return f"<EventHandle slot={self.slot} seq={self.seq} stale>"
        state = "cancelled" if self.cancelled else "pending"
        return (f"<EventHandle t={self.time:.9f} seq={self.seq} "
                f"slot={self.slot} {state}>")


class Engine:
    """Slab event store + index heap + simulated clock.

    Typical use::

        eng = Engine()
        eng.call_after(1e-6, handler, arg)
        eng.run()
        assert eng.now >= 1e-6
    """

    #: lifecycle sanitizer (:mod:`repro.sanitize`), set by the machine
    #: that owns this engine; ``None`` skips the quiescence checks
    sanitizer = None
    #: observability hub (:mod:`repro.observe`), set by the machine that
    #: owns this engine; ``None`` skips all telemetry hooks.  The run
    #: loop itself is not hooked — only the runaway-guard path is — so
    #: with both hooks unset the loop carries zero telemetry branches.
    observer = None

    def __init__(self) -> None:
        # The compiled slab core carries the whole hot path when it is
        # available.  Binding its methods *over* the instance shadows the
        # pure-Python definitions below, which remain as the executable
        # specification, the no-compiler fallback, and the base that
        # ShardedEngine extends (it wraps _stage to tag each event with
        # its shard) — subclasses therefore never bind the core.
        core = None
        if _CORE_CLS is not None and _core_eligible(type(self)):
            core = _CORE_CLS(SimulationError)
            for name in _CORE_FORWARDED:
                setattr(self, name, getattr(core, name))
        self._core = core
        self._now = 0.0
        self._seq = 0
        # -- slab: parallel arrays indexed by slot --------------------------
        self._s_time: list[float] = []
        self._s_seq: list[int] = []
        self._s_fn: list[Optional[Callable]] = []
        self._s_args: list[Any] = []
        self._s_state = bytearray()
        #: recycled slots (LIFO keeps the working set cache-hot)
        self._free: list[int] = []
        #: every parked event, heap-ordered; entries are (time, seq, slot)
        self._heap: list[tuple[float, int, int]] = []
        # -- lifecycle ------------------------------------------------------
        self._running = False
        self._stopped = False
        #: cancelled entries still parked in the heap
        self._cancelled = 0
        #: number of callbacks actually executed (diagnostics / tests);
        #: read via the events_executed property, which prefers the core's
        self._events_executed = 0
        #: run() calls, how many of them found the collector enabled, and
        #: collector passes per generation that ran inside them anyway
        #: (see collector_stats)
        self._gc_runs = 0
        self._gc_paused = 0
        self._gc_passes = [0, 0, 0]

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        core = self._core
        return core.now if core is not None else self._now

    @property
    def events_executed(self) -> int:
        """Number of callbacks actually executed (diagnostics / tests)."""
        core = self._core
        return core.events_executed if core is not None else self._events_executed

    # -- slab primitives ----------------------------------------------------
    def _free_slot(self, slot: int) -> None:
        """Release a fired/reaped slot (drop payload refs)."""
        self._s_state[slot] = _FREE
        self._s_fn[slot] = None
        self._s_args[slot] = None
        self._free.append(slot)

    def _stage(self, time: float, fn: Callable, args: tuple) -> int:
        """Arm one event (slot alloc + heap push); returns its slot.

        The one arming primitive: ``post_at`` and the batch API land here,
        and :meth:`_arm` is this plus a handle.
        :class:`~repro.parallel.ShardedEngine` overrides it to tag the new
        slot with the executing shard.
        """
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            slot = free.pop()
            self._s_time[slot] = time
            self._s_seq[slot] = seq
            self._s_fn[slot] = fn
            self._s_args[slot] = args
            self._s_state[slot] = _PENDING
        else:
            slot = len(self._s_state)
            self._s_time.append(time)
            self._s_seq.append(seq)
            self._s_fn.append(fn)
            self._s_args.append(args)
            self._s_state.append(_PENDING)
        heapq.heappush(self._heap, (time, seq, slot))
        return slot

    # -- scheduling ---------------------------------------------------------
    def advance_to(self, time: float) -> None:
        """Jump the clock forward to ``time`` without running anything.

        The checkpoint/restart path uses this to restore a fresh engine's
        clock to the checkpoint's simulated time (and then past it, to
        account for modeled restart cost) so post-recovery timelines stay
        monotone.  Jumping backward, or over a pending event (which would
        then fire in the past), is a :class:`SimulationError`.

        Boundary: an event armed at exactly ``time`` does **not** block
        the jump — ``peek()`` returns its timestamp, the comparison is
        strict, and the event still fires (at ``now == time``) on the
        next ``run()``/``step()``.  The restart path depends on this: the
        re-armed schedule is clamped to the resume time, so its first
        event sits exactly at the clock target.
        """
        if not math.isfinite(time):
            raise SimulationError(f"non-finite clock target {time!r}")
        now = self.now
        if time < now:
            raise SimulationError(
                f"cannot rewind clock to t={time} (now={now})")
        nxt = self.peek()
        if time > nxt:
            raise SimulationError(
                f"advance_to(t={time}) would skip a pending event at t={nxt}")
        core = self._core
        if core is not None:
            core._set_now(time)
        else:
            self._now = time

    def _arm(self, time: float, fn: Callable, args: tuple) -> EventHandle:
        """:meth:`_stage` plus a handle on the new slot."""
        slot = self._stage(time, fn, args)
        # EventHandle(self, slot, seq) without the __init__ frame
        handle = EventHandle.__new__(EventHandle)
        handle.engine = self
        handle.slot = slot
        handle.seq = self._s_seq[slot]
        return handle

    def call_at(self, time: float, fn: Callable, *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now={self._now}): time travel"
            )
        if not math.isfinite(time):
            raise SimulationError(f"non-finite event time {time!r}")
        return self._arm(time, fn, args)

    def call_after(self, delay: float, fn: Callable, *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds (``delay >= 0``).

        Fast path: a non-negative finite delay lands at ``now + delay``,
        which can never time-travel, so the absolute-time revalidation of
        :meth:`call_at` is skipped.
        """
        if not 0.0 <= delay < _INF:  # also rejects NaN
            raise SimulationError(f"negative delay {delay!r}")
        time = self._now + delay
        if time == _INF:
            raise SimulationError(f"non-finite event time {time!r}")
        return self._arm(time, fn, args)

    def call_at_node(self, node_id: int, time: float, fn: Callable,
                     *args: Any) -> EventHandle:
        """Schedule an event that *belongs to* hardware node ``node_id``.

        Cross-node event injection points (SMSG arrival, RDMA completion,
        PE message delivery) route through here so that
        :class:`repro.parallel.ShardedEngine` can tag the event with the
        owning shard and audit it against the lookahead window.  Here the
        node identity carries no information and this is exactly
        :meth:`call_at`.
        """
        return self.call_at(time, fn, *args)

    # -- fire-and-forget scheduling (no handle) -----------------------------
    def post_at(self, time: float, fn: Callable, *args: Any) -> None:
        """:meth:`call_at` without building a handle.

        For events nobody will ever cancel — scheduler kicks, hardware
        arrivals, a raw driver's next step — the handle is pure overhead;
        this path writes the slab cells and nothing else.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} (now={self._now}): time travel"
            )
        if not math.isfinite(time):
            raise SimulationError(f"non-finite event time {time!r}")
        self._stage(time, fn, args)

    def post_at_node(self, node_id: int, time: float, fn: Callable,
                     *args: Any) -> None:
        """:meth:`call_at_node` without building a handle."""
        self.post_at(time, fn, *args)

    # -- batch scheduling ----------------------------------------------------
    def call_after_batch(self, delays: Sequence[float], fn: Callable,
                         argss: Optional[Sequence[tuple]] = None) -> None:
        """Arm one ``fn(*args)`` event per entry of ``delays`` seconds.

        The homogeneous-timer fast path: groups of events sharing one
        callback.  Every delay is validated (non-negative, finite) and
        converted to an absolute time before anything is armed, then the
        events are armed back-to-back so they keep consecutive ``seq``
        stamps — the firing order is exactly that of the equivalent
        ``call_after`` loop.

        ``argss`` supplies one argument tuple per event (``None`` arms
        them all with no arguments).  No handles are built; batch-armed
        events cannot be individually cancelled.
        """
        now = self.now
        times = []
        for d in delays:
            if not 0.0 <= d < _INF:  # also rejects NaN
                raise SimulationError(f"negative delay {d!r}")
            times.append(now + d)
        n = len(times)
        if argss is not None and len(argss) != n:
            raise SimulationError(
                f"call_after_batch: {n} delays but {len(argss)} argument tuples")
        for t in times:
            if t == _INF:
                raise SimulationError(f"non-finite event time {t!r}")
        core = self._core
        if core is not None:
            core.post_many(times, fn, argss)
            return
        stage = self._stage
        if argss is None:
            for t in times:
                stage(t, fn, ())
        else:
            for t, args in zip(times, argss):
                stage(t, fn, tuple(args))

    # -- heap hygiene --------------------------------------------------------
    def _compact(self) -> None:
        """Drop lazily-cancelled entries from the heap and re-heapify.

        Pop order is unaffected: entry keys ``(time, seq)`` are unique,
        so the heap's total order — hence determinism — does not depend
        on its internal layout.
        """
        state = self._s_state
        heap = self._heap
        live = [e for e in heap if state[e[2]] == _PENDING]
        if len(live) != len(heap):
            for e in heap:
                if state[e[2]] != _PENDING:
                    self._free_slot(e[2])
            heap[:] = live
            heapq.heapify(heap)
        self._cancelled = 0

    # -- the one skip path ---------------------------------------------------
    def _peek_live(self) -> Optional[tuple[float, int, int]]:
        """The next live entry, left at the heap head; None when idle.

        The **single** reap loop shared by :meth:`step`, :meth:`run` and
        :meth:`peek` — every consumer of "the next event" goes through
        here, so the lazy-cancel skip logic cannot drift between them:
        cancelled entries are popped off the heap head and their slots
        freed until a live one is on top.
        """
        heap = self._heap
        state = self._s_state
        while heap:
            entry = heap[0]
            if state[entry[2]] == _PENDING:
                return entry
            heapq.heappop(heap)
            self._cancelled -= 1
            self._free_slot(entry[2])
        return None

    # -- run loop -----------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.  Returns False when idle."""
        entry = self._peek_live()
        if entry is None:
            return False
        heapq.heappop(self._heap)
        slot = entry[2]
        self._now = entry[0]
        self._events_executed += 1
        fn = self._s_fn[slot]
        args = self._s_args[slot]
        self._free_slot(slot)
        fn(*args)
        return True

    @contextmanager
    def _collector_paused(self) -> Iterator[None]:
        """Keep the cyclic garbage collector out of an event loop.

        What a run allocates and keeps is live machine state (route
        entries, links, lazily built queues), and no message path on any
        layer builds a reference cycle (``tests/test_no_cyclic_garbage.py``
        holds that line), so a collector pass inside the loop walks a
        heap that only grows and frees nothing — a third of the host
        time of a cold 10,240-PE run.  The collector is left exactly as
        it was found, on every way out: enabled stays enabled, disabled
        stays disabled (a caller that switched it off, or an enclosing
        ``run()`` of another engine, keeps it off).
        """
        was_enabled = gc.isenabled()
        gc.disable()
        before = [gen["collections"] for gen in gc.get_stats()]
        try:
            yield
        finally:
            passes = self._gc_passes
            for i, gen in enumerate(gc.get_stats()):
                passes[i] += gen["collections"] - before[i]
            self._gc_runs += 1
            if was_enabled:
                self._gc_paused += 1
                gc.enable()

    def collector_stats(self) -> dict[str, Any]:
        """What the cyclic collector did around this engine's ``run()`` calls.

        A simulator self-metric, not a simulated result: it is in no
        ``stats()`` dict, checksum or metrics digest.  ``passes_in_run``
        counts collector passes per generation that ran while the loop had
        the collector paused — zeros unless a callback forced one.
        """
        return {"runs": self._gc_runs, "paused_runs": self._gc_paused,
                "passes_in_run": tuple(self._gc_passes)}

    def run(self, until: float = math.inf, max_events: Optional[int] = None) -> float:
        """Run until the queues drain, ``until`` is reached, or ``stop()``.

        Returns the simulated time at exit.  ``max_events`` is a runaway
        guard for tests; exceeding it raises :class:`SimulationError`.  The
        guard fires *before* the offending event runs, so
        ``events_executed`` counts only callbacks that actually executed.
        The cyclic collector is paused for the duration
        (:meth:`_collector_paused`), whichever loop executes the events.
        """
        with self._collector_paused():
            return self._run(until, max_events)

    def _run(self, until: float, max_events: Optional[int]) -> float:
        """The event loop behind :meth:`run`: the compiled core's when it
        is bound, the pure-Python one below otherwise.

        The loop is specialized for the hook-free case: with no
        sanitizer/observer installed and no guard tripping, each
        iteration is one :meth:`_peek_live`, one heap pop, the slot's
        release and the callback — nothing else.
        """
        core = self._core
        if core is not None:
            # hooks ride along per call: observer/sanitizer are consulted
            # only on the runaway-guard and drained paths, so with both
            # unset the compiled loop carries no Python callbacks at all
            return core.run(until, max_events, self.observer, self.sanitizer)
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        self._running = True
        self._stopped = False
        executed = 0
        limit = _INF if max_events is None else max_events
        # hot-loop locals: every name below is touched once per event
        heap = self._heap
        heappop = heapq.heappop
        peek_live = self._peek_live
        s_fn = self._s_fn
        s_args = self._s_args
        s_state = self._s_state
        free_append = self._free.append
        try:
            while not self._stopped:
                entry = peek_live()
                if entry is None:
                    break
                time = entry[0]
                if time > until:
                    self._now = until
                    return self._now
                if executed >= limit:
                    obs = self.observer
                    if obs is not None:
                        obs.on_stall(self._now, max_events)
                    raise SimulationError(
                        f"exceeded max_events={max_events} (runaway simulation?)"
                    )
                heappop(heap)
                slot = entry[2]
                self._now = time
                self._events_executed += 1
                executed += 1
                fn = s_fn[slot]
                args = s_args[slot]
                # _free_slot(), inlined for the per-event hot loop
                s_state[slot] = _FREE
                s_fn[slot] = None
                s_args[slot] = None
                free_append(slot)
                fn(*args)
            # drained-or-stopped exit: with nothing parked, advance the
            # clock to a finite horizon so repeated run(until=...) calls
            # observe monotonic time, and raise the quiescence hook
            # (itself a no-op on a stop() exit)
            if not heap:
                if math.isfinite(until) and until > self._now:
                    self._now = until
                self._notify_drained()
        finally:
            self._running = False
        return self._now

    def _notify_drained(self) -> None:
        """Quiescence hook: the queues drained (not a ``stop()`` exit)."""
        san = self.sanitizer
        if san is not None and not self._stopped:
            san.on_engine_drained(self._now)

    def stop(self) -> None:
        """Request :meth:`run` to return after the current callback."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Parked heap entries, including lazily-cancelled ones."""
        core = self._core
        return core.pending if core is not None else len(self._heap)

    @property
    def pending_cancelled(self) -> int:
        """Cancelled entries still parked (diagnostics)."""
        core = self._core
        return core.pending_cancelled if core is not None else self._cancelled

    def peek(self) -> float:
        """Timestamp of the next live event, or ``inf`` when idle.

        Shares :meth:`_peek_live` with ``step``/``run``; reaping a
        cancelled head entry here retires it exactly the way the run
        loop would.
        """
        entry = self._peek_live()
        return entry[0] if entry is not None else _INF


#: the forwarded methods as defined by the class body above — captured at
#: import so _core_eligible can detect later class-level replacement
_CORE_PRISTINE = {name: Engine.__dict__[name] for name in _CORE_FORWARDED}


def _core_eligible(cls: type) -> bool:
    """May instances of ``cls`` bind the compiled core's hot-path methods?

    Only an exact, unmodified :class:`Engine` qualifies.  A subclass that
    overrides even one forwarded method (say, only ``post_at``) must
    never see the core's sibling fast paths — internal traffic would
    bypass its override.  The same hazard exists when ``Engine`` itself
    is patched at class level (a test wrapping ``Engine.post_at`` to
    count calls): the per-instance core binding would shadow the wrapper
    silently, so any drift from the pristine class body disables binding
    and the pure-Python specification runs instead.
    """
    if cls is not Engine:
        return False
    return all(cls.__dict__.get(name) is _CORE_PRISTINE[name]
               for name in _CORE_FORWARDED)

