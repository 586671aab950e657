"""Window audit of the conservative-lookahead bound, over one event queue.

:class:`ShardedEngine` is the base :class:`~repro.sim.engine.Engine` —
the same slab and heap, hence the same ``(time, seq)``
firing order, bit for bit — plus a bookkeeping pass that answers one
question: *would a conservative parallel simulation of this run have
been legal?*  It does **not** parallelise anything and it costs host
time (one tag write per armed event, one comparison per executed one).

* **Shards are tags.**  The machine's hardware nodes are block-
  partitioned into ``n_shards`` groups; every pending event carries the
  index of the shard that owns it.  An event armed by plain
  ``call_at``/``post_*`` belongs to the shard whose event is executing;
  one armed through :meth:`call_at_node` / :meth:`post_at_node` — SMSG
  arrivals, RDMA completions, PE deliveries — belongs to the shard
  owning that node.
* **Windows.**  The run loop cuts simulated time into synchronization
  windows ``[t, t + lookahead)`` opened at the next pending event.  A
  cross-shard event armed during a window must land at or after the
  window's end: a conservative simulator would only hand it over at the
  barrier.  Every cross-node path crosses an injection port, at least
  one hop and an ejection port, so ``2 * nic_latency + hop_latency`` is
  the default bound.  Hand-overs are counted in
  :attr:`exchanged_events`; an event landing *inside* the window is
  executed in order anyway and counted in :attr:`lookahead_violations`,
  which the tests and benchmarks pin at zero.
* **Fallback.**  Where windows would mean nothing the audit switches
  itself off (:attr:`fallback_reason` says why) and the engine is a
  plain sequential one: a single shard, fewer than two nodes, a
  lookahead below ``min_lookahead``, or fault injection installed (at
  bind time or seen at a barrier: injected faults change latencies
  mid-run).

With one queue, a run here is bit-identical to a run on :class:`Engine`
in every mode — asserted by ``tests/test_sharded_engine.py`` on the
fig-10 kNeighbor config and by the oracle diff in
``tests/test_engine_equivalence.py``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.engine import Engine, EventHandle

_INF = math.inf


class ShardedEngine(Engine):
    """Drop-in :class:`Engine` that audits conservative-window legality.

    Usage::

        eng = ShardedEngine(n_shards=4)
        machine = Machine(n_nodes=16, engine=eng)   # binds the partition
        ... run any experiment ...
        eng.shard_stats()   # windows, exchanged events, fallback reason

    Construction does not need the machine; :meth:`bind_machine` (called
    by ``Machine.__init__``) supplies the node partition and the default
    lookahead.  Until then — and after a fallback — no windows are cut.
    """

    def __init__(
        self,
        n_shards: int = 2,
        lookahead: Optional[float] = None,
        min_lookahead: float = 1e-9,
    ) -> None:
        super().__init__()
        if n_shards < 1:
            raise SimulationError(f"need at least one shard, got {n_shards}")
        self.n_shards = int(n_shards)
        #: explicit lookahead override (seconds); None = derive from config
        self._lookahead_override = lookahead
        self.lookahead = lookahead if lookahead is not None else 0.0
        self.min_lookahead = min_lookahead
        #: node_id -> shard index (set by bind_machine)
        self._shard_of_node: list[int] = []
        self._machine = None
        #: slab slot -> owning shard, parallel to the base engine's slab
        self._owner: list[int] = []
        #: shard whose event is executing (owner of plain call_at events)
        self._current = 0
        # window state
        self._in_window = False
        self._window_end = _INF
        # mode + diagnostics
        self._sequential = self.n_shards == 1
        self.fallback_reason: Optional[str] = (
            "single-shard" if self._sequential else None)
        self.windows = 0
        self.barriers = 0
        self.exchanged_events = 0
        self.lookahead_violations = 0

    # ------------------------------------------------------------------ #
    # machine binding / partition / fallback
    # ------------------------------------------------------------------ #
    def bind_machine(self, machine) -> None:
        """Partition ``machine``'s nodes across shards and pick the lookahead.

        Called by :class:`~repro.hardware.machine.Machine` at construction
        time (any engine exposing ``bind_machine`` gets it).  Nodes are
        assigned in contiguous blocks — node ``i`` of ``n`` goes to shard
        ``i * n_shards // n`` — so PE rank order and shard order agree.
        """
        self._machine = machine
        n_nodes = machine.n_nodes
        n_shards = min(self.n_shards, n_nodes)
        self._shard_of_node = [
            node_id * n_shards // n_nodes for node_id in range(n_nodes)
        ]
        if self._lookahead_override is None:
            cfg = machine.config
            self.lookahead = 2 * cfg.nic_latency + cfg.hop_latency
        if self.n_shards == 1:
            self._fallback("single-shard")
        elif n_nodes < 2 or n_shards < 2:
            self._fallback("too-few-nodes")
        elif not self.lookahead > 0 or self.lookahead < self.min_lookahead:
            self._fallback(f"lookahead-below-threshold ({self.lookahead!r})")
        elif machine.faults is not None:
            self._fallback("faults-installed")

    def shard_of_node(self, node_id: int) -> int:
        """The shard owning hardware node ``node_id`` (0 before binding)."""
        if 0 <= node_id < len(self._shard_of_node):
            return self._shard_of_node[node_id]
        return 0

    def _fallback(self, reason: str) -> None:
        """Stop cutting windows; the first reason given is the one kept."""
        self._sequential = True
        if self.fallback_reason is None:
            self.fallback_reason = reason

    def _probe_faults(self) -> None:
        """Fault check at run start and at every barrier."""
        m = self._machine
        if m is not None and m.faults is not None:
            self._fallback("faults-installed")

    # ------------------------------------------------------------------ #
    # scheduling: the base engine arms, this class tags
    # ------------------------------------------------------------------ #
    def _stage(self, time: float, fn: Callable, args: tuple) -> int:
        # every armed event, handle or not, is staged here and tagged
        # with the executing shard
        slot = super()._stage(time, fn, args)
        try:
            self._owner[slot] = self._current
        except IndexError:  # the slab grew by this one slot
            self._owner.append(self._current)
        return slot

    def _route(self, slot: int, node_id: int, time: float) -> None:
        """Re-tag a just-armed event with ``node_id``'s shard and audit it."""
        target = self.shard_of_node(node_id)
        self._owner[slot] = target
        if self._in_window and target != self._current:
            if time < self._window_end:
                self.lookahead_violations += 1
            else:
                self.exchanged_events += 1

    def call_at_node(self, node_id: int, time: float, fn: Callable,
                     *args: Any) -> EventHandle:
        """:meth:`call_at`, owned by the shard of ``node_id``.

        During a window, a schedule onto another shard is either a
        barrier hand-over (it lands at or after the window's end) or a
        lookahead violation (it lands inside); both fire in the global
        ``(time, seq)`` order, and each is counted.
        """
        handle = self.call_at(time, fn, *args)
        self._route(handle.slot, node_id, time)
        return handle

    def post_at_node(self, node_id: int, time: float, fn: Callable,
                     *args: Any) -> None:
        """:meth:`call_at_node`, handle dropped: the audit needs the slot
        and the handle is what carries it out of the checked arm."""
        self._route(self.call_at(time, fn, *args).slot, node_id, time)

    # ------------------------------------------------------------------ #
    # execution: the base loop plus window bookkeeping
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Execute the next pending event (no windowing)."""
        entry = self._peek_live()
        if entry is None:
            return False
        self._current = self._owner[entry[2]]
        return super().step()

    def _barrier(self) -> None:
        """Close the open window."""
        self._in_window = False
        self._window_end = _INF
        self.barriers += 1
        self._probe_faults()

    def _run(self, until: float, max_events: Optional[int]) -> float:
        """The loop behind :meth:`Engine.run` — same ``until`` clamping,
        ``max_events`` guard and ``stop()`` behaviour, entered with the
        collector paused like the base loops — cutting windows as it goes.

        A window opens at the first event to execute and closes (a
        *barrier*) when the next event lies at or past its end, when the
        queue drains, or on ``stop()``; leaving through ``until`` or the
        runaway guard abandons it without a barrier.
        """
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        self._running = True
        self._stopped = False
        executed = 0
        limit = _INF if max_events is None else max_events
        peek_live = self._peek_live
        owner = self._owner
        execute = super().step
        try:
            self._probe_faults()
            while not self._stopped:
                entry = peek_live()
                if entry is None:
                    break
                time = entry[0]
                if time >= self._window_end:
                    self._barrier()
                    continue
                if time > until:
                    self._now = until
                    return self._now
                if (not self._in_window and not self._sequential
                        and self.lookahead > 0):
                    self._in_window = True
                    self._window_end = time + self.lookahead
                    self.windows += 1
                if executed >= limit:
                    obs = self.observer
                    if obs is not None:
                        obs.on_stall(self._now, max_events)
                    raise SimulationError(
                        f"exceeded max_events={max_events} (runaway simulation?)")
                executed += 1
                self._current = owner[entry[2]]
                execute()
            if self._in_window:
                self._barrier()
            if not self.pending:
                if math.isfinite(until) and until > self._now:
                    self._now = until
                self._notify_drained()
        finally:
            self._in_window = False
            self._window_end = _INF
            self._running = False
        return self._now

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def shard_stats(self) -> dict[str, Any]:
        """Window/exchange counters for reports and regression tests."""
        shard_pending = [0] * self.n_shards
        for entry in self._heap:
            shard_pending[self._owner[entry[2]]] += 1
        return {
            "n_shards": self.n_shards,
            "lookahead_s": self.lookahead,
            "sequential": self._sequential,
            "fallback_reason": self.fallback_reason,
            "windows": self.windows,
            "barriers": self.barriers,
            "exchanged_events": self.exchanged_events,
            "lookahead_violations": self.lookahead_violations,
            "shard_pending": shard_pending,
        }

    def __repr__(self) -> str:  # pragma: no cover
        mode = "sequential" if self._sequential else f"{self.n_shards}-shard"
        return (f"<ShardedEngine {mode} lookahead={self.lookahead:.2e} "
                f"windows={self.windows} pending={self.pending}>")
