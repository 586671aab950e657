"""Differential tests: slab engine (C core and pure Python) vs the oracle.

``tests/_reference_engine.py`` is the pre-slab heap engine, kept frozen as
an executable specification.  These tests drive random interleavings of
schedule / cancel / run / step / peek through the production engine and
the oracle side by side and require identical observable behaviour:
the same ``(time, tag)`` firing order, the same clock, the same live
event counts.

The production engine is exercised in three backends in-process:

* ``Engine()`` — binds the compiled C core when it is available;
* ``PureEngine`` (a trivial subclass) — the core is only bound when
  ``type(self) is Engine``, so any subclass runs the pure-Python slab
  paths;
* ``ShardedEngine(n_shards=3)`` — the pure-Python slab under the window
  audit's own ``run``/``step`` and its tagging ``_stage`` wrapper.
  Unbound it cuts no windows, so ``_windowed_sharded`` binds
  a three-node stand-in machine and a 2 ns lookahead: windows open and
  close, and ``at_node`` events change shard, between the same events.
"""

import math
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.parallel import ShardedEngine
from repro.sim import _speed
from repro.sim.engine import Engine
from tests._reference_engine import ReferenceEngine

SETTINGS = dict(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class PureEngine(Engine):
    """Forces the pure-Python slab paths even when the C core is built."""


def _windowed_sharded():
    eng = ShardedEngine(n_shards=3, lookahead=2e-9)
    eng.bind_machine(SimpleNamespace(n_nodes=3, faults=None))
    assert not eng.shard_stats()["sequential"]
    return eng


#: engine factories under test, each diffed against the oracle
BACKENDS = [pytest.param(Engine, id="c-core" if _speed.core else "default"),
            pytest.param(PureEngine, id="pure-python"),
            pytest.param(lambda: ShardedEngine(n_shards=3), id="sharded"),
            pytest.param(_windowed_sharded, id="sharded-windowed")]

# small delay menu with deliberate duplicates so ties (same time,
# different seq) are common
_DELAYS = [0.0, 1e-9, 1e-9, 2e-9, 5e-9, 1e-8, 3e-8, 1e-7]

_op = st.one_of(
    st.tuples(st.just("after"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("post"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("at_node"), st.integers(0, 3), st.sampled_from(_DELAYS)),
    st.tuples(st.just("post_node"), st.integers(0, 3),
              st.sampled_from(_DELAYS)),
    st.tuples(st.just("soon")),
    st.tuples(st.just("batch"),
              st.lists(st.sampled_from(_DELAYS), min_size=0, max_size=5)),
    st.tuples(st.just("cancel"), st.integers(0, 31)),
    st.tuples(st.just("run"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
)


class _Driver:
    """Replays one op sequence against one engine, recording what fired."""

    def __init__(self, eng):
        self.eng = eng
        self.log = []
        #: tag -> handle for events still armed and not cancelled.  The
        #: oracle pools and *reuses* retired handles (its handles are not
        #: stale-safe — that is one of the things the slab engine fixed),
        #: so the driver must never cancel a handle whose event already
        #: fired or was already cancelled.
        self.live = {}
        #: handles whose event fired or was cancelled (lane parity only:
        #: the slab engines must shrug off a cancel through any of them)
        self.retired = []
        self.peeks = []
        self.next_tag = 0

    def _cb(self, tag):
        def cb():
            self._retire(tag)
            self.log.append((repr(self.eng.now), tag))
        return cb

    def _retire(self, tag):
        handle = self.live.pop(tag, None)
        if handle is not None:
            self.retired.append(handle)
        return handle

    def apply(self, op):
        eng = self.eng
        kind = op[0]
        if kind == "after":
            self.live[self.next_tag] = eng.call_after(
                op[1], self._cb(self.next_tag))
            self.next_tag += 1
        elif kind == "post":
            # reference has no post_at; the contract is "call_at minus the
            # handle", so the oracle side arms the same relative delay and
            # drops the handle
            if isinstance(eng, ReferenceEngine):
                eng.call_after(op[1], self._cb(self.next_tag))
            else:
                eng.post_at(eng.now + op[1], self._cb(self.next_tag))
            self.next_tag += 1
        elif kind == "at_node":
            # the node changes an event's shard tag, never its firing order:
            # the oracle side is a plain call_after
            if isinstance(eng, ReferenceEngine):
                handle = eng.call_after(op[2], self._cb(self.next_tag))
            else:
                handle = eng.call_at_node(op[1], eng.now + op[2],
                                          self._cb(self.next_tag))
            self.live[self.next_tag] = handle
            self.next_tag += 1
        elif kind == "post_node":
            if isinstance(eng, ReferenceEngine):
                eng.call_after(op[2], self._cb(self.next_tag))
            else:
                eng.post_at_node(op[1], eng.now + op[2],
                                 self._cb(self.next_tag))
            self.next_tag += 1
        elif kind == "soon":
            # an event at the current time fires after the pending ties
            if isinstance(eng, ReferenceEngine):
                eng.call_soon(self._cb(self.next_tag))
            else:
                eng.call_at(eng.now, self._cb(self.next_tag))
            self.next_tag += 1
        elif kind == "batch":
            delays = op[1]
            tags = [self.next_tag + i for i in range(len(delays))]
            self.next_tag += len(delays)
            if isinstance(eng, ReferenceEngine):
                for d, t in zip(delays, tags):
                    eng.call_after(d, self._cb(t))
            else:
                eng.call_after_batch(delays, _batch_cb,
                                     [(self, t) for t in tags])
        elif kind == "cancel":
            if self.live:
                tags = sorted(self.live)
                self._retire(tags[op[1] % len(tags)]).cancel()
        elif kind == "run":
            eng.run(until=eng.now + op[1])
        elif kind == "step":
            eng.step()
        elif kind == "peek":
            self.peeks.append(repr(eng.peek()))
        else:
            self._apply_lane_op(op)

    def _apply_lane_op(self, op):
        """Ops the oracle cannot take: its handles are not stale-safe, it
        has no ``stop`` event and it words its errors differently."""
        eng = self.eng
        kind = op[0]
        if kind == "cancel_newest":
            if self.live:
                self._retire(max(self.live)).cancel()
        elif kind == "cancel_stale":
            if self.retired:
                self.retired[op[1] % len(self.retired)].cancel()
        elif kind == "churn":
            # enough parked cancels to cross the compaction threshold
            # (64 of them, and more than half of what is parked)
            first = self.next_tag
            for _ in range(op[1]):
                self.apply(("after", 1e-6))
            for tag in range(first, first + (3 * op[1]) // 4):
                self._retire(tag).cancel()
        elif kind == "stop":
            eng.post_at(eng.now + op[1], eng.stop)
        elif kind == "bad":
            # a rejected call arms nothing and reads the same on every lane
            arm = getattr(eng, op[1])
            args = ([1e-9, op[2]], _noop) if "batch" in op[1] else (op[2], _noop)
            with pytest.raises(SimulationError) as err:
                arm(*args)
            self.log.append(str(err.value))
        else:
            raise AssertionError(op)

    def state(self):
        """What a caller can see of the engine between two operations."""
        return (self.log, self.peeks, repr(self.eng.now),
                self.eng.events_executed, self.eng.pending,
                self.eng.pending_cancelled)

    def finish(self):
        self.eng.run()
        return (self.log, self.peeks, repr(self.eng.now),
                self.eng.events_executed,
                self.eng.pending - self.eng.pending_cancelled)


def _batch_cb(driver, tag):
    driver.log.append((repr(driver.eng.now), tag))


def _noop():
    pass


@pytest.mark.parametrize("factory", BACKENDS)
@settings(**SETTINGS)
@given(ops=st.lists(_op, max_size=40))
def test_slab_engine_matches_reference(factory, ops):
    """Any schedule/cancel/run/step/peek interleaving fires the same
    events, in the same order, at the same times, as the oracle."""
    ref = _Driver(ReferenceEngine())
    cur = _Driver(factory())
    for op in ops:
        ref.apply(op)
        cur.apply(op)
    assert cur.finish() == ref.finish()


@pytest.mark.parametrize("factory", BACKENDS)
def test_tie_storm_matches_reference(factory):
    """Dense same-time ties + interleaved cancels: the worst case for any
    ordering bug, checked deterministically (not just via hypothesis)."""
    ref = _Driver(ReferenceEngine())
    cur = _Driver(factory())
    ops = []
    for i in range(50):
        ops.append(("after", _DELAYS[i % len(_DELAYS)]))
        if i % 3 == 0:
            ops.append(("cancel", i * 7))
        if i % 11 == 0:
            ops.append(("run", 2e-9))
        if i % 5 == 0:
            ops.append(("batch", [1e-9, 1e-9, 0.0]))
        if i % 4 == 0:
            ops.append(("at_node", i % 3, _DELAYS[(i + 2) % len(_DELAYS)]))
            ops.append(("post_node", (i + 1) % 3, 2e-9))
    for op in ops:
        ref.apply(op)
        cur.apply(op)
    assert cur.finish() == ref.finish()


# --------------------------------------------------------------------- #
# the lanes are one design: they agree with each other at every step,
# parked and cancelled counts included (the oracle only pins live counts)
# --------------------------------------------------------------------- #
_lane_op = st.one_of(
    _op,
    st.tuples(st.just("cancel_newest")),
    st.tuples(st.just("cancel_stale"), st.integers(0, 31)),
    st.tuples(st.just("churn"), st.sampled_from([8, 100])),
    st.tuples(st.just("stop"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("bad"),
              st.sampled_from(["call_after", "call_at", "post_at",
                               "call_after_batch"]),
              st.sampled_from([-1e-9, math.inf, math.nan])),
)


@settings(**SETTINGS)
@given(ops=st.lists(_lane_op, max_size=40))
@example(ops=[("after", 1e-9), ("cancel_newest",)])
@example(ops=[("churn", 100), ("run", 1e-9), ("churn", 100), ("step",)])
@example(ops=[("after", 0.0), ("step",), ("after", 1e-9),
              ("cancel_stale", 0), ("run", 1e-8)])
def test_lanes_agree_after_every_operation(ops):
    """The C core, the pure-Python slab and ``ShardedEngine`` show the same
    firing log, clock, ``pending`` and ``pending_cancelled`` after every
    operation of one program: arms of every kind, cancels of the newest,
    an older and a stale handle, compaction, ``run(until)``, ``step``,
    ``stop`` and rejected calls."""
    drivers = [_Driver(param.values[0]()) for param in BACKENDS]
    for i, op in enumerate(ops):
        for driver in drivers:
            driver.apply(op)
        states = [driver.state() for driver in drivers]
        assert all(state == states[0] for state in states[1:]), (
            i, op, [(param.id, state[2:])
                    for param, state in zip(BACKENDS, states)])
    results = [driver.finish() for driver in drivers]
    assert all(result == results[0] for result in results[1:])


# --------------------------------------------------------------------- #
# advance_to boundary (satellite: documented + tested)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("factory", BACKENDS)
class TestAdvanceToBoundary:
    def test_event_at_target_survives_and_fires(self, factory):
        """The boundary is strict: jumping to *exactly* the next event's
        time is legal, the event survives the jump, and it fires at
        ``now == time`` on the next run (the restart path's clamped
        schedules depend on this)."""
        eng = factory()
        fired = []
        eng.call_at(1e-8, fired.append, "boundary")
        eng.call_at(2e-8, fired.append, "late")
        eng.advance_to(1e-8)  # == peek(): allowed
        assert eng.now == 1e-8
        assert fired == []  # the jump itself runs nothing
        eng.run()
        assert fired == ["boundary", "late"]

    def test_jump_past_pending_event_rejected(self, factory):
        from repro.errors import SimulationError
        eng = factory()
        eng.call_at(1e-8, lambda *_: None)
        with pytest.raises(SimulationError, match="skip a pending event"):
            eng.advance_to(1e-8 + 1e-12)

    def test_cancelled_event_does_not_block_jump(self, factory):
        eng = factory()
        eng.call_at(1e-9, lambda *_: None).cancel()
        eng.call_at(1e-8, lambda *_: None)
        eng.advance_to(5e-9)  # cancelled 1e-9 entry is dead, not pending
        assert eng.now == 5e-9

    def test_matches_reference(self, factory):
        ref, cur = ReferenceEngine(), factory()
        out_ref, out_cur = [], []
        for eng, out in ((ref, out_ref), (cur, out_cur)):
            for t in (3e-9, 3e-9, 7e-9):
                eng.call_at(t, out.append, t)
            eng.advance_to(3e-9)
            eng.run()
        assert out_cur == out_ref
        assert repr(cur.now) == repr(ref.now)


# --------------------------------------------------------------------- #
# peek() must not mutate observable state (satellite: shared _pop_live)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("factory", BACKENDS)
def test_peek_is_pure(factory):
    eng = factory()
    eng.call_after(2e-9, lambda: None)
    h = eng.call_after(1e-9, lambda: None)
    h.cancel()
    first = eng.peek()
    assert first == 2e-9
    for _ in range(3):  # repeated peeks agree and change nothing
        assert eng.peek() == first
    live = eng.pending - eng.pending_cancelled
    assert live == 1
    eng.run()
    assert eng.events_executed == 1
