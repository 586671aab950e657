"""Unit tests for the discrete-event kernel."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import Engine, Event
from repro.sim.process import Process


class TestScheduling:
    def test_events_fire_in_time_order(self):
        eng = Engine()
        fired = []
        eng.call_after(3e-6, fired.append, "c")
        eng.call_after(1e-6, fired.append, "a")
        eng.call_after(2e-6, fired.append, "b")
        eng.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        eng = Engine()
        fired = []
        for tag in range(10):
            eng.call_at(5e-6, fired.append, tag)
        eng.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self):
        eng = Engine()
        seen = []
        eng.call_after(7e-6, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [pytest.approx(7e-6)]

    def test_call_soon_runs_at_current_time(self):
        eng = Engine()
        eng.call_after(2e-6, lambda: eng.call_soon(lambda: times.append(eng.now)))
        times = []
        eng.run()
        assert times == [pytest.approx(2e-6)]

    def test_scheduling_in_past_rejected(self):
        eng = Engine()
        eng.call_after(1e-6, lambda: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.call_at(0.5e-6, lambda: None)

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.call_after(-1e-9, lambda: None)

    def test_non_finite_time_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.call_at(math.inf, lambda: None)

    def test_cancel_prevents_firing(self):
        eng = Engine()
        fired = []
        h = eng.call_after(1e-6, fired.append, "x")
        h.cancel()
        eng.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        eng = Engine()
        h = eng.call_after(1e-6, lambda: None)
        h.cancel()
        h.cancel()
        eng.run()

    def test_run_until_stops_clock_at_horizon(self):
        eng = Engine()
        fired = []
        eng.call_after(5e-6, fired.append, "late")
        t = eng.run(until=2e-6)
        assert t == pytest.approx(2e-6)
        assert fired == []
        eng.run()
        assert fired == ["late"]

    def test_run_until_advances_clock_when_drained(self):
        eng = Engine()
        eng.call_after(1e-6, lambda: None)
        t = eng.run(until=9e-6)
        assert t == pytest.approx(9e-6)

    def test_stop_exits_run_loop(self):
        eng = Engine()
        fired = []
        eng.call_after(1e-6, lambda: (fired.append(1), eng.stop()))
        eng.call_after(2e-6, fired.append, 2)
        eng.run()
        assert fired == [1]

    def test_max_events_guard(self):
        eng = Engine()

        def rearm():
            eng.call_after(1e-9, rearm)

        rearm()
        with pytest.raises(SimulationError):
            eng.run(max_events=100)

    def test_max_events_boundary_is_exact(self):
        """The guard fires *before* the offending event: run(max_events=N)
        executes exactly N callbacks and the counter agrees (regression:
        the counter used to be bumped before the guard, overcounting by
        one while executing one fewer)."""
        eng = Engine()
        count = []

        def rearm():
            count.append(1)
            eng.call_after(1e-9, rearm)

        eng.call_after(1e-9, rearm)
        with pytest.raises(SimulationError):
            eng.run(max_events=10)
        assert len(count) == 10
        assert eng.events_executed == 10

    def test_max_events_allows_exactly_n(self):
        eng = Engine()
        for _ in range(10):
            eng.call_after(1e-6, lambda: None)
        eng.run(max_events=10)  # exactly at the limit: no raise
        assert eng.events_executed == 10

    def test_events_executed_counter(self):
        eng = Engine()
        for _ in range(5):
            eng.call_after(1e-6, lambda: None)
        eng.run()
        assert eng.events_executed == 5

    def test_peek_skips_cancelled(self):
        eng = Engine()
        h = eng.call_after(1e-6, lambda: None)
        eng.call_after(2e-6, lambda: None)
        h.cancel()
        assert eng.peek() == pytest.approx(2e-6)

    def test_peek_empty_is_inf(self):
        assert Engine().peek() == math.inf


class TestEvent:
    def test_succeed_delivers_value_to_callbacks(self):
        eng = Engine()
        ev = eng.event()
        got = []
        ev.add_callback(got.append)
        ev.succeed(42)
        assert got == [42]

    def test_callback_after_trigger_runs_immediately(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed("v")
        got = []
        ev.add_callback(got.append)
        assert got == ["v"]

    def test_double_trigger_raises(self):
        eng = Engine()
        ev = eng.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_timeout_event(self):
        eng = Engine()
        ev = eng.timeout(4e-6, "done")
        got = []
        ev.add_callback(lambda v: got.append((eng.now, v)))
        eng.run()
        assert got == [(pytest.approx(4e-6), "done")]


class TestProcess:
    def test_sleep_and_resume(self):
        eng = Engine()
        marks = []

        def proc():
            marks.append(eng.now)
            yield 2e-6
            marks.append(eng.now)
            yield 3e-6
            marks.append(eng.now)

        Process(eng, proc())
        eng.run()
        assert marks == [pytest.approx(0.0), pytest.approx(2e-6), pytest.approx(5e-6)]

    def test_wait_event_returns_value(self):
        eng = Engine()
        ev = eng.event()
        got = []

        def proc():
            v = yield ev
            got.append(v)

        Process(eng, proc())
        eng.call_after(1e-6, ev.succeed, "payload")
        eng.run()
        assert got == ["payload"]

    def test_process_result_and_done_event(self):
        eng = Engine()

        def proc():
            yield 1e-6
            return 123

        p = Process(eng, proc())
        eng.run()
        assert p.done
        assert p.result == 123
        assert p.done_event.value == 123

    def test_process_joins_process(self):
        eng = Engine()
        order = []

        def child():
            yield 5e-6
            order.append("child")
            return "c"

        def parent():
            v = yield Process(eng, child())
            order.append(f"parent:{v}")

        Process(eng, parent())
        eng.run()
        assert order == ["child", "parent:c"]

    def test_non_generator_rejected(self):
        eng = Engine()
        with pytest.raises(SimulationError):
            Process(eng, lambda: None)  # type: ignore[arg-type]

    def test_negative_yield_rejected(self):
        eng = Engine()

        def proc():
            yield -1.0

        Process(eng, proc())
        with pytest.raises(SimulationError):
            eng.run()

    def test_yield_none_reschedules_same_time(self):
        eng = Engine()
        times = []

        def proc():
            times.append(eng.now)
            yield None
            times.append(eng.now)

        Process(eng, proc())
        eng.run()
        assert times == [0.0, 0.0]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build():
            eng = Engine()
            out = []

            def proc(tag, delay):
                for i in range(3):
                    yield delay
                    out.append((round(eng.now * 1e9), tag, i))

            for tag, d in [("a", 1.1e-6), ("b", 0.7e-6), ("c", 1.3e-6)]:
                Process(eng, proc(tag, d))
            eng.run()
            return out

        assert build() == build()
