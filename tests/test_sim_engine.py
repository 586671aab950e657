"""Unit tests for the discrete-event kernel."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import Engine


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

    def test_call_at_now_runs_at_current_time(self):
        eng = Engine()
        eng.call_after(2e-6, lambda: eng.call_at(eng.now,
                                                 lambda: times.append(eng.now)))
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


class TestSurface:
    """The engine keeps only the verbs the simulator calls, in both lanes."""

    def test_package_exports(self):
        import repro.sim
        assert repro.sim.__all__ == ["Engine", "EventHandle", "RngRegistry"]

    def test_public_methods(self):
        assert sorted(n for n, v in vars(Engine).items()
                      if callable(v) and not n.startswith("_")) == [
            "advance_to", "call_after", "call_after_batch", "call_at",
            "call_at_node", "collector_stats", "peek", "post_at",
            "post_at_node", "run", "step", "stop"]

    def test_core_forwards_only_what_the_core_has(self):
        from repro.sim import _speed
        from repro.sim.engine import _CORE_FORWARDED
        assert len(_CORE_FORWARDED) == 8
        if _speed.core is not None:
            core = {n for n in dir(_speed.core.EngineCore)
                    if not n.startswith("__")}
            assert core == set(_CORE_FORWARDED) | {
                "_set_now", "post_many", "run", "now", "pending",
                "pending_cancelled", "events_executed"}


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build():
            eng = Engine()
            out = []

            def tick(tag, delay, i):
                out.append((round(eng.now * 1e9), tag, i))
                if i < 2:
                    eng.call_after(delay, tick, tag, delay, i + 1)

            for tag, d in [("a", 1.1e-6), ("b", 0.7e-6), ("c", 1.3e-6)]:
                eng.call_after(d, tick, tag, d, 0)
            eng.run()
            return out

        assert build() == build()
