"""``Engine.run`` keeps the cyclic collector out of the event loop.

One helper (``Engine._collector_paused``) wraps all three loops — the
compiled core's, the pure-Python one and ``ShardedEngine``'s — and leaves
the collector exactly as it found it on every way out.  What makes the
pause safe is ``tests/test_no_cyclic_garbage.py``: no message path builds
a reference cycle, so there is nothing for a pass inside the loop to find.
"""

import gc

import pytest

from repro.errors import SimulationError
from repro.parallel import ShardedEngine
from repro.sim import Engine


class _PureEngine(Engine):
    """A subclass never binds the compiled core: the pure-Python loop."""


ENGINES = {
    "core": Engine,
    "pure": _PureEngine,
    "sharded": lambda: ShardedEngine(n_shards=2, lookahead=1e-6),
}


@pytest.fixture(params=sorted(ENGINES))
def engine(request):
    eng = ENGINES[request.param]()
    if request.param == "core" and eng._core is None:
        pytest.skip("compiled core not bound (REPRO_PURE_ENGINE=1, or no "
                    "compiler): 'pure' covers this loop")
    assert (eng._core is not None) == (request.param == "core")
    return eng


@pytest.fixture(autouse=True)
def collector_state():
    """Tests here switch the collector off; never leak that."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _passes():
    return [gen["collections"] for gen in gc.get_stats()]


def _churn():
    """Far more tracked allocations than any generation-0 threshold."""
    return [[] for _ in range(50_000)]


def _arm_probed_churn(eng, seen):
    def probe():
        seen.append((gc.isenabled(), _passes()))

    eng.call_at(0.0, probe)
    for i in range(1, 4):
        eng.call_at(i * 1e-6, _churn)
    eng.call_at(1e-5, probe)


def test_no_pass_inside_the_loop_and_enabled_stays_enabled(engine):
    assert gc.isenabled()
    seen = []
    _arm_probed_churn(engine, seen)
    engine.run()
    (first_on, first), (last_on, last) = seen
    assert not first_on and not last_on
    assert last == first, "a collector pass ran inside Engine.run()"
    assert gc.isenabled()
    assert engine.collector_stats() == {
        "runs": 1, "paused_runs": 1, "passes_in_run": (0, 0, 0)}
    # the same churn outside the loop does wake the collector
    before = _passes()
    _churn()
    assert _passes() != before


def test_disabled_stays_disabled(engine):
    gc.disable()
    seen = []
    _arm_probed_churn(engine, seen)
    engine.run()
    assert [on for on, _ in seen] == [False, False]
    assert not gc.isenabled()
    assert engine.collector_stats() == {
        "runs": 1, "paused_runs": 0, "passes_in_run": (0, 0, 0)}


@pytest.mark.parametrize("was_enabled", [True, False])
def test_state_restored_when_the_runaway_guard_raises(engine, was_enabled):
    if not was_enabled:
        gc.disable()

    def again():
        engine.call_after(1e-9, again)

    engine.call_at(engine.now, again)
    with pytest.raises(SimulationError, match="max_events"):
        engine.run(max_events=10)
    assert gc.isenabled() is was_enabled


def test_state_restored_when_a_callback_raises(engine):
    def boom():
        raise RuntimeError("handler bug")

    engine.call_at(engine.now, boom)
    with pytest.raises(RuntimeError, match="handler bug"):
        engine.run()
    assert gc.isenabled()


def test_a_forced_pass_inside_the_loop_is_counted(engine):
    engine.call_at(engine.now, gc.collect)
    engine.run()
    assert engine.collector_stats()["passes_in_run"] == (0, 0, 1)
    assert gc.isenabled()


def test_inner_run_of_another_engine_leaves_the_outer_loop_paused(engine):
    inner = Engine()
    inner.call_at(inner.now, _churn)
    seen = []

    def drain_inner():
        inner.run()
        seen.append(gc.isenabled())

    engine.call_at(engine.now, drain_inner)
    engine.run()
    assert seen == [False]
    assert inner.collector_stats()["paused_runs"] == 0
    assert gc.isenabled()
