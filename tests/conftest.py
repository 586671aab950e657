"""Shared pytest wiring: the lifecycle-sanitizer guard, a fixture that
keeps the runtimes the apps build referenced, and no silent engine lane.

When the suite runs under ``REPRO_SANITIZE=1`` every test's machines build
a :class:`repro.sanitize.Sanitizer`, and this guard fails any test whose
sanitizers recorded a violation during the run.  Tests that *seed*
violations on purpose opt out with ``@pytest.mark.sanitize_violations``.

Plain pytest hooks (not an autouse fixture) keep hypothesis's
``function_scoped_fixture`` health check quiet for the property tests.
"""

import warnings

import pytest

# a C core that failed to build is an error here, not a quiet change of
# lane; set before the first repro import, where repro.sim._speed warns
warnings.filterwarnings("error", message="repro.sim._speedups unavailable",
                        category=RuntimeWarning)

import repro.apps.kneighbor
import repro.apps.minimd.app
import repro.apps.nqueens.app
import repro.apps.pingpong
from repro import sanitize
from repro.lrts.factory import make_runtime


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "sanitize_violations: this test intentionally triggers lifecycle "
        "sanitizer violations; the sanitizer guard must not fail it",
    )


def pytest_runtest_setup(item):
    # every test starts with a clean slate of tracked sanitizers
    sanitize.clear_registry()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item, nextitem):
    # wrap so pytest's own teardown (fixture finalizers, SetupState pops)
    # completes before the guard can fail the test
    result = yield
    sanitizers = sanitize.active_sanitizers()
    problems = sanitize.collect()
    sanitize.clear_registry()
    if (sanitizers and problems
            and item.get_closest_marker("sanitize_violations") is None):
        lines = "\n".join(f"  {v}" for v in problems)
        pytest.fail(
            f"lifecycle sanitizer recorded {len(problems)} violation(s) "
            f"during this test:\n{lines}",
            pytrace=False,
        )
    return result


@pytest.fixture
def held_runtimes(monkeypatch):
    """The ``(conv, lrts)`` runtimes the app entry points build while the
    test runs, kept referenced until the test clears the list: a finished
    runtime is one big cycle, and tests that count what a run leaves
    behind must not have it collected under them."""
    held = []

    def recording_make_runtime(*args, **kwargs):
        held.append(make_runtime(*args, **kwargs))
        return held[-1]

    for app in (repro.apps.kneighbor, repro.apps.pingpong,
                repro.apps.minimd.app, repro.apps.nqueens.app):
        monkeypatch.setattr(app, "make_runtime", recording_make_runtime)
    return held
