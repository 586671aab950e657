"""The shared environment-variable helpers (:mod:`repro._env`).

Every boolean knob in the repo parses through ``env_flag`` so that
``REPRO_X=0`` means *off* everywhere — string truthiness treated "0",
"false" and friends as enabled, which is the bug class these helpers
retired.
"""

import pytest

from repro._env import env_flag, env_int


class TestEnvFlag:
    @pytest.mark.parametrize("value", ["1", "true", "TRUE", "yes", "on",
                                       " 1 ", "anything-else"])
    def test_truthy(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAG", value)
        assert env_flag("REPRO_TEST_FLAG") is True

    @pytest.mark.parametrize("value", ["", "0", "false", "False", "FALSE",
                                       "no", "off", " 0 ", " off "])
    def test_falsey(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAG", value)
        assert env_flag("REPRO_TEST_FLAG") is False

    def test_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        assert env_flag("REPRO_TEST_FLAG") is False


class TestEnvInt:
    def test_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "7")
        assert env_int("REPRO_TEST_INT") == 7

    def test_unset_and_empty_use_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_INT", raising=False)
        assert env_int("REPRO_TEST_INT") is None
        assert env_int("REPRO_TEST_INT", 4) == 4
        monkeypatch.setenv("REPRO_TEST_INT", "")
        assert env_int("REPRO_TEST_INT", 4) == 4

    def test_garbage_raises_with_context(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "lots")
        with pytest.raises(ValueError, match="REPRO_TEST_INT"):
            env_int("REPRO_TEST_INT")


class TestRoutedFlags:
    """The repo's own knobs go through the helpers (regression pins)."""

    def test_sanitize_zero_off(self, monkeypatch):
        from repro import sanitize
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize.sanitize_requested()

    def test_observe_zero_off(self, monkeypatch):
        from repro import observe
        monkeypatch.setenv("REPRO_OBSERVE", "0")
        assert not observe.observe_requested()

    def test_bench_jobs_env(self, monkeypatch):
        from repro.parallel.sweep import JOBS_ENV, resolve_jobs
        monkeypatch.setenv(JOBS_ENV, "3")
        assert resolve_jobs(None) == 3
        monkeypatch.setenv(JOBS_ENV, "")
        assert resolve_jobs(None) == 1
        monkeypatch.delenv(JOBS_ENV)
        assert resolve_jobs(None) == 1
