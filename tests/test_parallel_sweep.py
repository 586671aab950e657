"""The deterministic process-pool sweep runner.

The contract under test: ``run_sweep`` at any job count returns exactly
what sequential execution returns — same values, same order.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

from repro.parallel import (
    JOBS_ENV,
    SweepPoint,
    resolve_jobs,
    run_sweep,
)

_RUN_ALL = (pathlib.Path(__file__).parent.parent / "benchmarks"
            / "run_all.py")


def _load_run_all():
    spec = importlib.util.spec_from_file_location("run_all", _RUN_ALL)
    mod = importlib.util.module_from_spec(spec)
    # registered so the pool can pickle run_all functions by reference
    sys.modules["run_all"] = mod
    spec.loader.exec_module(mod)
    return mod


# module-level point functions: picklable for the worker processes
def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"boom {x}")


# --------------------------------------------------------------------- #
# job-count resolution
# --------------------------------------------------------------------- #
class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "8")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs() == 5
        monkeypatch.delenv(JOBS_ENV)
        assert resolve_jobs() == 1

    def test_nonpositive_means_all_cores(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) >= 1

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ValueError, match=JOBS_ENV):
            resolve_jobs()


# --------------------------------------------------------------------- #
# the sweep runner
# --------------------------------------------------------------------- #
class TestRunSweep:
    def test_submission_order_preserved(self):
        xs = list(range(20))
        points = [SweepPoint(_square, (x,)) for x in xs]
        assert run_sweep(points, jobs=1) == [x * x for x in xs]

    def test_parallel_matches_sequential(self):
        xs = list(range(12))
        seq = run_sweep([SweepPoint(_square, (x,)) for x in xs], jobs=1)
        par = run_sweep([SweepPoint(_square, (x,)) for x in xs], jobs=3)
        assert par == seq

    def test_lambda_rejected_in_parallel_mode(self):
        pts = [SweepPoint(lambda: 1), SweepPoint(lambda: 2)]
        with pytest.raises(ValueError, match="lambda"):
            run_sweep(pts, jobs=2)
        # sequential mode runs them fine (no pickling involved)
        assert run_sweep(pts, jobs=1) == [1, 2]

    def test_worker_exception_propagates(self):
        pts = [SweepPoint(_boom, (1,)), SweepPoint(_boom, (2,))]
        with pytest.raises(ValueError, match="boom"):
            run_sweep(pts, jobs=2)

    def test_single_point_skips_the_pool(self):
        assert run_sweep([SweepPoint(_square, (9,))], jobs=4) == [81]

    def test_pool_that_cannot_start_raises(self, monkeypatch):
        """No silent sequential fallback: a ``jobs=2`` run either has its
        workers or fails."""
        from repro.parallel import sweep

        def no_pool():
            raise OSError("fork forbidden")

        monkeypatch.setattr(sweep, "_pool_context", no_pool)
        with pytest.raises(OSError, match="fork forbidden"):
            run_sweep([SweepPoint(_square, (x,)) for x in range(3)], jobs=2)


# --------------------------------------------------------------------- #
# run_all.py integration: --jobs and the baseline comparison
# --------------------------------------------------------------------- #
class TestRunAllJobs:
    def test_parallel_rounds_match_sequential(self, monkeypatch):
        ra = _load_run_all()
        monkeypatch.setitem(ra.BENCHMARKS, "toy", _toy_bench)
        seq = ra.run_benchmark("toy", rounds=3)
        points = [ra.SweepPoint(ra._run_round, ("toy",))
                  for _ in range(3)]
        par = ra._aggregate("toy", ra.run_sweep(points, jobs=2))
        assert par["checksum"] == seq["checksum"]
        assert par["sim"] == seq["sim"]

    def test_report_records_jobs(self, monkeypatch):
        ra = _load_run_all()
        monkeypatch.setattr(ra, "BENCHMARKS", {"toy": _toy_bench})
        report = ra.run_all(rounds=2, label="t", jobs=1)
        assert report["jobs"] == 1
        assert set(report["benchmarks"]) == {"toy"}

    def test_compare_flags_benchmark_missing_from_baseline(self):
        ra = _load_run_all()
        base = {"schema": ra.SCHEMA, "benchmarks": {
            "old": {"checksum": "sha256:aaa"}}}
        cur = {"schema": ra.SCHEMA, "benchmarks": {
            "old": {"checksum": "sha256:aaa"},
            "new": {"checksum": "sha256:bbb"}}}
        fails = ra.compare(cur, base)
        assert len(fails) == 1
        assert "new" in fails[0]
        assert "--rebase" in fails[0]

    def test_compare_survives_malformed_baseline_entry(self):
        ra = _load_run_all()
        base = {"schema": ra.SCHEMA, "benchmarks": {"b": {}}}  # no checksum
        cur = {"schema": ra.SCHEMA, "benchmarks": {
            "b": {"checksum": "sha256:aaa"}}}
        fails = ra.compare(cur, base)
        assert len(fails) == 1 and "checksum drifted" in fails[0]

    def test_committed_baseline_covers_every_benchmark(self):
        import json
        ra = _load_run_all()
        base = json.loads(
            (_RUN_ALL.parent / "BENCH_baseline.json").read_text())
        assert set(base["benchmarks"]) == set(ra.BENCHMARKS)


def _toy_bench() -> dict[str, float]:
    return {"m": 1.25, "n": 2.5}
