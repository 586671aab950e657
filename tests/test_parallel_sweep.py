"""The deterministic process-pool sweep runner and spawn-key seeding.

The contract under test: ``run_sweep`` at any job count returns exactly
what sequential execution returns — same values, same order, same
derived seeds — and ``spawn_seed`` is a pure function of (root seed,
spawn key) with no dependence on scheduling.
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
    spawn_seed,
    sweep_map,
)
from repro.sim.rng import RngRegistry

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


def _tag(x: int, seed: int = -1) -> tuple[int, int]:
    return (x, seed)


def _boom(x: int) -> int:
    raise ValueError(f"boom {x}")


# --------------------------------------------------------------------- #
# spawn-key seeding
# --------------------------------------------------------------------- #
class TestSpawnSeed:
    def test_pure_function_of_root_and_key(self):
        assert spawn_seed(0, "a") == spawn_seed(0, "a")
        assert spawn_seed(0, "a") != spawn_seed(1, "a")
        assert spawn_seed(0, "a") != spawn_seed(0, "b")
        assert spawn_seed(0, 1, "a") != spawn_seed(0, "a", 1)

    def test_range_fits_a_signed_64bit_seed(self):
        for key in range(200):
            s = spawn_seed(42, key)
            assert 0 <= s < 2 ** 63

    def test_key_parts_are_separated(self):
        # ("ab", "c") and ("a", "bc") must not collide via concatenation
        assert spawn_seed(0, "ab", "c") != spawn_seed(0, "a", "bc")

    def test_registry_spawn_derives_independent_registry(self):
        reg = RngRegistry(7)
        child_a = reg.spawn("worker", 0)
        child_b = reg.spawn("worker", 1)
        assert child_a.root_seed == spawn_seed(7, "worker", 0)
        assert child_b.root_seed != child_a.root_seed
        # spawning must not perturb the parent
        assert reg.root_seed == 7


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

    def test_sweep_map_equivalence(self):
        xs = [3, 1, 4, 1, 5]
        assert sweep_map(_square, [(x,) for x in xs]) == [x * x for x in xs]

    def test_root_seed_injection_is_deterministic(self):
        def mk():
            return [SweepPoint(_tag, (i,), label=f"p{i}") for i in range(6)]

        a = run_sweep(mk(), jobs=1, root_seed=123)
        b = run_sweep(mk(), jobs=2, root_seed=123)
        assert a == b
        # derived seeds are the documented pure function of (root, index, label)
        assert a[0] == (0, spawn_seed(123, 0, "p0"))
        assert a[5] == (5, spawn_seed(123, 5, "p5"))
        # different root seed -> different derived seeds, same values
        c = run_sweep(mk(), jobs=1, root_seed=124)
        assert [x for x, _ in c] == [x for x, _ in a]
        assert [s for _, s in c] != [s for _, s in a]

    def test_explicit_seed_kwarg_is_kept(self):
        pts = [SweepPoint(_tag, (0,), kwargs={"seed": 99})]
        assert run_sweep(pts, jobs=1, root_seed=5) == [(0, 99)]

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
