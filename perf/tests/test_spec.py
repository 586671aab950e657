"""BENCHMARK.json against the contract's limits and against what
``bench.py`` actually prints."""

import json
import os
import re
import subprocess
import sys
import time

import compare
import workloads as W

from conftest import PERF, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def bench(*argv, timeout=170):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(PERF, "bench.py"),
                           *argv], capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)
    return proc, time.perf_counter() - t0


def test_spec_is_within_the_contract():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert s["paths"] == ["perf"]
    assert isinstance(s["run_seconds"], int) and 1 <= s["run_seconds"] <= 60
    assert [w["name"] for w in s["workloads"]] == list(W.WORKLOADS)
    names = ([w["name"] for w in s["workloads"]]
             + [m["name"] for m in s["end_to_end"] + s["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in s["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert w["why"] == W.WORKLOADS[w["name"]].why
    for m in s["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in s["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in s["end_to_end"] + s["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert 1 <= len(s["per_layer"]) <= 128
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])
    # the driver's budget: 4 + 22 x workloads runs, set-up included
    runs = 4 + 22 * len(s["workloads"])
    assert runs * (s["run_seconds"] + 5) <= 3420


def test_quick_pass_prints_every_end_to_end_name_in_a_minute():
    proc, elapsed = bench("--quick", "--label", "test_quick")
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60
    s = spec()
    for w in s["workloads"]:
        assert f"== {w['name']}:" in proc.stdout
    for m in s["end_to_end"]:
        lines = re.findall(rf"^  {m['name']} +[0-9.]+ {m['unit']} ",
                           proc.stdout, re.M)
        assert len(lines) == len(s["workloads"])
    assert "check_fail_share" in proc.stdout
    assert "UNSETTLED" not in proc.stdout  # one repeat cannot be unsettled


def test_traced_run_prints_every_per_layer_name():
    proc, _ = bench("--workload", "knb_observed", "--seed", "3",
                    "--seconds", "1", "--trace", "1", "--label", "test_trace")
    assert proc.returncode == 0, proc.stderr
    s = spec()
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in s["per_layer"]]
    for m in s["per_layer"]:
        assert re.search(rf"^  {re.escape(m['name'])} +[-0-9.]+ "
                         rf"{re.escape(m['unit'])}$", proc.stdout, re.M), m
    got = result["metrics"]
    layers = [n[:-len(".self_us_per_msg")] for n in got
              if n.endswith(".self_us_per_msg")]
    assert sum(got[f"{layer}.self_us_per_msg"]["value"] for layer in layers) > 0
    # the workload's whole point: observer and sanitizer do real work
    assert got["observe.self_us_per_msg"]["value"] > 1
    assert got["sanitize.self_us_per_msg"]["value"] > 1
    assert got["lrts.mpi_layer.calls_per_msg"]["value"] == 0
    assert got["parallel.fallbacks"]["value"] == 0
    assert os.path.exists(os.path.join(PERF, "out", "trace_knb_observed.json"))


def test_driver_form_end_to_end_line():
    proc, _ = bench("--workload", "knb_observed", "--seed", "3",
                    "--seconds", "1", "--trace", "0", "--label", "test_e2e")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in spec()["end_to_end"]]
    assert result["correct"] and result["attempted"] >= 1
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perf/, fail loudly."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__",
                                                  ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perf/bench.py", "--workload", "knb_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# --------------------------------------------------------------------- #
def _report(host_s, settled=True, checksum="sha256:aa", failed=0, calls=9.0):
    return {"header": {"commit": "x"}, "workloads": {"w": {
        "end_to_end": {"host_s": host_s, "msgs_per_s": 1000 / host_s,
                       "setup_s": 0.3, "peak_rss_mb": 40.0},
        "settled": settled, "sim_checksum": checksum,
        "checks_attempted": 10, "checks_failed": failed,
        "failed_checks": ["x"] * failed,
        "metrics": {"converse.calls_per_msg": calls,
                    "converse.self_us_per_msg": 3.0}}}}


def test_compare_verdicts(capsys):
    s = spec()
    host = next(m for m in s["end_to_end"] if m["name"] == "host_s")
    assert compare.verdict(1.0, 1.0 + host["bound"] / 2, host, True) == "same"
    assert compare.verdict(1.0, 1.5, host, True) == "worse"
    assert compare.verdict(1.0, 0.5, host, True) == "better"
    assert compare.verdict(1.0, 1.5, host, False) == "unsettled"
    rss = next(m for m in s["end_to_end"] if m["name"] == "peak_rss_mb")
    assert compare.verdict(40.0, 80.0, rss, False) == "worse"

    assert compare.report(_report(1.0), _report(1.01), s)
    assert not compare.report(_report(1.0), _report(1.5), s)
    assert not compare.report(_report(1.0), _report(1.0, failed=1), s)
    # a faster B passes a comparison but two sets of one tree must agree
    assert compare.report(_report(1.0), _report(0.5), s)
    assert not compare.report(_report(1.0), _report(0.5), s, strict=True)
    assert not compare.report(_report(1.0), _report(1.0, settled=False), s,
                              strict=True)
    capsys.readouterr()
    assert compare.report(_report(1.0), _report(1.0, checksum="sha256:bb",
                                                calls=8.0), s)
    out = capsys.readouterr().out
    assert "sim_changed" in out
    assert "converse.calls_per_msg" in out and "9.000000 -> 8.000000" in out
    assert not compare.report(_report(1.0), _report(1.0, calls=8.0), s,
                              strict=True)
