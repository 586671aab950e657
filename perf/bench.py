#!/usr/bin/env python3
"""The host-time benchmark: seven workloads, end to end and layer by layer.

    python perf/bench.py                        every workload, end to end
    python perf/bench.py --trace 1              every workload's per-layer ledger
    python perf/bench.py --workload knb_small   one workload (the driver's form)
    python perf/bench.py --layers               the layer probes alone, 0.5 s windows
    python perf/bench.py --quick                1/10 of the iterations, one repeat
    python perf/bench.py --compare A.json B.json
    python perf/bench.py --agree                two sets of this tree must agree

Every metric is printed by name with its unit; the same numbers are
written to ``perf/out/`` as JSON, and the last line of stdout is the
result object the driver's contract asks for.  See ``perf/README.md``.

This process only orchestrates.  Every measurement runs in a fresh child
(``child.py``), one child at a time - the box has two cores and a second
busy process is exactly the noise being avoided.  The box also has a
neighbour: for seconds to minutes at a time everything runs ~1.3x slower,
longer than a run lasts, so even the fastest of seven repeats differed by
25 % between runs.  Each child therefore times slices of a fixed
calibration loop *during* the workload call, timing metrics are scaled to
reference speed (``CAL_REF_S``) repeat by repeat, and a run reports the
*median* of its calibrated repeats; raw seconds are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import compare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: a run has at least this many fresh-process repeats, however short
MIN_REPEATS = 3
#: ``child.calibration_slice()`` on this box with nothing else running;
#: timing metrics read as CPU seconds of a box where a slice takes this long
CAL_REF_S = 0.0094
#: extra repeats granted to an unsettled workload - one whose calibrated
#: repeats have quartiles further apart than the bound on ``host_s``, the
#: very change the gate looks for (never in the driver's form, whose run
#: length is fixed)
EXTRA_REPEATS = 3
#: --quick divides iteration counts by this
QUICK_DIV = 10
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child(mode: str, **options: object) -> dict:
    """Run one ``child.py`` measurement and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, os.path.join(HERE, "child.py"), mode]
    for key, value in options.items():
        argv += [f"--{key}", str(value)]
    argv += ["--spawned", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perf: child {mode} {options} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def header() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    # untimed pre-flight: the first import builds the C core
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, **child("preflight")}


# --------------------------------------------------------------------- #
# end to end
# --------------------------------------------------------------------- #
def calibrated(sample: dict) -> dict:
    """``host_s`` and ``setup_s`` of one repeat at reference speed."""
    return {"host_s": sample["host_s"] * CAL_REF_S / sample["host_cal_s"],
            "setup_s": sample["setup_s"] * CAL_REF_S / sample["setup_cal_s"]}


def settled(host_s: list[float], bound: float) -> bool:
    if len(host_s) < 2:
        return True
    q1, med, q3 = statistics.quantiles(host_s, n=4)
    return (q3 - q1) / med <= bound


def measure(names: list[str], seed: int, seconds: float, div: int,
            min_repeats: int, extra: int, bound: float) -> dict[str, list[dict]]:
    """Fresh-process repeats, round-robin over ``names`` so that a noisy
    phase of the box does not land on all repeats of one workload.  Each
    workload repeats until it has been measured for ``seconds``."""
    samples: dict[str, list[dict]] = {n: [] for n in names}
    spent = {n: 0.0 for n in names}
    extras = {n: extra for n in names}

    def wants_more(name: str) -> bool:
        got = samples[name]
        if len(got) < min_repeats or spent[name] < seconds:
            return True
        if extras[name] > 0 and not settled(
                [calibrated(s)["host_s"] for s in got], bound):
            extras[name] -= 1
            return True
        return False

    while True:
        todo = [n for n in names if wants_more(n)]
        if not todo:
            return samples
        for name in todo:
            t0 = time.perf_counter()
            samples[name].append(
                child("run", workload=name, seed=seed, div=div))
            spent[name] += time.perf_counter() - t0


def spread(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else [values[0]] * 3)
    return {"min": min(values), "q1": q1, "median": med, "q3": q3,
            "max": max(values), "all": values}


def summarize(samples: list[dict], bound: float) -> dict:
    """One workload's repeats -> metrics, spreads and check tallies."""
    cal = [calibrated(s) for s in samples]
    host = [c["host_s"] for c in cal]
    checks = [(name, ok) for s in samples for name, ok in s["checks"].items()]
    checks.append(("sim_checksum_same_on_every_repeat",
                   len({s["sim_checksum"] for s in samples}) == 1))
    failed = sorted({name for name, ok in checks if not ok})
    app_msgs = samples[0]["app_msgs"]
    return {
        "end_to_end": {
            "host_s": statistics.median(host),
            "msgs_per_s": app_msgs / statistics.median(host),
            "setup_s": statistics.median(c["setup_s"] for c in cal),
            "peak_rss_mb": statistics.median(
                s["peak_rss_mb"] for s in samples),
        },
        "repeats": len(samples),
        "settled": settled(host, bound),
        "app_msgs": app_msgs,
        "sim_checksum": samples[0]["sim_checksum"],
        "c_core_bound": all(s["c_core_bound"] for s in samples),
        "checks_attempted": len(checks),
        "checks_failed": len([1 for _n, ok in checks if not ok]),
        "failed_checks": failed,
        "spread": {
            "host_s": spread(host),
            "setup_s": spread([c["setup_s"] for c in cal]),
            **{f"raw.{k}": spread([s[k] for s in samples])
               for k in ("host_s", "wall_s", "setup_s", "setup_wall_s",
                         "host_cal_s", "setup_cal_s", "peak_rss_mb")},
        },
    }


def print_end_to_end(name: str, res: dict, spec: dict) -> None:
    state = "settled" if res["settled"] else "UNSETTLED"
    print(f"\n== {name}: {res['repeats']} repeats, {state}, "
          f"app_msgs {res['app_msgs']}, c_core_bound {res['c_core_bound']}")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<14}{res['end_to_end'][m['name']]:>16.6f} "
              f"{m['unit']:<6} ({m['better']} is better, "
              f"bound {m['bound']:.0%})")
    share = res["checks_failed"] / res["checks_attempted"]
    print(f"  {'check_fail_share':<14}{share:>16.6f} share  "
          f"({res['checks_failed']} of {res['checks_attempted']} checks"
          f"{': ' + ', '.join(res['failed_checks']) if share else ''})")
    for key, s in res["spread"].items():
        print(f"    {key:<17} min {s['min']:.4f}  q1 {s['q1']:.4f}  median "
              f"{s['median']:.4f}  q3 {s['q3']:.4f}  max {s['max']:.4f}")
    print(f"    sim_checksum  {res['sim_checksum']}")


# --------------------------------------------------------------------- #
# per layer
# --------------------------------------------------------------------- #
def probe_window(seconds: float) -> float:
    """Seconds per timed probe pass: 0.5 s given time, less in a short run."""
    return max(0.05, min(0.5, seconds / 300))


def ledger(name: str, seed: int) -> dict:
    res = child("trace", workload=name, seed=seed)
    res["checks_attempted"] = len(res["checks"])
    res["failed_checks"] = sorted(k for k, ok in res["checks"].items()
                                  if not ok)
    res["checks_failed"] = len(res["failed_checks"])
    return res


def print_per_layer(title: str, metrics: dict[str, float], spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"\n== {title}")
    for key, value in metrics.items():
        print(f"  {key:<36}{value:>18.6f} {units[key]}")


# --------------------------------------------------------------------- #
def write_report(report: dict, label: str) -> str:
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"report_{label}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    return path


def end_to_end(names: list[str], seed: int, seconds: float, spec: dict,
               quick: bool = False, extra: int = 0) -> dict[str, dict]:
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "host_s")
    samples = measure(names, seed, 0 if quick else seconds,
                      QUICK_DIV if quick else 1, 1 if quick else MIN_REPEATS,
                      extra, bound)
    results = {}
    for name in names:
        results[name] = summarize(samples[name], bound)
        print_end_to_end(name, results[name], spec)
    return results


def per_layer(names: list[str], seed: int, spec: dict) -> dict[str, dict]:
    results = {}
    for name in names:
        res = results[name] = ledger(name, seed)
        print_per_layer(f"{name}: traced run and counters", res["metrics"],
                        spec)
        print(f"    traced {res['traced_us_per_msg']:.3f} us/msg, layer self "
              f"times sum to {res['self_us_per_msg_sum']:.3f}; spans in "
              f"{res['trace_file']}")
    return results


def layer_probes(window: float, spec: dict) -> dict[str, float]:
    metrics = child("layers", window=window)["metrics"]
    print_per_layer("layer probes", metrics, spec)
    return metrics


def new_report(seed: int, seconds: float) -> dict:
    report = {"header": header(), "seed": seed, "seconds": seconds,
              "workloads": {}}
    print("perf: python {python}, nproc {nproc}, commit {commit}, "
          "sim.c_core_bound {c_core_bound}".format(**report["header"]))
    return report


def contract_line(report: dict, trace: bool, spec: dict) -> dict:
    """The driver's result object for a one-workload report."""
    (res,) = report["workloads"].values()
    if trace:
        values = {**res["metrics"], **report["layers"]}
        section = spec["per_layer"]
    else:
        values = res["end_to_end"]
        section = spec["end_to_end"]
    return {
        "correct": res["checks_failed"] == 0,
        "attempted": res["checks_attempted"],
        "failed": res["checks_failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
    }


def agree(names: list[str], seed: int, seconds: float, spec: dict) -> bool:
    """Two full sets of the current tree must agree within the bounds."""
    reports = []
    for label in ("agree_a", "agree_b"):
        report = new_report(seed, seconds)
        report["workloads"] = end_to_end(names, seed, seconds, spec,
                                         extra=EXTRA_REPEATS)
        for name, res in per_layer(names, seed, spec).items():
            merged = report["workloads"][name]
            merged["metrics"] = res["metrics"]
            for key in ("checks_attempted", "checks_failed", "failed_checks"):
                merged[key] += res[key]
        reports.append(report)
        print(f"\nperf: set written to {write_report(report, label)}")
    return compare.report(reports[0], reports[1], spec, strict=True)


def main() -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="how long each workload is measured")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the per-layer ledger instead of the timed repeats")
    ap.add_argument("--layers", action="store_true")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--label", default="local",
                    help="report goes to perf/out/report_<label>.json")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--agree", action="store_true")
    args = ap.parse_args()

    names = ([args.workload] if args.workload
             else [w["name"] for w in spec["workloads"]])
    if args.compare:
        with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
            return 0 if compare.report(json.load(fa), json.load(fb), spec) else 1
    if args.agree:
        return 0 if agree(names, args.seed, args.seconds, spec) else 1

    report = new_report(args.seed, args.seconds)
    if args.layers:
        report["layers"] = layer_probes(0.5, spec)
    elif args.trace:
        report["workloads"] = per_layer(names, args.seed, spec)
        report["layers"] = layer_probes(probe_window(args.seconds), spec)
    else:
        report["workloads"] = end_to_end(
            names, args.seed, args.seconds, spec, quick=args.quick,
            extra=0 if args.quick or args.workload else EXTRA_REPEATS)
    print(f"\nperf: report written to {write_report(report, args.label)}")
    if args.workload and not args.layers:
        print(json.dumps(contract_line(report, bool(args.trace), spec)))
    failed = sum(r["checks_failed"] for r in report["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
