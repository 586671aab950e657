#!/usr/bin/env python
"""The benchmark trajectory: one row per (commit, workload), appended to
``benchmarks/TRAJECTORY.jsonl``.

For each workload of ``BENCHMARK.json`` this runs the checkout's own
``perf/bench.py --workload W --label traj``, one child process at a time,
then a ``--trace 1`` pass of the same workload, and reads what they wrote
to ``perf/out/report_traj.json``.  A row holds the commit and its PR
number, the calibration slices, the median and quartiles of the four
end-to-end metrics, ``sim_checksum`` and every layer's
``<layer>.calls_per_msg`` from the traced pass, ``total`` among them.
Rows measured together on one box are comparable; each row names its box.

Usage::

    python benchmarks/trajectory.py                      # this checkout
    python benchmarks/trajectory.py --tree ../parent     # another checkout
    python benchmarks/trajectory.py --pr N               # uncommitted work
    python benchmarks/trajectory.py --trend
    python benchmarks/trajectory.py --trend --layers     # per-layer deltas

Rows are at ``perf/bench.py``'s default seed.  Any checkout can be
measured (a clone, archive or worktree of an older commit; it builds its
own C core).  A commit whose subject does not start ``PR <n>:`` (a
re-anchor, a revert) needs ``--pr``, and so does a checkout with
uncommitted changes under ``src``, ``perf`` or ``BENCHMARK.json``; the
latter's rows say ``"commit": null`` and the ``"base"`` they stand on,
and once a commit sits on top of ``base`` in this checkout's history,
the next run (``--trend`` too) gives them that commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "TRAJECTORY.jsonl")


def _git(tree: str, *args: str) -> str:
    return subprocess.run(["git", "-C", tree, *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def _bench(tree: str, workload: str, trace: int) -> dict:
    """One ``perf/bench.py`` run of ``tree``; its report, as written (a
    failed check exits non-zero and is counted in the row)."""
    report = os.path.join(tree, "perf", "out", "report_traj.json")
    if os.path.exists(report):
        os.unlink(report)
    subprocess.run(
        [sys.executable, os.path.join(tree, "perf", "bench.py"), "--workload",
         workload, "--trace", str(trace), "--label", "traj"],
        cwd=tree, stdout=subprocess.DEVNULL)
    with open(report) as fh:  # missing: the run itself failed
        return json.load(fh)


def _quartiles(spread: dict) -> dict:
    return {k: spread[k] for k in ("q1", "median", "q3")}


def pr_of(subject: str) -> int | None:
    """The PR number of a commit subject that starts ``PR <n>:``; None for
    any other (a re-anchor or a revert names a PR it is not)."""
    found = re.match(r"PR (\d+):", subject)
    return int(found.group(1)) if found else None


def row(tree: str, workload: str, pr: int) -> dict:
    """Measure ``workload`` on ``tree``: the trajectory row."""
    res = _bench(tree, workload, 0)["workloads"][workload]
    traced = _bench(tree, workload, 1)["workloads"][workload]
    spread = res["spread"]
    host = _quartiles(spread["host_s"])
    # msgs_per_s is app_msgs / host_s, so its quartiles swap ends
    msgs = {"q1": res["app_msgs"] / host["q3"],
            "median": res["end_to_end"]["msgs_per_s"],
            "q3": res["app_msgs"] / host["q1"]}
    head = _git(tree, "rev-parse", "--short", "HEAD")
    return {
        **({"commit": None, "base": head} if _dirty(tree)
           else {"commit": head}),
        "pr": pr,
        "workload": workload,
        "repeats": res["repeats"],
        "settled": res["settled"],
        "calibration_s": {k: spread[f"raw.{k}"]["median"]
                          for k in ("host_cal_s", "setup_cal_s")},
        "host_s": host,
        "msgs_per_s": msgs,
        "setup_s": _quartiles(spread["setup_s"]),
        "peak_rss_mb": _quartiles(spread["raw.peak_rss_mb"]),
        "sim_checksum": res["sim_checksum"],
        "checks_failed": res["checks_failed"] + traced["checks_failed"],
        **{name: value for name, value in traced["metrics"].items()
           if name.endswith(".calls_per_msg")},
        "box": f"{platform.machine()} nproc {os.cpu_count()}, python "
               f"{platform.python_version()}",
        "measured": time.strftime("%Y-%m-%d", time.gmtime()),
    }


def _dirty(tree: str) -> bool:
    return bool(_git(tree, "status", "--porcelain", "--", "src", "perf",
                     "BENCHMARK.json"))


def _rows() -> list[dict]:
    """The trajectory's rows; an uncommitted row whose ``base`` now has a
    commit on top of it takes that commit, and the file is rewritten."""
    with open(TRAJECTORY) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    resolved = False
    for r in rows:
        if r["commit"] is None:
            on_top = _git(ROOT, "rev-list", "--reverse", "--ancestry-path",
                          f"{r['base']}..HEAD").split()
            if on_top:
                r["commit"] = on_top[0][:len(r.pop("base"))]
                resolved = True
    if resolved:
        with open(TRAJECTORY, "w") as fh:
            fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    return rows


def _layer_calls(r: dict) -> dict[str, float]:
    """``layer -> calls_per_msg`` of a row, ``total`` left out (empty for
    a row that kept only the total)."""
    return {name[:-len(".calls_per_msg")]: value
            for name, value in r.items()
            if name.endswith(".calls_per_msg")
            and name != "total.calls_per_msg"}


def _layer_deltas(r: dict, earlier: list[dict]) -> str:
    """The layers whose frames per message moved against the last earlier
    row of another PR that has the ledger."""
    now = _layer_calls(r)
    if not now:
        return "no layer ledger in this row"
    before = next((_layer_calls(e) for e in reversed(earlier)
                   if e["pr"] != r["pr"] and _layer_calls(e)), None)
    if before is None:
        return "no earlier PR with a layer ledger"
    moved = [f"{layer} {now[layer] - before.get(layer, 0.0):+.2f}"
             for layer in sorted(now)
             if abs(now[layer] - before.get(layer, 0.0)) >= 0.005]
    return ", ".join(moved) if moved else "no layer moved"


def trend(layers: bool) -> None:
    """Print the trajectory's rows per workload, in file order; with
    ``layers``, each row's per-layer frame deltas under it."""
    by_workload: dict[str, list[dict]] = {}
    for r in _rows():
        by_workload.setdefault(r["workload"], []).append(r)
    for workload, rows in by_workload.items():
        print(f"\n== {workload}")
        print(f"  {'PR':>4} {'commit':<9} {'host_s':>9} {'msgs/s':>10} "
              f"{'setup_s':>8} {'rss_mb':>7} {'calls/msg':>9}  checksum")
        for i, r in enumerate(rows):
            commit = r["commit"] or r["base"] + "+"
            print(f"  {r['pr'] or '-':>4} {commit:<9} "
                  f"{r['host_s']['median']:>9.4f} "
                  f"{r['msgs_per_s']['median']:>10.0f} "
                  f"{r['setup_s']['median']:>8.4f} "
                  f"{r['peak_rss_mb']['median']:>7.1f} "
                  f"{r['total.calls_per_msg']:>9.2f}  "
                  f"{r['sim_checksum'][:12]}")
            if layers:
                print(f"{'':>17}{_layer_deltas(r, rows[:i])}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--tree", default=ROOT,
                    help="the checkout to measure (default: this one)")
    ap.add_argument("--pr", type=int,
                    help="the PR number (default: read from the commit "
                         "subject 'PR <n>: ...')")
    ap.add_argument("--trend", action="store_true",
                    help="print the rows per workload and exit")
    ap.add_argument("--layers", action="store_true",
                    help="with --trend: each row's per-layer calls_per_msg "
                         "deltas against the previous PR")
    args = ap.parse_args()
    if args.layers and not args.trend:
        ap.error("--layers goes with --trend")
    if args.trend:
        trend(layers=args.layers)
        return 0
    tree = os.path.abspath(args.tree)
    pr = args.pr
    if pr is None:
        if _dirty(tree):
            ap.error(f"{tree} has uncommitted changes: say which PR with --pr")
        subject = _git(tree, "log", "-1", "--format=%s")
        pr = pr_of(subject)
        if pr is None:
            ap.error(f"{tree}'s commit {subject!r} does not start "
                     f"'PR <n>:': say which PR with --pr")
    _rows()
    with open(os.path.join(tree, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    for name in names:
        r = row(tree, name, pr)
        with open(TRAJECTORY, "a") as fh:
            fh.write(json.dumps(r, sort_keys=True) + "\n")
        print(f"{name}: {r['checks_failed']} checks failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
