"""Compare two reports written by ``bench.py`` (A is the base, B the change).

One row per (workload, end-to-end metric): both values, B/A, the metric's
bound from ``BENCHMARK.json`` and a verdict.  A simulated-result checksum
that moved is flagged ``sim_changed`` - a host-speed change must leave it
alone, a deliberate model change will not - and for per-layer metrics
that are exact counts, the ones that moved are listed with the self time
of their layer beside them.
"""

from __future__ import annotations

#: a workload whose repeats are spread too wide leaves these open
TIMING = ("host_s", "msgs_per_s")
#: units of per-layer metrics that repeat exactly from run to run
COUNT_UNITS = ("1/msg", "B/msg", "share", "count", "bool")


def worsening(a: float, b: float, better: str) -> float:
    """Share of A by which B is worse (negative: better)."""
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(a: float, b: float, metric: dict, both_settled: bool) -> str:
    worse_by = worsening(a, b, metric["better"])
    if abs(worse_by) <= metric["bound"]:
        return "same"
    if metric["name"] in TIMING and not both_settled:
        return "unsettled"
    return "worse" if worse_by > 0 else "better"


def count_metrics(spec: dict) -> list[str]:
    return [m["name"] for m in spec["per_layer"] if m["unit"] in COUNT_UNITS]


def report(a: dict, b: dict, spec: dict, strict: bool = False) -> bool:
    """Print the comparison; return whether B is acceptable against A.

    ``strict`` is for two sets of the *same* tree (``--agree``): any
    difference beyond a bound in either direction, an unsettled workload,
    a moved checksum or a moved count fails.
    """
    ok = True
    print(f"\ncompare: A = {a['header']['commit']} (base), "
          f"B = {b['header']['commit']}")
    print(f"{'workload':<14}{'metric':<13}{'A':>16}{'B':>16}{'B/A':>9}"
          f"{'bound':>7}  verdict")
    for name, ra in a["workloads"].items():
        rb = b["workloads"].get(name)
        if rb is None or "end_to_end" not in ra or "end_to_end" not in rb:
            continue
        both_settled = ra["settled"] and rb["settled"]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            va, vb = ra["end_to_end"][key], rb["end_to_end"][key]
            v = verdict(va, vb, metric, both_settled)
            print(f"{name:<14}{key:<13}{va:>16.6f}{vb:>16.6f}{vb / va:>9.4f}"
                  f"{metric['bound']:>7.0%}  {v}")
            if v == "worse" or (strict and v != "same"):
                ok = False
        fa = ra["checks_failed"] / ra["checks_attempted"]
        fb = rb["checks_failed"] / rb["checks_attempted"]
        print(f"{name:<14}{'check_fail_share':<13}{fa:>12.6f}{fb:>16.6f}"
              f"{'':>16}  {'worse' if fb > fa else 'same'}"
              f"{'  ' + ', '.join(rb['failed_checks']) if fb else ''}")
        if fb > fa or (strict and (fa or fb)):
            ok = False
        if strict and not both_settled:
            print(f"{name:<14}unsettled: the repeats of a run are spread "
                  f"wider than the bound on host_s")
            ok = False
        if ra["sim_checksum"] != rb["sim_checksum"]:
            print(f"{name:<14}sim_changed: {ra['sim_checksum'][:23]}... -> "
                  f"{rb['sim_checksum'][:23]}...")
            ok = ok and not strict

    counts = count_metrics(spec)
    for name, ra in a["workloads"].items():
        ma = ra.get("metrics")
        mb = b["workloads"].get(name, {}).get("metrics")
        if not ma or not mb:
            continue
        moved = [k for k in counts if k in ma and ma[k] != mb[k]]
        if not moved:
            print(f"{name:<14}per-layer counts identical "
                  f"({sum(k in ma for k in counts)} metrics)")
            continue
        ok = ok and not strict
        for key in moved:
            layer = key.rsplit(".", 1)[0]
            self_key = f"{layer}.self_us_per_msg"
            print(f"{name:<14}{key:<34}{ma[key]:>14.6f} -> {mb[key]:<14.6f}"
                  + (f" ({self_key} {ma[self_key]:.3f} -> {mb[self_key]:.3f})"
                     if self_key in ma else ""))
    print(f"\ncompare: {'OK' if ok else 'FAILED'}")
    return ok
