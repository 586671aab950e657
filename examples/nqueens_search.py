#!/usr/bin/env python
"""Task-parallel N-Queens on the simulated machine (paper §V.C).

Solves a real board — the task tree is exact, every leaf subtree is
actually enumerated — and replays the search as a dynamically load-balanced
task application on both machine layers, printing speedups, solution
counts, and a Projections-style utilization profile.

Run:  python examples/nqueens_search.py [N] [cores]
      (defaults: N=12 on 96 cores; try N=13 for a heavier run)
"""

import sys

from repro.apps.nqueens import (
    KNOWN_SOLUTIONS,
    build_task_tree,
    count_solutions,
    run_nqueens,
)
from repro.apps.nqueens.workmodel import paper_threshold_to_depth
from repro.units import fmt_time


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    cores = int(sys.argv[2]) if len(sys.argv) > 2 else 96
    threshold = 5  # the paper's nominal ParSSSE threshold

    print(f"{n}-Queens, threshold {threshold}, {cores} simulated cores")
    print(f"  sequential check: count_solutions({n}) ... ", end="", flush=True)
    exact = count_solutions(n)
    print(f"{exact} solutions", end="")
    if n in KNOWN_SOLUTIONS:
        assert exact == KNOWN_SOLUTIONS[n], "solver disagrees with OEIS!"
        print(" (matches the published count)")
    else:
        print()

    depth = paper_threshold_to_depth(threshold)
    tree = build_task_tree(n, depth, mode="exact")
    print(f"  task tree: {tree.n_tasks} tasks, mean leaf grain "
          f"{fmt_time(tree.mean_leaf_grain())}, "
          f"modelled serial time {fmt_time(tree.serial_time)}")
    assert tree.solutions == exact

    for layer in ("ugni", "mpi"):
        r = run_nqueens(n, threshold, cores, layer=layer, tree=tree,
                        trace_bin=tree.serial_time / cores / 100)
        u = r.utilization
        print(f"\n  {layer.upper()}-based Charm++: total {fmt_time(r.total_time)}, "
              f"speedup {r.speedup:.1f} ({r.efficiency:.0%} efficiency)")
        print(f"    useful {u['useful']:.0%}  overhead {u['overhead']:.0%}  "
              f"idle {u['idle']:.0%}; {r.messages_sent} messages")
        print(r.profile.render(width=70, height=6,
                               title=f"    {layer} utilization profile:"))


if __name__ == "__main__":
    main()
