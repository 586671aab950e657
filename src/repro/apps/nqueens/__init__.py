"""Task-parallel N-Queens (paper §V.C, Fig. 11, Fig. 12, Table I).

The paper uses an N-Queens solver built on the ParSSSE state-space search
framework: tasks explore prefixes of the board row by row; tasks above the
*threshold* depth spawn children to random PEs; tasks at the threshold
solve the remaining rows sequentially.  Messages are tiny (~88 B) and
numerous — the workload that exposes per-message runtime overhead.

* :mod:`repro.apps.nqueens.solver` — bitmask backtracking, one row of
  states at a time over ``int64`` columns: exact counting (validated
  against published totals), prefix enumeration, and Knuth's Monte-Carlo
  subtree estimator for the paper's boards, whose searches grow ~6x per
  row past the 27M nodes of N = 14 (the documented substitution for
  N ≥ 15).
* :mod:`repro.apps.nqueens.workmodel` — turns a (N, threshold) pair into a
  task tree with per-task sequential work.
* :mod:`repro.apps.nqueens.app` — the Charm application + measurement.
"""

from repro.apps.nqueens.app import NQueensResult, run_nqueens
from repro.apps.nqueens.solver import (
    KNOWN_SOLUTIONS,
    count_solutions,
    estimate_subtree_nodes,
    solve_subtree,
)
from repro.apps.nqueens.workmodel import TaskTree, build_task_tree

__all__ = [
    "KNOWN_SOLUTIONS",
    "count_solutions",
    "estimate_subtree_nodes",
    "solve_subtree",
    "TaskTree",
    "build_task_tree",
    "run_nqueens",
    "NQueensResult",
]
