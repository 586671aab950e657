"""Task-tree construction for the simulated N-Queens runs.

The search above the threshold is a tree of *expansion tasks* (one per
valid prefix shallower than the threshold, each charging a small
expansion cost and spawning its children); at the threshold depth each
prefix becomes a *leaf task* charging its whole remaining-subtree solve.

:data:`NODE_COST` converts tree nodes to seconds; 13 ns is calibrated so total 17-Queens work ≈ 105 core-seconds, matching the
paper's best result (0.029 s on 3840 cores at near-perfect efficiency,
Table I) — the per-node cost of a tuned C++ bitmask solver is indeed a
few tens of nanoseconds.

**Threshold mapping.**  The paper's nominal threshold t is a ParSSSE
grain-control parameter, not a literal spawn depth: with t=6 on a
17-board the paper reports ~15K messages and with t=7 ~123K, whereas the
17-board has 1.45M valid 6-prefixes and 27K valid 4-prefixes.  The
reported counts sit within 2x of the prefix counts at depth t-2 (27K at
depth 4, 217K at depth 5, same 8x ratio between consecutive depths), so
:func:`paper_threshold_to_depth` maps nominal threshold to spawn depth
``t - 2`` — the top rows are expanded inside their parent task, as
ParSSSE's adaptive grain control batches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.apps.nqueens import solver
from repro.units import ns

#: seconds of sequential work per search-tree node (see module docstring)
NODE_COST = 13 * ns
#: ``"auto"`` solves every leaf subtree exactly up to this board size
EXACT_LIMIT = 14


def paper_threshold_to_depth(threshold: int) -> int:
    """Map the paper's nominal ParSSSE threshold to a literal spawn depth."""
    return max(1, threshold - 2)


@dataclass
class TaskTree:
    """Everything the Charm app needs to *replay* the search as work."""

    n: int
    threshold: int
    node_cost: float
    #: per leaf task (valid prefix at threshold depth): sequential seconds
    leaf_work: np.ndarray
    #: number of expansion tasks per depth 0..threshold-1
    expansion_counts: list[int]
    #: children count per expansion task, per depth (ragged, index-aligned
    #: with the BFS order of prefixes at that depth)
    children: list[np.ndarray]
    #: exact solution count when available (None in estimate mode)
    solutions: Optional[int] = None
    mode: str = "exact"

    @property
    def n_leaf_tasks(self) -> int:
        return len(self.leaf_work)

    @property
    def n_tasks(self) -> int:
        return sum(self.expansion_counts) + self.n_leaf_tasks

    @property
    def total_leaf_work(self) -> float:
        return float(self.leaf_work.sum())

    @property
    def expansion_work_each(self) -> float:
        """Seconds charged by one expansion task (one row of placements)."""
        return self.n * self.node_cost

    @property
    def serial_time(self) -> float:
        """Modelled one-core solve time (the speedup baseline)."""
        return (
            self.total_leaf_work
            + sum(self.expansion_counts) * self.expansion_work_each
        )

    def mean_leaf_grain(self) -> float:
        return float(self.leaf_work.mean()) if len(self.leaf_work) else 0.0


def build_task_tree(
    n: int,
    threshold: int,
    mode: str = "auto",
    seed: int = 1234,
    probes: int = 4,
) -> TaskTree:
    """Enumerate the prefix tree and attach per-leaf work.

    ``mode``: ``"exact"`` solves every leaf subtree (affordable up to
    N = :data:`EXACT_LIMIT`), ``"estimate"`` uses Knuth probes,
    ``"auto"`` picks by size.
    """
    if not 1 <= threshold < n:
        raise ValueError(
            f"spawn depth must be in [1, {n - 1}], got {threshold}")
    if mode not in ("exact", "estimate", "auto"):
        raise ValueError(
            f"mode must be 'exact' | 'estimate' | 'auto', got {mode!r}")
    use_exact = mode == "exact" or (mode == "auto" and n <= EXACT_LIMIT)

    expansion_counts: list[int] = []
    children: list[np.ndarray] = []
    cols = ld = rd = np.zeros(1, np.int64)
    for _depth in range(threshold):
        expansion_counts.append(len(cols))
        counts, cols, ld, rd = solver.expand_level(n, cols, ld, rd)
        children.append(counts)

    solutions: Optional[int] = None
    if use_exact:
        nodes, solutions = solver.subtree_sizes(n, threshold, cols, ld, rd)
        leaf_work = nodes * NODE_COST
    else:
        leaf_work = solver.estimate_leaves(
            n, threshold, cols, ld, rd, np.random.default_rng(seed),
            probes) * NODE_COST
    return TaskTree(
        n=n,
        threshold=threshold,
        node_cost=NODE_COST,
        leaf_work=leaf_work,
        expansion_counts=expansion_counts,
        children=children,
        solutions=solutions,
        mode="exact" if use_exact else "estimate",
    )
