"""Bitmask N-Queens: exact counting, prefix expansion, Knuth estimation.

Board state is the classic three-bitmask representation: ``cols`` (columns
occupied), ``ld``/``rd`` (diagonals threatened, shifted per row).  A state
is a tuple ``(cols, ld, rd, row)``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

#: published solution counts (OEIS A000170) used to validate the solver
#: and to sanity-check the estimator
KNOWN_SOLUTIONS = {
    1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724,
    11: 2680, 12: 14200, 13: 73712, 14: 365596, 15: 2279184, 16: 14772512,
    17: 95815104, 18: 666090624, 19: 4968057848,
}

State = tuple[int, int, int, int]  # cols, ld, rd, row

ROOT: State = (0, 0, 0, 0)


def expand(n: int, state: State) -> Iterator[State]:
    """Children of a state: all safe placements in the next row."""
    cols, ld, rd, row = state
    full = (1 << n) - 1
    free = full & ~(cols | ld | rd)
    while free:
        bit = free & -free
        free ^= bit
        yield (cols | bit, ((ld | bit) << 1) & full, (rd | bit) >> 1, row + 1)


def solve_subtree(n: int, state: State) -> tuple[int, int]:
    """Exhaustively search below ``state``: returns ``(nodes, solutions)``.

    ``nodes`` counts every placement attempted (tree nodes below the
    state), the unit the simulated work model charges per.
    """
    cols, ld, rd, row = state
    full = (1 << n) - 1
    if row == n:
        return 0, 1

    # iterative DFS with an explicit stack of (cols, ld, rd, row)
    nodes = 0
    solutions = 0
    stack = [(cols, ld, rd, row)]
    while stack:
        c, l, r, y = stack.pop()
        free = full & ~(c | l | r)
        if y == n - 1:
            # each free bit is a solution leaf
            cnt = bin(free).count("1")
            nodes += cnt
            solutions += cnt
            continue
        while free:
            bit = free & -free
            free ^= bit
            nodes += 1
            stack.append((c | bit, ((l | bit) << 1) & full, (r | bit) >> 1, y + 1))
    return nodes, solutions


def count_solutions(n: int) -> int:
    """Total N-Queens solutions (exact)."""
    if n == 0:
        return 1
    return solve_subtree(n, ROOT)[1]


def valid_prefixes(n: int, depth: int) -> list[State]:
    """All consistent placements of the first ``depth`` queens.

    These are the leaf *tasks* at the paper's threshold; their count is
    the dominant term in the run's message count (e.g. threshold 6 on a
    17-board gives the paper's ~15K messages, threshold 7 ~123K).
    """
    if depth < 0 or depth > n:
        raise ValueError(f"depth {depth} out of range for n={n}")
    frontier = [ROOT]
    for _ in range(depth):
        nxt: list[State] = []
        for st in frontier:
            nxt.extend(expand(n, st))
        frontier = nxt
    return frontier


def estimate_subtree_nodes(
    n: int,
    state: State,
    rng: np.random.Generator,
    probes: int = 4,
) -> float:
    """Knuth's random-probe estimator for the subtree size below ``state``.

    Each probe walks a random root-to-leaf path; the product of branching
    factors along the way is an unbiased estimate of the node count.
    Averaging a few probes gives the heavy-tailed per-task work
    distribution that drives the load-imbalance behaviour in Fig. 12(a)
    without paying for exact enumeration (the documented substitution for
    paper-scale board sizes).
    """
    full = (1 << n) - 1
    total = 0.0
    for _ in range(probes):
        c, l, r, y = state
        weight = 1.0
        est = 0.0
        while y < n:
            free = full & ~(c | l | r)
            k = bin(free).count("1")
            if k == 0:
                break
            est += weight * k
            weight *= k
            # pick a uniformly random safe column
            pick = int(rng.integers(k))
            for _i in range(pick):
                free &= free - 1
            bit = free & -free
            c, l, r, y = c | bit, ((l | bit) << 1) & full, (r | bit) >> 1, y + 1
        total += est
    return total / probes
