"""Bitmask N-Queens: exact counting, prefix expansion, Knuth estimation.

Board state is the classic three-bitmask representation: ``cols`` (columns
occupied), ``ld``/``rd`` (diagonals threatened, shifted per row).  The
exact search keeps a whole row of states as three ``int64`` columns and
steps every state one row down at once (:func:`expand_level`); a lone
state is the tuple ``(cols, ld, rd, row)``.

:func:`subtree_sizes` and :func:`estimate_leaves` run the C core's
kernels when it is loaded; their Python bodies (``_py``) are the pure lane
and the oracle the kernels equal bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.sim import _speed

#: published solution counts (OEIS A000170) used to validate the solver
#: and to sanity-check the estimator
KNOWN_SOLUTIONS = {
    1: 1, 2: 0, 3: 0, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724,
    11: 2680, 12: 14200, 13: 73712, 14: 365596, 15: 2279184, 16: 14772512,
    17: 95815104, 18: 666090624, 19: 4968057848,
}

State = tuple[int, int, int, int]  # cols, ld, rd, row

ROOT: State = (0, 0, 0, 0)

#: the largest board the ``int64`` columns hold: a diagonal mask shifted
#: left takes n + 1 bits
MAX_N = 61

#: start states counted together, one row at a time: bounds the widest
#: row's columns (memory), not the result
_CHUNK = 256


def expand_level(
    n: int, cols: np.ndarray, ld: np.ndarray, rd: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every safe placement in the next row: ``(counts, cols, ld, rd)``.

    ``counts[i]`` is state ``i``'s number of children.  The children come
    parents in order, each parent's free columns lowest bit first.
    """
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N}, got {n}")
    full = (1 << n) - 1
    free = full & ~(cols | ld | rd)
    counts = np.bitwise_count(free).astype(np.int64)
    # pass i places every parent's i-th lowest free column
    bit = np.empty(int(counts.sum()), np.int64)
    live = np.flatnonzero(free)
    rest = free[live]
    slot = (np.cumsum(counts) - counts)[live]
    while live.size:
        low = rest & -rest
        bit[slot] = low
        rest ^= low
        live = np.flatnonzero(rest)
        rest, slot = rest[live], slot[live] + 1
    cols, ld, rd = (np.repeat(a, counts) for a in (cols, ld, rd))
    return counts, cols | bit, ((ld | bit) << 1) & full, (rd | bit) >> 1


def _descend(n, rows, cols, ld, rd, edges, nodes):
    """Step ``rows`` rows down, adding each row's states to ``nodes``.

    Start state ``i``'s states in the current row are the run
    ``edges[i]:edges[i + 1]``: children keep their parents' order.
    ``nodes`` is written in place (the caller may pass a slice view).
    """
    for _ in range(rows):
        counts, cols, ld, rd = expand_level(n, cols, ld, rd)
        edges = np.concatenate(([0], np.cumsum(counts)))[edges]
        nodes += np.diff(edges)
    return cols, ld, rd, edges


def subtree_sizes(
    n: int, row: int, cols: np.ndarray, ld: np.ndarray, rd: np.ndarray
) -> tuple[np.ndarray, int]:
    """Exhaustively search below states of one ``row``.

    Returns each state's node count (``int64``: every placement below it,
    the unit the simulated work model charges per) and the number of
    solutions below all of them.
    """
    if _speed.core is None:
        return _subtree_sizes_py(n, row, cols, ld, rd)
    nodes = np.empty(len(cols), np.int64)
    return nodes, _speed.core.nqueens_subtree_sizes(n, cols, ld, rd, nodes)


def _subtree_sizes_py(n, row, cols, ld, rd):
    """:func:`subtree_sizes` level by level in numpy (the C kernel's
    contract)."""
    nodes = np.zeros(len(cols), np.int64)
    edges = np.arange(len(cols) + 1)
    # widen a narrow start (a lone root) so each chunk holds many subtrees
    while 0 < len(cols) < _CHUNK and row < n:
        cols, ld, rd, edges = _descend(n, 1, cols, ld, rd, edges, nodes)
        row += 1
    # nodes below each widened state, one chunk's slice view at a time
    below = np.zeros(len(cols), np.int64)
    solutions = 0
    for lo in range(0, len(cols), _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        solutions += len(_descend(
            n, n - row, cols[chunk], ld[chunk], rd[chunk],
            np.arange(len(below[chunk]) + 1), below[chunk])[0])
    sums = np.concatenate(([0], np.cumsum(below)))
    return nodes + sums[edges[1:]] - sums[edges[:-1]], solutions


def solve_subtree(n: int, state: State) -> tuple[int, int]:
    """Exhaustively search below ``state``: returns ``(nodes, solutions)``."""
    cols, ld, rd, row = state
    nodes, solutions = subtree_sizes(
        n, row, *(np.array([v], np.int64) for v in (cols, ld, rd)))
    return int(nodes[0]), solutions


def count_solutions(n: int) -> int:
    """Total N-Queens solutions (exact)."""
    if n == 0:
        return 1
    return solve_subtree(n, ROOT)[1]


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


def estimate_leaves(
    n: int, row: int, cols: np.ndarray, ld: np.ndarray, rd: np.ndarray,
    rng: np.random.Generator, probes: int,
) -> np.ndarray:
    """:func:`estimate_subtree_nodes` for each state of one ``row``, in
    order, drawing from ``rng`` (``float64``)."""
    if probes < 1:
        raise ValueError(f"probes must be at least 1, got {probes}")
    if _speed.core is None:
        return _estimate_leaves_py(n, row, cols, ld, rd, rng, probes)
    out = np.empty(len(cols), np.float64)
    bitgen = rng.bit_generator
    with bitgen.lock:
        _speed.core.nqueens_probe(n, row, cols, ld, rd, bitgen.capsule,
                                  probes, out)
    return out


def _estimate_leaves_py(n, row, cols, ld, rd, rng, probes):
    """:func:`estimate_leaves` one Python walk at a time (the C kernel's
    contract)."""
    return np.array([
        estimate_subtree_nodes(n, (c, l, r, row), rng, probes=probes)
        for c, l, r in zip(cols.tolist(), ld.tolist(), rd.tolist())
    ], dtype=np.float64)
