"""Frozen reference N-Queens search: one Python tuple per node.

A verbatim copy of ``repro.apps.nqueens.solver``'s tuple generator
``expand`` and stack DFS ``solve_subtree``, as they stood before the exact
search became ``int64`` columns stepped one row at a time.
``tests/test_nqueens.py`` requires the columns to produce the same
children, in the same order, and the same ``(nodes, solutions)`` below
every state.  Do not "fix" or optimise this file: it is the oracle.
"""

from __future__ import annotations

from typing import Iterator

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
