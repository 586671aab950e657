"""The Charm N-Queens application and its measurement harness.

Mirrors the paper's setup (§V.C): a task-based parallelization where each
task explores some states and spawns new tasks, each dynamically created
task is assigned to a *random* processor, message size is ~88 bytes, and
the threshold controls grain size ("the threshold of 6 to a 17-Queens
problem means that only the first 6 queens are treated as parallel tasks").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.apps.nqueens.workmodel import (
    TaskTree,
    build_task_tree,
    paper_threshold_to_depth,
)
from repro.charm import Chare, Charm
from repro.hardware.config import MachineConfig
from repro.lrts.factory import make_runtime
from repro.observe import TimeProfile

#: paper: "the size of messages are quite small (around 88 bytes)"
TASK_MSG_BYTES = 88


def _splitmix64(x: int) -> int:
    """Deterministic integer hash (task id -> placement randomness)."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class _SearchContext:
    """Shared, read-only task-tree data every Worker consults."""

    def __init__(self, tree: TaskTree, n_pes: int, seed: int):
        self.tree = tree
        self.n_pes = n_pes
        self.seed = seed
        #: per depth: starting child index for each task (prefix sums)
        self.child_offsets = [
            np.concatenate(([0], np.cumsum(kids))) for kids in tree.children
        ]
        self.tasks_executed = 0
        self.leaf_tasks_executed = 0

    def placement(self, depth: int, idx: int) -> int:
        return _splitmix64((self.seed << 48) ^ (depth << 40) ^ idx) % self.n_pes


class Worker(Chare):
    """One per PE; executes whatever tasks land on it."""

    def __init__(self, ctx: _SearchContext):
        self.ctx = ctx

    def do_task(self, depth: int, idx: int) -> None:
        ctx = self.ctx
        tree = ctx.tree
        ctx.tasks_executed += 1
        if depth == tree.threshold:
            # leaf task: sequential solve of the remaining rows
            ctx.leaf_tasks_executed += 1
            self.charge(float(tree.leaf_work[idx]))
            return
        # expansion task: place one row, spawn each valid child randomly
        self.charge(tree.expansion_work_each)
        first = int(ctx.child_offsets[depth][idx])
        n_kids = int(tree.children[depth][idx])
        for k in range(n_kids):
            child = first + k
            dst = ctx.placement(depth + 1, child)
            self.thisProxy[dst].do_task(depth + 1, child, _size=TASK_MSG_BYTES)


@dataclass
class NQueensResult:
    n: int
    threshold: int
    n_pes: int
    layer: str
    total_time: float
    serial_time: float
    n_tasks: int
    messages_sent: int
    solutions: Optional[int]
    mode: str
    utilization: dict = field(default_factory=dict)
    profile: Optional[TimeProfile] = None
    layer_stats: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        return self.serial_time / self.total_time if self.total_time else 0.0

    @property
    def efficiency(self) -> float:
        return self.speedup / self.n_pes if self.n_pes else 0.0


def run_nqueens(
    n: int,
    threshold: int,
    n_pes: int,
    layer: str = "ugni",
    seed: int = 0,
    config: Optional[MachineConfig] = None,
    tree: Optional[TaskTree] = None,
    trace_bin: Optional[float] = None,
    max_events: Optional[int] = None,
    engine: Optional[Any] = None,
) -> NQueensResult:
    """Run one N-Queens configuration on the simulated machine.

    ``threshold`` is the paper's *nominal* ParSSSE threshold; the literal
    spawn depth is ``threshold - 2`` (see
    :func:`~repro.apps.nqueens.workmodel.paper_threshold_to_depth`).
    ``tree`` may be passed in to share one task tree across the runs of a
    scaling sweep (and across layers, so each compares the same search).
    ``trace_bin`` turns on Projections-style tracing with that bin width.
    """
    depth = paper_threshold_to_depth(threshold)
    if tree is None:
        if not 1 <= depth < n:
            raise ValueError(
                f"threshold {threshold} maps to spawn depth {depth}, "
                f"which must be in [1, {n - 1}]")
        tree = build_task_tree(n, depth, seed=seed + 1)
    elif (tree.n, tree.threshold) != (n, depth):
        raise ValueError(
            f"the tree is the {tree.n}-Queens search to spawn depth "
            f"{tree.threshold}, not {n}-Queens at threshold {threshold} "
            f"(spawn depth {depth})")
    profile = TimeProfile(trace_bin) if trace_bin else None
    conv, lrts = make_runtime(n_pes=n_pes, layer=layer, config=config,
                              seed=seed, tracer=profile, engine=engine)
    # the machine may round PEs up to whole nodes; use what was asked for
    charm = Charm(conv)
    ctx = _SearchContext(tree, n_pes, seed)
    workers = charm.create_array(Worker, n_pes, args=(ctx,), map="round_robin",
                                 name="nqueens")
    charm.start(lambda pe: workers[ctx.placement(0, 0)].do_task(0, 0))
    charm.run(max_events=max_events)

    total_time = max(pe.busy_until for pe in conv.pes[:n_pes])
    assert ctx.tasks_executed == tree.n_tasks, (
        f"task conservation violated: ran {ctx.tasks_executed} of {tree.n_tasks}"
    )
    if profile is not None:
        profile.close(n_pes, until=total_time)
    return NQueensResult(
        n=n,
        threshold=threshold,
        n_pes=n_pes,
        layer=layer,
        total_time=total_time,
        serial_time=tree.serial_time,
        n_tasks=tree.n_tasks,
        messages_sent=conv.messages_sent,
        solutions=tree.solutions,
        mode=tree.mode,
        utilization=conv.total_utilization(),
        profile=profile,
        layer_stats=lrts.stats(),
    )
