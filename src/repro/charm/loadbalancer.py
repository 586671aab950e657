"""Measurement-based greedy load balancing (NAMD's CentralLB, simplified).

The paper (§V.D): "The dynamic measurement-based load balancing framework
in Charm++ is deployed in NAMD [...] Objects migrate between processors
periodically according to load balancing decisions."

:func:`greedy_plan` is the classic Charm++ GreedyLB: sort objects by
measured load, place each on the currently least-loaded PE.  The planning
cost model (:func:`plan_cpu_cost`) is charged to the PE that runs the
central strategy.
"""

from __future__ import annotations

import heapq
from typing import Any, Hashable

from repro.units import us


def greedy_plan(
    loads: dict[Hashable, float],
    n_pes: int,
    background: dict[int, float] | None = None,
) -> dict[Hashable, int]:
    """Assign objects to PEs, heaviest first onto the lightest PE.

    ``background`` seeds per-PE load that cannot move (e.g. patch work
    when only computes are migratable).
    """
    if n_pes < 1:
        raise ValueError("need at least one PE")
    heap = [(0.0 if background is None else background.get(pe, 0.0), pe)
            for pe in range(n_pes)]
    heapq.heapify(heap)
    plan: dict[Hashable, int] = {}
    for idx, load in sorted(loads.items(), key=lambda kv: -kv[1]):
        pe_load, pe = heapq.heappop(heap)
        plan[idx] = pe
        heapq.heappush(heap, (pe_load + load, pe))
    return plan


def greedy_plan_comm(
    loads: dict[Hashable, float],
    n_pes: int,
    preferred: dict[Hashable, list[int]],
    obj_groups: dict[Hashable, tuple],
    background: dict[int, float] | None = None,
    tolerance: float = 2.0,
) -> dict[Hashable, int]:
    """Communication-aware greedy placement (NAMD's refinement idea).

    Each object may name *preferred PEs* (for NAMD computes: the PEs on
    the nodes hosting their patches, so position multicasts stay
    intra-node).  An object goes to a preferred PE unless that PE's load
    plus the object's would exceed ``tolerance ×`` (the least-loaded PE's
    load plus the object's) — then locality yields to balance, the
    trade-off NAMD's LB strategies make.  On top of that, objects sharing
    a *group* (for NAMD computes, a patch — ``obj_groups[idx] = (patch_a,
    patch_b)``) are packed onto the same PEs when load permits, because
    every distinct (group, PE) pair costs one multicast message per step.
    Packing cross-node computes of one patch onto few PEs is what keeps
    NAMD's proxy count — and hence its position-multicast volume — low.
    """
    if n_pes < 1:
        raise ValueError("need at least one PE")
    per_pe = [0.0] * n_pes
    if background:
        for pe, b in background.items():
            if 0 <= pe < n_pes:
                per_pe[pe] = b
    #: group -> PEs already hosting a member
    group_pes: dict[Any, set[int]] = {}
    plan: dict[Hashable, int] = {}
    order = sorted(loads.items(), key=lambda kv: -kv[1])
    for idx, load in order:
        min_pe = min(range(n_pes), key=per_pe.__getitem__)
        limit = tolerance * (per_pe[min_pe] + load)
        candidates = preferred.get(idx) or range(n_pes)
        shared = set()
        for g in obj_groups.get(idx, ()):
            shared |= group_pes.get(g, set())
        target = None
        # 1) a preferred PE already hosting a same-group object
        best = None
        for pe in candidates:
            if pe in shared and per_pe[pe] + load <= limit:
                if best is None or per_pe[pe] < per_pe[best]:
                    best = pe
        target = best
        if target is None:
            # 2) the least-loaded preferred PE within tolerance
            best = min(candidates, key=per_pe.__getitem__, default=None)
            if best is not None and per_pe[best] + load <= limit:
                target = best
        if target is None:
            target = min_pe  # 3) balance wins
        plan[idx] = target
        per_pe[target] += load
        for g in obj_groups.get(idx, ()):
            group_pes.setdefault(g, set()).add(target)
    return plan


def restore_rebalance_map(cc: Any, indices: list, n_pes: int) -> dict[Hashable, int]:
    """Restore-time placement from checkpointed measured loads.

    This is the mapper the recovery path feeds to
    :func:`~repro.charm.checkpoint.restore_into`: each element's
    ``_lb_load`` accumulated before the checkpoint seeds a
    :func:`greedy_plan`, so a job restarting on fewer PEs comes back
    balanced instead of inheriting the old placement modulo the new PE
    count.  Deterministic: ``indices`` arrive sorted and ties in the
    greedy sort preserve that order.
    """
    loads = {idx: float(cc.states[idx].get("_lb_load", 0.0)) for idx in indices}
    return greedy_plan(loads, n_pes)


def plan_cpu_cost(n_objects: int, n_pes: int) -> float:
    """CPU seconds the central strategy burns building the plan."""
    import math

    n = max(2, n_objects)
    return (n * math.log2(n) + n_pes) * 0.05 * us
