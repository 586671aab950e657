"""Checkpoint/restart fault tolerance for chare collections.

Charm++'s baseline fault-tolerance story (which the paper's §III.B lists
among the LRTS capability classes, and [Kale & Zheng 2009] describes) is
coordinated checkpoint/restart: at a quiescent point the runtime
serializes every migratable object; after a crash, the job restarts —
possibly on a different number of processors, since objects are
location-independent — and objects are reconstructed from the checkpoint.

This module implements exactly that for the simulated runtime:

* :func:`take_checkpoint` — snapshot every collection's element states
  (PUP-style: all attributes except runtime bindings), indices, placement
  and reduction progress, plus the runtime-wide determinism state (engine
  clock, RNG streams, trace-ID counter).  The caller vouches that
  application traffic is quiescent (typically from inside a
  :class:`~repro.converse.quiescence.QuiescenceDetector` callback); the
  event heap may still hold non-application events — armed fault
  schedules, checkpoint timers — so checkpointing composes with the
  fault injector.  Application quiescence is audited (counters balanced,
  PE queues empty, no reductions or migrations in flight).

* :func:`restore_into` — rebuild the collections inside a *fresh* Charm
  runtime (same or different PE count), re-binding proxies and remapping
  element placement through a mapper (optionally the load balancer's
  :func:`~repro.charm.loadbalancer.restore_rebalance_map`).

Clock semantics on restore: the restored engine's clock is advanced to
``Checkpoint.sim_time`` (it previously restarted at 0, which broke every
post-restart timeline and time-to-recover measurement).  Restoring —
never rewinding — the clock also preserves the observe tracer's
monotone-span invariant: stage timestamps of messages traced after the
restore are ``>=`` every timestamp recorded before the crash, so spans
and Projections timelines from the two incarnations can be merged.  The
resilience manager then advances the clock *further*, to crash time plus
modeled restart cost, so recovery consumes simulated time instead of
happening in zero time.

The examples/tests drive it the way a Charm++ application would: compute,
reach quiescence, checkpoint, "crash", restart on a different machine
size, continue, and verify the results match an uninterrupted run.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.charm.chare import ArrayProxy
from repro.charm.runtime import Charm
from repro.errors import CharmError

#: element attributes owned by the runtime, never checkpointed.
#: ``_resilience`` is the (re)bound recovery-manager handle: it belongs to
#: the incarnation, not the element, and deep-copying it would drag the
#: whole dead runtime into the checkpoint.
RUNTIME_ATTRS = frozenset({"charm", "pe", "thisProxy", "_resilience"})


@dataclass
class CollectionCheckpoint:
    """Serialized state of one chare collection."""

    name: str
    cls: type
    is_group: bool
    #: index -> captured element attribute dict
    states: dict[Any, dict] = field(default_factory=dict)
    #: index -> PE rank at checkpoint time
    placement: dict[Any, int] = field(default_factory=dict)
    #: index -> element reduction round
    red_rounds: dict[Any, int] = field(default_factory=dict)

    @property
    def n_elements(self) -> int:
        return len(self.states)

    def state_bytes(self) -> int:
        """Rough serialized footprint (for checkpoint-cost modelling)."""
        import pickle

        return sum(len(pickle.dumps(s, protocol=4)) for s in self.states.values())


@dataclass
class Checkpoint:
    """A full application checkpoint."""

    n_pes: int
    sim_time: float
    collections: list[CollectionCheckpoint] = field(default_factory=list)
    #: RNG registry snapshot (:meth:`repro.sim.rng.RngRegistry.get_state`);
    #: ``None`` for checkpoints taken before this field existed
    rng_state: Optional[dict] = None
    #: observe tracer's minted-ID counter at checkpoint time (0 = no
    #: observer); restores fast-forward past it so trace IDs stay unique
    trace_next_id: int = 0

    @property
    def n_elements(self) -> int:
        return sum(c.n_elements for c in self.collections)

    def state_bytes(self) -> int:
        return sum(c.state_bytes() for c in self.collections)


def _capture_element(elem: Any) -> dict:
    state = {}
    for key, value in vars(elem).items():
        if key in RUNTIME_ATTRS:
            continue
        state[key] = copy.deepcopy(value)
    return state


def take_checkpoint(charm: Charm) -> Checkpoint:
    """Snapshot every collection of ``charm`` at application quiescence.

    The event heap may hold non-application events such as armed fault
    schedules (see the module docstring).
    """
    # the QD's counting result, re-checked against the runtime's own
    # counters: every entry invocation sent has been executed
    if charm.app_sends != charm.app_executes:
        raise CharmError(
            "checkpoint with unbalanced app counters "
            f"(sent={charm.app_sends}, executed={charm.app_executes}); "
            "application messages are still in flight")
    for pe in charm.conv.pes:
        if pe.queue_length:
            raise CharmError(
                f"checkpoint while PE {pe.rank} still has queued messages; "
                "checkpoint at quiescence (run() to completion or use "
                "start_quiescence)"
            )
    machine = charm.conv.machine
    obs = machine.observer
    ckpt = Checkpoint(
        n_pes=len(charm.conv.pes),
        sim_time=charm.engine.now,
        rng_state=machine.rng.get_state(),
        trace_next_id=obs.tracer.minted() if obs is not None else 0,
    )
    for coll in charm.collections.values():
        if any(st.active for st in coll.red.values()):
            raise CharmError(
                f"checkpoint with reduction in flight on {coll.name!r}")
        missing = coll.missing_elements()
        if missing:
            raise CharmError(
                f"checkpoint while elements {missing!r} of {coll.name!r} "
                "are migrating (detached from their old PE, not yet "
                "installed at the new one) — the snapshot would lose them")
        if coll.waiting:
            raise CharmError(
                f"checkpoint with invocations buffered for migrating "
                f"elements {sorted(coll.waiting, key=str)!r} of {coll.name!r}")
        cc = CollectionCheckpoint(name=coll.name, cls=coll.cls,
                                  is_group=coll.is_group)
        for pe_rank, elems in coll.by_pe():
            for idx, elem in elems.items():
                cc.states[idx] = _capture_element(elem)
                cc.placement[idx] = pe_rank
                cc.red_rounds[idx] = getattr(elem, "_red_round", 0)
        ckpt.collections.append(cc)
    return ckpt


def _preserve_map(cc: CollectionCheckpoint, indices: list, n_pes: int) -> dict:
    """Default restore placement: old placement modulo the new PE count."""
    return {i: cc.placement.get(i, 0) % n_pes for i in indices}


#: restore mapper: ``(collection checkpoint, sorted indices, n_pes) -> {idx: pe}``
RestoreMapper = Callable[[CollectionCheckpoint, list, int], dict]


def _restore_group_indices(cc: CollectionCheckpoint,
                           n_new: int) -> dict[Any, list]:
    """Survivor index -> list of checkpointed indices folded into it."""
    if cc.n_elements < n_new:
        raise CharmError(
            f"group {cc.name!r} checkpointed with {cc.n_elements} "
            f"elements cannot cover {n_new} PEs (a group element's state "
            "is per-PE infrastructure the runtime cannot invent — restart "
            "groups on at most as many PEs as were checkpointed)"
        )
    # survivor r absorbs checkpointed ranks r, r+n_new, r+2*n_new, ...
    # — the deterministic fold FTC-Charm++ style shrink restart performs
    folded: dict[Any, list] = {r: [] for r in range(n_new)}
    for old_rank in sorted(cc.states, key=int):
        folded[int(old_rank) % n_new].append(old_rank)
    return folded


def restore_into(charm: Charm, ckpt: Checkpoint,
                 map: Optional[RestoreMapper] = None) -> dict[str, ArrayProxy]:
    """Rebuild checkpointed collections inside a fresh runtime.

    Returns ``{collection name: proxy}``.

    ``map`` chooses array placement on the new runtime: ``None`` preserves
    the checkpointed placement modulo the new PE count, and a callable
    ``(collection_checkpoint, indices, n_pes) -> {idx: pe}`` plugs in a
    custom strategy (the recovery path passes
    :func:`~repro.charm.loadbalancer.restore_rebalance_map`).  Placement
    is computed once, validated, and registered via ``Collection.insert``,
    so the location manager, the reduction tree, and the load balancer's
    view agree.

    Groups get exactly one element per PE.  Growing a group is an error;
    a shrinking group folds checkpointed element ``r`` into survivor
    ``r % n_new`` via the element's ``merge_restored_state(state)`` hook
    (a class without it raises).

    The fresh engine's clock advances to ``ckpt.sim_time`` (forward only
    — see the module docstring for the tracer monotonicity argument).
    """
    if charm.collections:
        raise CharmError("restore_into needs a fresh Charm runtime")
    machine = charm.conv.machine
    if ckpt.rng_state is not None:
        machine.rng.set_state(ckpt.rng_state)
    obs = machine.observer
    if obs is not None and ckpt.trace_next_id:
        obs.tracer.fast_forward(ckpt.trace_next_id)
    if ckpt.sim_time > charm.engine.now:
        charm.engine.advance_to(ckpt.sim_time)
    n_new = len(charm.conv.pes)
    mapper = map or _preserve_map
    proxies: dict[str, ArrayProxy] = {}
    for cc in ckpt.collections:
        if cc.is_group:
            # groups are rank-indexed: one element per PE, no remapping
            folded = _restore_group_indices(cc, n_new)
            indices = sorted(folded, key=str)
            placement = {idx: int(idx) for idx in indices}
        else:
            folded = None
            indices = sorted(cc.states, key=lambda i: str(i))
            placement = mapper(cc, indices, n_new)
            bad = {i: p for i, p in placement.items()
                   if not (isinstance(p, int) and 0 <= p < n_new)}
            if bad or set(placement) < set(indices):
                raise CharmError(
                    f"restore map for {cc.name!r} is invalid on {n_new} "
                    f"PEs: bad entries {bad!r}, unmapped "
                    f"{sorted(set(indices) - set(placement), key=str)!r}")

        # construct shells without running __init__ (PUP-style restore)
        proxy = charm.create_array(_Shell, [], name=cc.name)
        coll = charm.collections[proxy.aid]
        coll.cls = cc.cls
        coll.is_group = cc.is_group
        for idx in indices:
            elem = cc.cls.__new__(cc.cls)
            elem.__dict__.update(copy.deepcopy(cc.states[idx]))
            if folded is not None and len(folded[idx]) > 1:
                merge = getattr(elem, "merge_restored_state", None)
                if merge is None:
                    raise CharmError(
                        f"group {cc.name!r} shrink-merge needs "
                        f"{cc.cls.__name__}.merge_restored_state(state)")
                for extra in folded[idx][1:]:
                    merge(copy.deepcopy(cc.states[extra]))
            elem.charm = charm
            elem.thisIndex = idx
            elem.thisProxy = proxy
            elem._aid = proxy.aid
            elem._red_round = cc.red_rounds.get(idx, 0)
            if not hasattr(elem, "_lb_load"):
                elem._lb_load = 0.0
            pe_rank = placement[idx]
            elem.pe = charm.conv.pes[pe_rank]
            coll.insert(idx, pe_rank, elem)
        proxies[cc.name] = proxy
    return proxies


from repro.charm.chare import Chare as _Chare  # noqa: E402


class _Shell(_Chare):
    """Placeholder class for empty collection creation during restore.

    ``create_array`` requires a Chare subclass; the restore path creates
    the collection empty under ``_Shell`` and immediately swaps in the
    checkpointed class and elements.
    """
