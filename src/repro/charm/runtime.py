"""The Charm runtime: entry-method dispatch, broadcasts, reductions,
migration, and quiescence, over a ConverseRuntime."""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional, Sequence

from repro.charm.array import MAPS, Collection
from repro.charm.chare import ArrayProxy, BoundMethod, Chare, estimate_size
from repro.charm.reduction import REDUCERS
from repro.converse.collectives import SpanningTree
from repro.converse.quiescence import QuiescenceDetector
from repro.converse.scheduler import ConverseRuntime, Message, PE
from repro.errors import CharmError

#: wire overhead of a reduction partial beyond its value
REDUCTION_HEADER = 32


class Charm:
    """Programming-model runtime bound to one ConverseRuntime."""

    def __init__(self, conv: ConverseRuntime):
        self.conv = conv
        self.engine = conv.engine
        self.n_pes = len(conv.pes)
        self.collections: dict[int, Collection] = {}
        self._aid = itertools.count()
        self._current_pe: Optional[PE] = None
        self._h_entry = conv.register_handler(self._entry_handler)
        self._h_boot = conv.register_handler(self._boot_handler)
        #: lazily-created quiescence detector
        self._qd: Optional[QuiescenceDetector] = None
        #: app-message counters per PE for quiescence (entry invocations)
        self.app_sends = 0
        self.app_executes = 0

    # ------------------------------------------------------------------ #
    # Collection creation (setup time, before the clock runs)
    # ------------------------------------------------------------------ #
    def create_array(
        self,
        cls: type,
        n_or_indices,
        args: Sequence = (),
        kwargs: Optional[dict] = None,
        map: str | Callable = "block",
        name: Optional[str] = None,
    ) -> ArrayProxy:
        """Create a chare array with one element per index."""
        if not issubclass(cls, Chare):
            raise CharmError(f"{cls.__name__} must subclass Chare")
        indices = (list(range(n_or_indices)) if isinstance(n_or_indices, int)
                   else list(n_or_indices))
        aid = next(self._aid)
        coll = Collection(self, aid, cls, name or cls.__name__)
        self.collections[aid] = coll
        proxy = ArrayProxy(self, aid, coll.name)
        mapper = MAPS[map] if isinstance(map, str) else map
        placement = mapper(indices, self.n_pes)
        kwargs = kwargs or {}
        for idx in indices:
            elem = cls(*args, **kwargs)
            elem.charm = self
            elem.thisIndex = idx
            elem.thisProxy = proxy
            elem._aid = aid
            elem._lb_load = 0.0
            pe_rank = placement[idx]
            elem.pe = self.conv.pes[pe_rank]
            coll.insert(idx, pe_rank, elem)
        return proxy

    def create_group(self, cls: type, args: Sequence = (),
                     name: Optional[str] = None) -> ArrayProxy:
        """One element per PE, indexed by PE rank (Charm++ Group)."""
        proxy = self.create_array(cls, self.n_pes, args=args,
                                  map="round_robin", name=name or cls.__name__)
        self.collections[proxy.aid].is_group = True
        return proxy

    # ------------------------------------------------------------------ #
    # Collection lookup (restore/recovery paths address by name)
    # ------------------------------------------------------------------ #
    def collection(self, name: str) -> Collection:
        """The collection registered under ``name`` (names are stable
        across checkpoint/restart incarnations; aids are not)."""
        for coll in self.collections.values():
            if coll.name == name:
                return coll
        raise CharmError(f"no collection named {name!r}")

    def iter_elements(self, name: str):
        """Yield ``(index, element)`` of one collection, index-sorted.

        Deterministic regardless of placement — result digests and
        rebind sweeps iterate with this so restarting on a different PE
        count cannot reorder them.
        """
        coll = self.collection(name)
        merged = {}
        for pe_elems in coll.local.values():
            merged.update(pe_elems)
        for idx in sorted(merged, key=str):
            yield idx, merged[idx]

    # ------------------------------------------------------------------ #
    # Bootstrap and run
    # ------------------------------------------------------------------ #
    def start(self, fn: Callable[[PE], None], pe: int = 0,
              at: Optional[float] = None) -> None:
        """Run ``fn(pe)`` as the mainchare's first entry.

        ``at`` defaults to the current simulated time, so successive
        phases (run, start, run again) just work.
        """
        self.conv.send_from_outside(
            pe, Message(self._h_boot, pe, pe, 16, payload=fn),
            at=self.engine.now if at is None else at)

    def _boot_handler(self, pe: PE, msg: Message) -> None:
        prev, self._current_pe = self._current_pe, pe
        try:
            msg.payload(pe)
        finally:
            self._current_pe = prev

    def run(self, until: float = float("inf"),
            max_events: Optional[int] = None) -> float:
        return self.conv.run(until=until, max_events=max_events)

    # ------------------------------------------------------------------ #
    # Invocation path
    # ------------------------------------------------------------------ #
    def _require_pe(self) -> PE:
        if self._current_pe is None:
            raise CharmError(
                "proxy calls must happen inside an entry method or a "
                "charm.start() bootstrap function"
            )
        return self._current_pe

    def _invoke(self, aid: int, method: str, args: tuple, kwargs: dict,
                size: Optional[int], prio: Optional[int],
                device: Any = False) -> None:
        """What :meth:`BoundMethod.__call__` does not do itself: refuse a
        proxy call made outside any handler, and start a broadcast — a
        spanning tree rooted at the calling PE, entered by a message to
        itself."""
        pe = self._require_pe()
        nbytes = estimate_size(args, kwargs) if size is None else size
        self._count_send(pe)
        self.conv.send(pe, pe.rank, Message(
            self._h_entry, pe.rank, pe.rank, nbytes,
            payload=("bcast", aid, method, args, kwargs, pe.rank),
            prio=prio, device=device))

    def _count_send(self, pe: PE) -> None:
        """One application message leaves ``pe``, for quiescence."""
        self.app_sends += 1
        if self._qd is not None:
            self._qd.notify_send(pe.rank)

    def _count_execute(self, pe: PE) -> None:
        """One application message was processed on ``pe``."""
        self.app_executes += 1
        if self._qd is not None:
            self._qd.notify_process(pe.rank)

    def _entry_handler(self, pe: PE, msg: Message) -> None:
        payload = msg.payload
        kind = payload[0]
        if kind == "inv":
            _, aid, idx, method, args, kwargs = payload
            elems = self.collections[aid].local.get(pe.rank)
            elem = elems.get(idx) if elems else None
            if elem is None:
                self._deliver_invocation(pe, msg, aid, idx)
                return
            # _count_execute and _run_method, inlined: once per message
            self.app_executes += 1
            if self._qd is not None:
                self._qd.notify_process(pe.rank)
            fn = getattr(elem, method, None)
            if fn is None:
                raise CharmError(
                    f"{type(elem).__name__} has no entry method {method!r}")
            elem.pe = pe
            prev, self._current_pe = self._current_pe, pe
            t0 = pe.vtime
            try:
                fn(*args, **kwargs)
            finally:
                self._current_pe = prev
                elem._lb_load += pe.vtime - t0
        elif kind == "bcast":
            _, aid, method, args, kwargs, root = payload
            # every tree message is one send at its forwarder and one
            # process at its receiver, or quiescence could be declared
            # with the broadcast still on its way down
            self._count_execute(pe)
            tree = SpanningTree(self.n_pes, root=root)
            for child in tree.children(pe.rank):
                self._count_send(pe)
                self.conv.send(pe, child, Message(
                    self._h_entry, pe.rank, child, msg.nbytes,
                    payload=payload, prio=msg.prio, device=msg.device))
            elems = self.collections[aid].local.get(pe.rank)
            if elems:
                for elem in list(elems.values()):
                    self._run_method(pe, elem, method, args, kwargs)
        elif kind == "migrate":
            _, aid, idx, elem = payload
            self._install_migrant(pe, aid, idx, elem)
        elif kind == "red":
            _, aid, rnd, value, op, target = payload
            prev, self._current_pe = self._current_pe, pe
            try:
                self._reduction_partial(pe, aid, rnd, value, op, target,
                                        from_child=True)
            finally:
                self._current_pe = prev
        else:  # pragma: no cover - defensive
            raise CharmError(f"unknown charm message kind {kind!r}")

    def _deliver_invocation(self, pe: PE, msg: Message, aid: int,
                            idx: Any) -> None:
        """An invocation whose element is not on ``pe``."""
        coll = self.collections[aid]
        home = coll.home_of(idx)
        if home == pe.rank:
            # migrating element not yet installed: buffer
            coll.waiting.setdefault(idx, []).append(msg)
            return
        # stale delivery: forward to the current home
        self.conv.send(pe, home, Message(
            self._h_entry, pe.rank, home, msg.nbytes,
            payload=msg.payload, prio=msg.prio, device=msg.device))

    def _run_method(self, pe: PE, elem: Any, method: str, args: tuple,
                    kwargs: dict) -> None:
        fn = getattr(elem, method, None)
        if fn is None:
            raise CharmError(
                f"{type(elem).__name__} has no entry method {method!r}")
        elem.pe = pe
        prev, self._current_pe = self._current_pe, pe
        t0 = pe.vtime
        try:
            fn(*args, **kwargs)
        finally:
            self._current_pe = prev
            elem._lb_load += pe.vtime - t0

    def local_invoke(self, proxy: ArrayProxy, idx: Any, method: str,
                     args: tuple = ()) -> bool:
        """Run an element's entry method directly when it lives on the
        calling PE (no message, no scheduling — a plain call within the
        current handler's time).  Falls back to a real invocation when the
        element is remote.  Returns True when the call was local.

        This is what Charm++'s ``[local]``/inline entry methods and
        NAMD's proxy fan-out rely on.
        """
        pe = self._require_pe()
        coll = self.collections[proxy.aid]
        elem = coll.element_at(pe.rank, idx)
        if elem is None:
            getattr(proxy[idx], method)(*args)
            return False
        self._run_method(pe, elem, method, args, {})
        return True

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def _contribute(self, elem: Any, value: Any, op: str, target) -> None:
        if op not in REDUCERS:
            raise CharmError(f"unknown reduction op {op!r}")
        if not isinstance(target, BoundMethod):
            raise CharmError("reduction target must be a bound proxy method")
        pe = elem.pe
        coll = self.collections[elem._aid]
        # each element advances through rounds at its own pace
        rnd = getattr(elem, "_red_round", 0)
        elem._red_round = rnd + 1
        state = coll.red[pe.rank].round_state(rnd)
        state.add(value, op, target)
        state.local_contrib += 1
        self._maybe_forward_reduction(pe, coll, rnd)

    def _reduction_partial(self, pe: PE, aid: int, rnd: int, value: Any,
                           op: str, target, from_child: bool) -> None:
        coll = self.collections[aid]
        state = coll.red[pe.rank].round_state(rnd)
        state.add(value, op, target)
        state.children_done += 1
        self._maybe_forward_reduction(pe, coll, rnd)

    def _maybe_forward_reduction(self, pe: PE, coll: Collection, rnd: int) -> None:
        state = coll.red[pe.rank].round_state(rnd)
        need_local = len(coll.local.get(pe.rank, ()))
        need_children = coll.red_children_count(pe.rank)
        if state.local_contrib < need_local or state.children_done < need_children:
            return
        value, op, target = state.value, state.op, state.target
        coll.red[pe.rank].pop(rnd)
        parent = coll.red_parent(pe.rank)
        if parent is None:
            # reduction complete: deliver to the target entry method
            target(value, _size=estimate_size((value,), {}) + REDUCTION_HEADER)
        else:
            nbytes = estimate_size((value,), {}) + REDUCTION_HEADER
            self.conv.send(pe, parent, Message(
                self._h_entry, pe.rank, parent, nbytes,
                payload=("red", coll.aid, rnd, value, op, target)))

    # ------------------------------------------------------------------ #
    # Migration (measurement-based load balancing uses this)
    # ------------------------------------------------------------------ #
    def _migrate(self, elem: Any, new_pe: int, state_bytes: int) -> None:
        pe = self._require_pe()
        coll = self.collections[elem._aid]
        idx = elem.thisIndex
        if coll.is_group:
            raise CharmError("group elements cannot migrate")
        if pe.rank != coll.home_of(idx):
            raise CharmError("an element can only migrate itself from home")
        if coll.red[pe.rank].active:
            raise CharmError("cannot migrate during an active reduction round")
        if new_pe == pe.rank:
            return
        del coll.local[pe.rank][idx]
        coll.location[idx] = new_pe
        coll.epoch += 1
        coll.migrations += 1
        self.conv.send(pe, new_pe, Message(
            self._h_entry, pe.rank, new_pe, state_bytes,
            payload=("migrate", coll.aid, idx, elem)))

    def _install_migrant(self, pe: PE, aid: int, idx: Any, elem: Any) -> None:
        coll = self.collections[aid]
        coll.local[pe.rank][idx] = elem
        elem.pe = pe
        waiting = coll.waiting.pop(idx, [])
        for msg in waiting:
            _, _aid, _idx, method, args, kwargs = msg.payload
            self._count_execute(pe)
            self._run_method(pe, elem, method, args, kwargs)

    # ------------------------------------------------------------------ #
    # Quiescence
    # ------------------------------------------------------------------ #
    def start_quiescence(self, callback: Callable[[float], None]) -> None:
        """Fire ``callback(time)`` once no entry invocations remain."""
        if self._qd is None:
            self._qd = QuiescenceDetector(self.conv)
            # seed counters with history so far
            self._qd.sent[0] += self.app_sends
            self._qd.processed[0] += self.app_executes
        self._qd.start(callback)
