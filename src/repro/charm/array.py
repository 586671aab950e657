"""Chare collections: element placement, location management, migration."""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Optional

from repro.charm.reduction import ReductionState
from repro.converse.collectives import SpanningTree
from repro.errors import CharmError


def block_map(indices: list, n_pes: int) -> dict:
    """Contiguous blocks of indices per PE (Charm++'s DefaultArrayMap)."""
    n = len(indices)
    out = {}
    for pos, idx in enumerate(indices):
        out[idx] = min(pos * n_pes // n, n_pes - 1)
    return out


def round_robin_map(indices: list, n_pes: int) -> dict:
    return {idx: pos % n_pes for pos, idx in enumerate(indices)}


MAPS: dict[str, Callable[[list, int], dict]] = {
    "block": block_map,
    "round_robin": round_robin_map,
}


class Collection:
    """One chare array or group."""

    def __init__(self, charm, aid: int, cls: type, name: str,
                 is_group: bool = False):
        self.charm = charm
        self.aid = aid
        self.cls = cls
        self.name = name
        self.is_group = is_group
        self.n_pes = len(charm.conv.pes)
        #: authoritative element -> PE map (the location manager)
        self.location: dict[Any, int] = {}
        #: pe rank -> {index -> element}; a PE's dict is made by the first
        #: element placed on it (:meth:`insert`, an installed migrant) —
        #: the runtime reads with ``.get``, so a PE that never hosted
        #: anything has no entry — which leaves ``local`` in first-touch
        #: order: whatever must not depend on that iterates :meth:`by_pe`
        self.local: dict[int, dict[Any, Any]] = defaultdict(dict)
        #: invocations that arrived before their migrating element did
        self.waiting: dict[Any, list] = {}
        #: reduction state per PE (round-keyed accumulators), made on
        #: first touch like ``local``
        self.red: dict[int, ReductionState] = defaultdict(ReductionState)
        #: bumped on every migration; invalidates the cached hosting tree
        self.epoch = 0
        self._tree_epoch = -1
        self._hosting: list[int] = []
        self._hosting_pos: dict[int, int] = {}
        self._tree: Optional[SpanningTree] = None
        self.migrations = 0

    # -- element management ---------------------------------------------------
    def insert(self, idx: Any, pe_rank: int, elem: Any) -> None:
        if idx in self.location:
            raise CharmError(f"duplicate index {idx!r} in {self.name}")
        if not 0 <= pe_rank < self.n_pes:
            raise CharmError(
                f"{self.name}[{idx!r}] placed on PE {pe_rank}, outside the "
                f"job's {self.n_pes} PEs")
        self.location[idx] = pe_rank
        self.local[pe_rank][idx] = elem

    def element_at(self, pe_rank: int, idx: Any) -> Optional[Any]:
        elems = self.local.get(pe_rank)
        return elems.get(idx) if elems else None

    def by_pe(self) -> list[tuple[int, dict[Any, Any]]]:
        """``(pe rank, {index -> element})`` of every touched PE, by rank."""
        return sorted(self.local.items())

    def home_of(self, idx: Any) -> int:
        try:
            return self.location[idx]
        except KeyError:
            raise CharmError(f"{self.name} has no element {idx!r}") from None

    def n_elements(self) -> int:
        return len(self.location)

    # -- reduction topology ----------------------------------------------------
    def _refresh_tree(self) -> None:
        if self._tree_epoch == self.epoch:
            return
        self._hosting = [r for r, elems in self.by_pe() if elems]
        self._hosting_pos = {r: i for i, r in enumerate(self._hosting)}
        self._tree = SpanningTree(max(1, len(self._hosting)))
        self._tree_epoch = self.epoch

    def red_parent(self, pe_rank: int) -> Optional[int]:
        """Parent PE in the reduction tree (None at the root)."""
        self._refresh_tree()
        pos = self._hosting_pos[pe_rank]
        parent_pos = self._tree.parent(pos)
        return None if parent_pos is None else self._hosting[parent_pos]

    def red_children_count(self, pe_rank: int) -> int:
        self._refresh_tree()
        pos = self._hosting_pos[pe_rank]
        return sum(1 for _ in self._tree.children(pos))

    def hosts(self, pe_rank: int) -> bool:
        return bool(self.local.get(pe_rank))

    def missing_elements(self) -> list:
        """Indices the location manager knows but no PE currently hosts.

        Non-empty exactly while a migration is in flight (the element was
        detached from its old PE and its message has not been installed at
        the new home yet).  A checkpoint taken in that window would lose
        the element, so :func:`~repro.charm.checkpoint.take_checkpoint`
        audits this in both drained and wave mode.
        """
        hosted = set()
        for pe_elems in self.local.values():
            hosted.update(pe_elems)
        return sorted((i for i in self.location if i not in hosted), key=str)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Collection {self.name} n={self.n_elements()}>"
