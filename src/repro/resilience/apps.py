"""Reference phased application for the recovery pipeline.

:class:`PhasedSum` drives a chare array through a fixed number of
reduction rounds — the same compute → contribute → phase-boundary shape
as the paper's NAMD-style iterative workloads — while following the
:class:`~repro.resilience.manager.ResilienceManager` app protocol, so the
recovery benchmark and chaos tests can crash it at arbitrary points and
check that the final digest matches a crash-free run.

Everything an element computes is **integer** arithmetic (a Knuth
multiplicative hash folded into a prime modulus): reduction trees combine
partials in placement-dependent order, and float addition is not
associative — integer math is, so the digest is identical on 4 PEs or 13,
before a crash or after three.

Elements carry their own progress (``round``) and the root carries the
phase log and the ``finished`` flag, all of it ordinary checkpointed
state — after a restore, :meth:`PhasedSum.kick` just reads the root's
round and broadcasts the next step; no recovery-specific bookkeeping
lives outside the checkpoint.
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional

from repro.charm.chare import Chare

#: Knuth's 2^32 multiplicative-hash constant — integer phase "work"
_HASH = 2654435761
#: fold modulus (prime, keeps totals small and overflow-free)
_MOD = 1000003
#: simulated seconds of compute per phase, before the per-element skew
WORK_S = 5e-6


class SumChare(Chare):
    """One worker: charge simulated compute, fold a hash, reduce."""

    #: the resilience manager, re-bound each incarnation by
    #: ``ResilienceManager._bind_elements``; ``None`` (the class default)
    #: makes the app runnable without a manager — phases just chain
    _resilience: Optional[Any] = None

    def __init__(self, rounds: int):
        self.rounds = rounds
        # element state, so part of every checkpoint's bytes (and hence
        # of the modelled restart cost)
        self.work_s = WORK_S
        self.total = 0
        self.round = 0
        # root-only state (element 0)
        self.log: list[int] = []
        self.finished = False

    def step(self, r: int) -> None:
        """One phase: skewed compute, integer fold, contribute."""
        idx = int(self.thisIndex)
        # deterministic per-element skew so the post-restart rebalance
        # has real measured-load imbalance to work with
        self.charge(self.work_s * (1 + idx % 4))
        self.total = (self.total + (idx + 1) * (r + 1) * _HASH) % _MOD
        self.round = r + 1
        self.contribute(self.total, "sum", self.thisProxy[0].report)

    def report(self, value: int) -> None:
        """Reduction target on the root: log the round, chain the next."""
        self.log.append(int(value))
        if self.round >= self.rounds:
            self.finished = True
            return
        nxt = self.round
        proxy = self.thisProxy
        continuation = lambda: proxy.step(nxt)  # noqa: E731
        mgr = self._resilience
        if mgr is None:
            continuation()
        else:
            # phase boundary: let the manager checkpoint before phase nxt
            mgr.at_phase_boundary(continuation)


class PhasedSum:
    """ResilienceManager app driving ``n_elements`` workers for ``rounds``."""

    name = "phased_sum"

    def __init__(self, n_elements: int, rounds: int):
        self.n_elements = n_elements
        self.rounds = rounds
        self.charm = None
        self.proxy = None

    # -- app protocol ------------------------------------------------------
    def setup(self, charm: Any, manager: Any) -> None:
        self.charm = charm
        self.proxy = charm.create_array(
            SumChare, self.n_elements,
            kwargs={"rounds": self.rounds}, name=self.name)

    def rebind(self, charm: Any, manager: Any, proxies: dict) -> None:
        self.charm = charm
        self.proxy = proxies[self.name]

    def kick(self, charm: Any) -> None:
        """(Re)start driving from wherever the root element's state says.

        Idempotent by construction: a fresh start broadcasts round 0, a
        post-restore kick broadcasts the first round the checkpoint had
        not completed, and a post-completion kick does nothing.
        """
        root = self._root(charm)
        if root.finished:
            return
        self.proxy.step(root.round)

    def done(self) -> bool:
        return self.charm is not None and self._root(self.charm).finished

    def result(self, charm: Any) -> dict:
        """Digest of everything placement could have perturbed (nothing)."""
        root = self._root(charm)
        totals = [elem.total for _idx, elem in charm.iter_elements(self.name)]
        digest = hashlib.sha256(
            repr((root.log, totals)).encode()).hexdigest()
        return {
            "digest": digest,
            "rounds": root.round,
            "phases_logged": len(root.log),
            "fold": sum(totals) % _MOD,
        }

    # -- helpers -----------------------------------------------------------
    def _root(self, charm: Any) -> SumChare:
        for idx, elem in charm.iter_elements(self.name):
            if int(idx) == 0:
                return elem
        raise LookupError(f"{self.name}: root element 0 not found")
