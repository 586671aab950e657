"""The abstract LRTS layer every machine implementation fills in."""

from __future__ import annotations

import abc
import itertools
from typing import Any, Optional

from repro.converse.scheduler import ConverseRuntime, Message, PE
from repro.errors import LrtsError

_persist_ids = itertools.count()


class PersistentHandle:
    """Opaque handle returned by ``LrtsCreatePersistent`` (paper §IV.A).

    Created by the *sender*; the receive buffer of ``max_bytes`` lives on
    the destination PE's node and is owned by the runtime there.
    """

    def __init__(self, src_rank: int, dst_rank: int, max_bytes: int):
        self.id = next(_persist_ids)
        self.src_rank = src_rank
        self.dst_rank = dst_rank
        self.max_bytes = max_bytes
        #: machine-layer private state (registered buffer etc.)
        self.impl: Any = None
        self.ready = False
        self.sends = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<PersistentHandle #{self.id} {self.src_rank}->{self.dst_rank} "
            f"max={self.max_bytes} ready={self.ready}>"
        )


class LrtsLayer(abc.ABC):
    """Machine-layer contract used by Converse (paper §III.B)."""

    name: str = "abstract"
    #: True on layers implementing :meth:`create_persistent` /
    #: :meth:`send_persistent`; callers (persistent collectives) fall back
    #: to plain sends when False
    supports_persistent: bool = False

    def __init__(self) -> None:
        self.conv: Optional[ConverseRuntime] = None
        #: observability hub (set in :meth:`init`; ``None`` = hooks off)
        self._obs = None
        #: delivered message count (tests assert conservation against sends)
        self.delivered = 0

    # -- lifecycle ----------------------------------------------------------
    def init(self, conv: ConverseRuntime) -> None:
        """``LrtsInit``: bind to the runtime and set up fabrics."""
        self.conv = conv
        #: the job's PEs by rank (hot-path cache: every send and every
        #: arrival indexes it)
        self._pes = conv.pes
        # hot-path cache, same idiom as machine.sanitizer: None when
        # observability is off, so every hook site is one load + compare
        self._obs = conv.machine.observer
        self._setup()
        if self._obs is not None:
            # pull-based: the layer's full stats() dict is folded into
            # every metrics snapshot (delivered counts, protocol-path
            # counters, pool/cache occupancy — whatever the layer reports)
            self._obs.register_source(f"lrts/{self.name}", self.stats)

    @abc.abstractmethod
    def _setup(self) -> None:
        """Create layer-private state (fabrics, pools, handlers)."""

    # -- data path -------------------------------------------------------------
    @abc.abstractmethod
    def sync_send(self, src_pe: PE, dst_rank: int, msg: Message) -> None:
        """``LrtsSyncSend``: non-blocking message send to another PE.

        Called from inside a handler executing on ``src_pe``; the layer
        charges its send-side CPU to ``src_pe`` and must eventually call
        :meth:`deliver` on the destination.
        """

    # -- persistent messages (optional capability) ---------------------------------
    def create_persistent(self, src_pe: PE, dst_rank: int,
                          max_bytes: int) -> PersistentHandle:
        """``LrtsCreatePersistent``; layers without support raise."""
        raise LrtsError(f"{self.name} layer does not support persistent messages")

    def send_persistent(self, src_pe: PE, handle: PersistentHandle,
                        msg: Message) -> None:
        """``LrtsSendPersistentMsg``."""
        raise LrtsError(f"{self.name} layer does not support persistent messages")

    # -- shared delivery helper ------------------------------------------------
    def deliver(self, dst_rank: int, msg: Message, recv_cpu: float,
                at: Optional[float] = None) -> None:
        """Hand a fully-received message to the destination scheduler."""
        assert self.conv is not None
        self.delivered += 1
        pe = self.conv.pes[dst_rank]
        if at is None:
            pe.enqueue(msg, recv_cpu)
        else:
            pe.deliver_at(at, msg, recv_cpu)

    # -- diagnostics -----------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Layer counters for EXPERIMENTS.md / ablation reporting."""
        return {"delivered": self.delivered}

    def first_touch(self) -> dict[str, int]:
        """How many lazily built objects of each kind exist: a simulator
        self-metric (:func:`repro.observe.self_metrics`), never part of
        :meth:`stats`."""
        return {}
