"""MPI request objects."""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.sim.engine import Engine, Event

_req_ids = itertools.count()


class MpiRequest:
    """A nonblocking send or receive in flight.

    :attr:`done` triggers with value ``(time, extra_cpu)``:

    * ``time`` — simulated completion time;
    * ``extra_cpu`` — receiver/sender-side CPU seconds that logically
      happen *at* completion (matching performed by the progress engine,
      eager copy-out, FIN processing).  A process-style caller charges it
      by sleeping; the Charm machine layer charges it to the PE.
    """

    __slots__ = ("id", "kind", "engine", "done", "src", "dst", "tag",
                 "nbytes", "payload", "matched")

    def __init__(self, engine: Engine, kind: str, src: int, dst: int,
                 tag: int, nbytes: int, payload: Any = None):
        self.id = next(_req_ids)
        self.kind = kind  # "send" | "recv"
        self.engine = engine
        self.done = Event(engine)
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload
        #: for receives: the matched arrival (source, tag, size, payload)
        self.matched: Optional[Any] = None

    @property
    def completed(self) -> bool:
        return self.done.triggered

    def complete(self, time: float, extra_cpu: float = 0.0) -> None:
        self.done.succeed((time, extra_cpu))

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.completed else "pending"
        return (f"<MpiRequest #{self.id} {self.kind} {self.src}->{self.dst} "
                f"tag={self.tag} {self.nbytes}B {state}>")
