"""MPI request objects."""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError


class MpiRequest:
    """A nonblocking send or receive in flight.

    Once complete, :attr:`value` is ``(time, extra_cpu)``:

    * ``time`` — simulated completion time;
    * ``extra_cpu`` — receiver/sender-side CPU seconds that logically
      happen *at* completion (matching performed by the progress engine,
      eager copy-out, FIN processing).  A raw driver charges it by
      sleeping; the Charm machine layer charges it to the PE.

    A request has at most one waiter (one ``MPI_Wait``), kept in
    :attr:`then` and run as ``then(request)`` when the request completes.
    """

    __slots__ = ("kind", "src", "dst", "tag", "nbytes", "payload", "matched",
                 "value", "then", "extra_cpu")

    def __init__(self, kind: str, src: int, dst: int, tag: int, nbytes: int,
                 payload: Any = None):
        self.kind = kind  # "send" | "recv"
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.payload = payload
        #: for receives: the matched arrival (source, tag, size, payload)
        self.matched: Optional[Any] = None
        #: ``(time, extra_cpu)`` once complete, ``None`` before
        self.value: Optional[tuple[float, float]] = None
        #: the waiter, ``None`` while nobody waits
        self.then: Optional[Callable[["MpiRequest"], None]] = None
        #: what completion will report as ``extra_cpu``, held while a
        #: rendezvous GET is in flight (its post cost is known once posted)
        self.extra_cpu = 0.0

    @property
    def completed(self) -> bool:
        return self.value is not None

    def on_complete(self, cb: Callable[["MpiRequest"], None]) -> None:
        """Run ``cb(self)`` on completion; at once if already complete.

        A second waiter raises :class:`SimulationError`: a request is
        waited on once.
        """
        if self.value is not None:
            cb(self)
        elif self.then is None:
            self.then = cb
        else:
            raise SimulationError(f"{self!r} already has a waiter")

    def complete(self, time: float, extra_cpu: float = 0.0) -> None:
        """Complete the request and run its waiter.

        A second completion raises :class:`SimulationError` (a real
        request never completes twice, and a silent double completion
        would hide a protocol bug).
        """
        if self.value is not None:
            raise SimulationError(f"{self!r} already completed")
        self.value = (time, extra_cpu)
        then = self.then
        if then is not None:
            self.then = None
            then(self)

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.completed else "pending"
        return (f"<MpiRequest {self.kind} {self.src}->{self.dst} "
                f"tag={self.tag} {self.nbytes}B {state}>")
