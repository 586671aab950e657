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
    """

    __slots__ = ("kind", "src", "dst", "tag", "nbytes", "payload", "matched",
                 "value", "_waiters")

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
        self._waiters: list[Callable[[tuple[float, float]], None]] = []

    @property
    def completed(self) -> bool:
        return self.value is not None

    def on_complete(self, cb: Callable[[tuple[float, float]], None]) -> None:
        """Run ``cb(value)`` on completion; at once if already complete."""
        if self.value is not None:
            cb(self.value)
        else:
            self._waiters.append(cb)

    def complete(self, time: float, extra_cpu: float = 0.0) -> None:
        """Complete the request and run its waiters in order.

        A second completion raises :class:`SimulationError` (a real
        request never completes twice, and a silent double completion
        would hide a protocol bug).
        """
        if self.value is not None:
            raise SimulationError(f"{self!r} already completed")
        value = self.value = (time, extra_cpu)
        waiters, self._waiters = self._waiters, []
        for cb in waiters:
            cb(value)

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.completed else "pending"
        return (f"<MpiRequest {self.kind} {self.src}->{self.dst} "
                f"tag={self.tag} {self.nbytes}B {state}>")
