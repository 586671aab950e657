"""Time profiles: the scheduler's interval stream, binned (paper Fig. 12).

The paper analyses N-Queens with Projections time profiles: per time bin,
how much CPU went to useful computation (yellow), how much to runtime /
communication overhead (black), and how much was idle (white).  A
:class:`TimeProfile` is the sink of the scheduler's ``record(rank, start,
duration, kind)`` stream: it bins on the fly (raw intervals would dwarf
the simulation itself); once the run is over, ``close(n_pes, until)``
turns the bins into fractions of the machine and the profile answers the
figure's questions and draws itself as ASCII.
"""

from __future__ import annotations

import numpy as np

from repro.units import fmt_time

KINDS = ("useful", "overhead", "idle")
_ROW = {kind: row for row, kind in enumerate(KINDS)}
#: a finer ``bin_width`` than this many bins per run is a mistake
MAX_BINS = 1_000_000


class TimeProfile:
    """Per-bin utilization of the whole machine, by kind."""

    def __init__(self, bin_width: float = 1e-3):
        if bin_width <= 0:
            raise ValueError(f"bin_width must be positive, got {bin_width}")
        self.bin_width = bin_width
        self._seconds = np.zeros((len(KINDS), 64))
        self._hwm = 0  # highest bin index touched + 1
        self.close(1)  # empty until the run's own close()

    @property
    def seconds(self) -> np.ndarray:
        """Accumulated CPU-seconds, one row per kind, one column per bin."""
        return self._seconds[:, : self._hwm]

    def record(self, pe_rank: int, start: float, duration: float, kind: str) -> None:
        if duration <= 0.0:
            return
        row = _ROW.get(kind, _ROW["overhead"])
        width = self.bin_width
        first = int(start / width)
        end = start + duration
        last = int(end / width)
        # an interval ending exactly on a bin edge must not touch the
        # next (empty) bin
        if last > first and last * width >= end:
            last -= 1
        if last >= MAX_BINS:
            raise ValueError(
                f"trace bin {last} exceeds {MAX_BINS} bins; increase bin_width")
        if last >= self._hwm:
            n = self._seconds.shape[1]
            if last >= n:
                grown = np.zeros((len(KINDS), max(last + 1, 2 * n)))
                grown[:, :n] = self._seconds
                self._seconds = grown
            self._hwm = last + 1
        seconds = self._seconds
        if first == last:
            seconds[row, first] += duration
            return
        t = start
        for b in range(first, last + 1):  # split across bins
            edge = min(end, (b + 1) * width)
            seconds[row, b] += edge - t
            t = edge

    def close(self, n_pes: int, until: float | None = None) -> "TimeProfile":
        """Turn seconds into fractions of ``n_pes`` cores, up to ``until``.

        Afterwards ``useful[i] + overhead[i] + idle[i] ≈ 1`` for every bin
        within the run ("sum of CPU utilization on all cores", as the
        paper puts it).
        """
        n = self._hwm
        if until is not None:
            n = min(n, int(np.ceil(until / self.bin_width)))
        useful, overhead, idle = (self.seconds / (n_pes * self.bin_width))[:, :n]
        # Idle gaps are only recorded when a PE wakes up again, so the last
        # partial window may under-report idle; top the bins up to 1.
        known = useful + overhead + idle
        self.useful, self.overhead = useful, overhead
        self.idle = idle + np.clip(1.0 - known, 0.0, 1.0)
        return self

    @property
    def n_bins(self) -> int:
        return len(self.useful)

    def summary(self) -> dict[str, float]:
        """Run-wide utilization split (fractions of total core-time)."""
        n = max(self.n_bins, 1)
        return {kind: float(getattr(self, kind).sum() / n) for kind in KINDS}

    def tail_idle_fraction(self, tail: float = 0.25) -> float:
        """Average idle over the last ``tail`` fraction of the run.

        The paper's Fig. 12(a) diagnosis — "the long tail is caused by
        load imbalance at the end" — in one number.
        """
        if self.n_bins == 0:
            return 0.0
        return float(self.idle[-max(1, int(self.n_bins * tail)):].mean())

    def render(self, width: int = 78, height: int = 12, title: str = "") -> str:
        """Stacked the way Projections draws it, one column per bin (or
        more): useful ``'#'``, overhead ``'!'``, idle ``' '``."""
        n = self.n_bins
        if n == 0:
            return f"{title}\n(empty profile)"
        cols = min(width, n)  # resample to at most `width` columns
        idx = np.linspace(0, n, cols + 1).astype(int)
        useful, over = ([row[a:b].mean() if b > a else 0.0
                         for a, b in zip(idx, idx[1:])]
                        for row in (self.useful, self.overhead))
        lines = [title] if title else []
        for row in range(height, 0, -1):
            threshold = (row - 0.5) / height
            lines.append("|" + "".join(
                "#" if u >= threshold else "!" if u + o >= threshold else " "
                for u, o in zip(useful, over)) + "|")
        lines.append("+" + "-" * cols + "+")
        s = self.summary()
        lines.append(
            f" 0 {'':>{max(0, cols - 18)}} {fmt_time(n * self.bin_width)}   ")
        lines.append(
            f" legend: '#'=useful  '!'=overhead  ' '=idle   "
            f"(run: useful={s['useful']:.0%} overhead={s['overhead']:.0%} "
            f"idle={s['idle']:.0%})")
        return "\n".join(lines)
