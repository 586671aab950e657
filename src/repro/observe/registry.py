"""Deterministic metrics registry: counters, gauges, sim-time histograms.

Everything in here is a pure function of the simulated event order, so two
runs of the same configuration — at any ``--jobs`` count, with the
sanitizer on or off — produce byte-identical snapshots and therefore the
same :meth:`MetricsRegistry.digest`.  That digest is the observability
analogue of the simulated-metrics checksum in ``benchmarks/run_all.py``:
it turns "the telemetry didn't silently change" into a one-line assert.

Three metric kinds:

``counter``
    monotone integer/float accumulator (``inc``);
``gauge``
    a pull-based source's value at snapshot time (nested ``stats()``
    dicts are flattened with ``/``-joined keys);
``histogram``
    sim-time-binned accumulator (``observe``): each sample lands in bin
    ``floor(t / BIN_WIDTH)`` and the bin keeps ``[count, sum]`` — enough
    to reconstruct a backlog-over-time profile without storing samples.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Iterable

#: histogram bin width in simulated seconds (10 µs — fine enough to
#: resolve per-iteration phases of the paper's microbenchmarks)
BIN_WIDTH = 1e-5


def _fold(out: dict[str, Any], prefix: str, value: Any) -> None:
    """Flatten a pulled stats value into ``out`` under ``prefix``.

    Dicts recurse with ``/``-joined keys in sorted-key order; scalars land
    as-is; ``None`` is skipped (a source that has nothing to say).
    """
    if value is None:
        return
    if isinstance(value, dict):
        for key in sorted(value, key=str):
            _fold(out, f"{prefix}/{key}", value[key])
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _fold(out, f"{prefix}/{i}", item)
    else:
        out[prefix] = value


class MetricsRegistry:
    """Deterministic counters / gauges / sim-time-binned histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        #: name -> bin index -> [count, sum]
        self._hists: dict[str, dict[int, list[float]]] = {}
        #: pull-based sources, read once per snapshot (name, fn) pairs
        self._sources: list[tuple[str, Callable[[], Any]]] = []

    # -- write path --------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, t: float, value: float = 1) -> None:
        hist = self._hists.get(name)
        if hist is None:
            hist = self._hists[name] = {}
        b = int(t // BIN_WIDTH)
        bin_ = hist.get(b)
        if bin_ is None:
            hist[b] = [1, value]
        else:
            bin_[0] += 1
            bin_[1] += value

    def register_source(self, name: str, fn: Callable[[], Any]) -> None:
        """Pull ``fn()`` at snapshot time and fold it in under ``name``.

        Name collisions get a deterministic ``#N`` suffix (creation
        order), so e.g. two same-named pools on different machines both
        appear.
        """
        taken = {n for n, _ in self._sources}
        if name in taken:
            n = 2
            while f"{name}#{n}" in taken:
                n += 1
            name = f"{name}#{n}"
        self._sources.append((name, fn))

    # -- read path ---------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """One flat, sorted, JSON-serializable view of everything.

        Keys are ``counter/<name>``, ``gauge/<name>``,
        ``hist/<name>/<bin>`` (value ``[count, sum]``), with pull-based
        sources folded in as gauges under their registered name.
        """
        out: dict[str, Any] = {}
        for name, value in self._counters.items():
            out[f"counter/{name}"] = value
        for name, fn in self._sources:
            _fold(out, f"gauge/{name}", fn())
        for name, hist in self._hists.items():
            for bin_ in sorted(hist):
                count, total = hist[bin_]
                out[f"hist/{name}/{bin_}"] = [count, total]
        return dict(sorted(out.items()))

    def digest(self, exclude: Iterable[str] = (),
               snapshot: dict[str, Any] | None = None) -> str:
        """sha256 over the canonical snapshot rendering.

        ``exclude`` drops keys containing any of the given substrings —
        used by the sequential-vs-sharded parity check to mask metrics
        whose values legitimately depend on the engine implementation
        (``engine/`` window/barrier counters).
        """
        snap = self.snapshot() if snapshot is None else snapshot
        exclude = tuple(exclude)
        h = hashlib.sha256()
        for key, value in sorted(snap.items()):
            if any(sub in key for sub in exclude):
                continue
            h.update(f"{key}={json.dumps(value, sort_keys=True)}\n".encode())
        return h.hexdigest()

    # -- maintenance -------------------------------------------------------
    def clear(self) -> None:
        self._counters.clear()
        self._hists.clear()
        self._sources.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._hists)
