"""Deterministic process-pool sweep runner.

The paper's evaluation is a wall of sweeps — every figure is a curve over
message sizes, core counts, or ablation flags, and every point is an
*independent* simulation.  After the sequential hot-path work the
reproduction is bound by one Python core while the rest of the host
idles.  This module dispatches sweep points to worker processes and
merges the results **in submission order**, so a ``jobs=N`` sweep returns
exactly — byte-for-byte — what ``jobs=1`` returns:

* every point runs the same pure function with the same arguments —
  its seed included — in whichever process picks it up (the simulations
  share no state);
* results come back via ``Pool.map``, which preserves submission order.

Worker count: the ``jobs`` argument wins, then the ``REPRO_BENCH_JOBS``
environment variable, then 1 (sequential, no pool at all — the default
path has zero multiprocessing overhead and is what unit tests exercise).
``jobs <= 0`` means "all cores".  When a pool cannot be created (some
sandboxes forbid forking), the sweep silently degrades to sequential
execution — the results are identical either way.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from typing import Any, Callable, Optional, Sequence

from repro._env import env_int

#: environment variable consulted when ``jobs`` is not passed explicitly
JOBS_ENV = "REPRO_BENCH_JOBS"


class SweepPoint:
    """One sweep point: a picklable callable plus its arguments.

    ``fn`` must be importable by worker processes (a module-level
    function); closures and lambdas only work in the sequential path and
    are rejected eagerly so ``--jobs 1`` vs ``--jobs N`` cannot diverge.
    """

    __slots__ = ("fn", "args", "label")

    def __init__(self, fn: Callable, args: Sequence[Any] = (),
                 label: str = ""):
        self.fn = fn
        self.args = tuple(args)
        self.label = label or getattr(fn, "__name__", repr(fn))

    def __call__(self) -> Any:
        return self.fn(*self.args)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SweepPoint {self.label}{self.args!r}>"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit ``jobs`` > ``REPRO_BENCH_JOBS`` env > 1."""
    if jobs is None:
        jobs = env_int(JOBS_ENV, 1)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def _invoke(point: SweepPoint) -> Any:
    """Top-level trampoline so ``Pool.map`` can pickle the work unit."""
    return point()


def _pool_context():
    """Prefer fork (workers inherit warmed imports); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def run_sweep(points: Sequence[SweepPoint],
              jobs: Optional[int] = None) -> list[Any]:
    """Run every point; return results in submission order."""
    points = list(points)
    n_jobs = resolve_jobs(jobs)
    if n_jobs <= 1 or len(points) <= 1:
        return [p() for p in points]
    for p in points:
        if getattr(p.fn, "__name__", "<lambda>") == "<lambda>":
            raise ValueError(
                f"sweep point {p.label!r} wraps a lambda, which worker "
                "processes cannot import; use a module-level function")
    try:
        ctx = _pool_context()
        with ctx.Pool(processes=min(n_jobs, len(points))) as pool:
            # chunksize=1: points have wildly different costs (a 1MB
            # kNeighbor point is ~100x a 32B one); fine-grained dispatch
            # is what load-balances the sweep
            return pool.map(_invoke, points, chunksize=1)
    except (OSError, PermissionError) as exc:  # pragma: no cover - sandbox
        print(f"[sweep] process pool unavailable ({exc}); "
              "running sequentially", file=sys.stderr)
        return [p() for p in points]

