"""Multi-core scale-out: parallel sweeps, and the window audit.

* :mod:`repro.parallel.sweep` — a process-pool runner for *independent*
  sweep points (the benchmark grids behind every paper figure), with
  spawn-key seeding so results are byte-identical at any job count.
  This is the package's only parallelism.
* :mod:`repro.parallel.sharded_engine` — :class:`ShardedEngine`, the
  sequential engine plus an audit of the conservative-lookahead bound:
  events carry shard tags, the run loop cuts lookahead-wide windows, and
  cross-shard schedules are counted as barrier hand-overs or lookahead
  violations.  One queue, one process, bit-identical results.

The determinism contract of both is documented in DESIGN.md §9.
"""

from repro.parallel.sharded_engine import ShardedEngine
from repro.parallel.sweep import (
    JOBS_ENV,
    SweepPoint,
    resolve_jobs,
    run_sweep,
    sweep_map,
)
from repro.sim.rng import spawn_seed

__all__ = [
    "JOBS_ENV",
    "ShardedEngine",
    "SweepPoint",
    "resolve_jobs",
    "run_sweep",
    "sweep_map",
    "spawn_seed",
]
