"""Registry of all paper-reproduction experiments.

``run_experiment(id, config)`` runs one on the machine ``config`` and
returns an :class:`~repro.bench.harness.ExperimentResult`; ``EXPERIMENTS``
maps every known id to its callable, ``exp(config) -> ExperimentResult``.
Scale is controlled by ``REPRO_PAPER_SCALE`` (see :mod:`repro.bench`).
"""

from __future__ import annotations

from typing import Callable

from repro.bench import ablations, apps_bench, micro
from repro.bench.harness import ExperimentResult
from repro.hardware.config import MachineConfig

EXPERIMENTS: dict[str, Callable[[MachineConfig], ExperimentResult]] = {
    # microbenchmarks
    "fig1": micro.fig1,
    "fig4": micro.fig4,
    "fig6": micro.fig6,
    "fig8a": micro.fig8a,
    "fig8b": micro.fig8b,
    "fig8c": micro.fig8c,
    "fig9a": micro.fig9a,
    "fig9b": micro.fig9b,
    "fig9c": micro.fig9c,
    "fig10": micro.fig10,
    # applications
    "fig11": apps_bench.fig11,
    "fig12": apps_bench.fig12,
    "fig13": apps_bench.fig13,
    "table1": apps_bench.table1,
    "table2": apps_bench.table2,
    # beyond-the-paper ablations
    "ablation_put_get": ablations.ablation_put_get,
    "ablation_msgq": ablations.ablation_msgq,
    "ablation_routing": ablations.ablation_routing,
    "ablation_smp_pools": ablations.ablation_smp_pools,
    "ablation_faults": ablations.ablation_faults,
}


def run_experiment(exp_id: str,
                   config: MachineConfig = MachineConfig()) -> ExperimentResult:
    """Run one experiment by id (see :data:`EXPERIMENTS`) on ``config``."""
    try:
        fn = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return fn(config)


def main(argv=None) -> int:  # pragma: no cover - CLI convenience
    """``python -m repro.bench.figures [ids...]`` — run and print."""
    import sys

    ids = (argv if argv is not None else sys.argv[1:]) or sorted(EXPERIMENTS)
    bad = 0
    for exp_id in ids:
        result = run_experiment(exp_id)
        print(result.render())
        bad += 0 if result.all_claims_hold else 1
    return 1 if bad else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
