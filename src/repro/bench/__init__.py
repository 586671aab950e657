"""The paper-reproduction benchmark harness.

Every table and figure in the paper's evaluation section has an experiment
here that regenerates its rows/series on the simulated machine and checks
the paper's qualitative claims (who wins, by roughly what factor, where
crossovers fall).

Every experiment is a function of the machine it runs on,
``exp(config: MachineConfig = MachineConfig()) -> ExperimentResult``, so a
perturbed calibration is one argument.  Usage::

    from repro.bench.figures import run_experiment, EXPERIMENTS
    from repro.hardware.config import MachineConfig
    result = run_experiment("fig9a")
    print(result.render())
    assert result.all_claims_hold
    base = MachineConfig()
    slow = run_experiment("fig9b", base.replace(
        bte_get_bandwidth=0.6 * base.bte_get_bandwidth))

Scale: experiments run at a laptop-friendly default; set the environment
variable ``REPRO_PAPER_SCALE=1`` to run the full published sweeps (core
counts up to 15,360 for Table I — budget minutes, not seconds).
"""

from repro.bench.harness import Claim, ExperimentResult, Series, paper_scale

__all__ = ["ExperimentResult", "Series", "Claim", "paper_scale"]
