"""repro — a reproduction of the uGNI-based asynchronous message-driven
runtime system for Cray Gemini (Sun, Zheng, Kalé, Jones, Olson; IPDPS 2012)
on a from-scratch discrete-event hardware simulation.

Layer map (bottom to top), mirroring the paper's Figure 3:

* :mod:`repro.sim` — deterministic discrete-event kernel.
* :mod:`repro.hardware` — Cray XE6 nodes + Gemini NICs (FMA/BTE) on a 3D
  torus with link-level contention.
* :mod:`repro.ugni` — the user-level Generic Network Interface (SMSG,
  MSGQ, CQs, memory registration, PostFma/PostRdma).
* :mod:`repro.mpish` — an MPI subset implemented on uGNI (the baseline
  substrate, Cray-MPI-like: eager/rendezvous, uDREG).
* :mod:`repro.lrts` — the paper's Low-level RunTime System interface, with
  the uGNI machine layer (the contribution) and the MPI machine layer (the
  baseline).
* :mod:`repro.converse` / :mod:`repro.charm` — the message-driven runtime
  and programming model.
* :mod:`repro.apps` — ping-pong, one-to-all, kNeighbor, N-Queens and
  mini-NAMD used by the paper's evaluation.
* :mod:`repro.observe` — metrics, causal message traces, flight recorder
  and the time-binned utilization profile (the paper's Projections tool).
* :mod:`repro.bench` — the harness that regenerates every table and figure.

Quick start::

    from repro import MachineConfig
    from repro.bench.figures import run_experiment
    result = run_experiment("fig9a")   # latency comparison, five variants
    print(result.render())
    # the same exhibit on a perturbed machine: registration for free
    free = MachineConfig().replace(mem_register_per_page=0.0)
    print(run_experiment("fig9a", config=free).render())
"""

from repro.hardware import Machine, MachineConfig
from repro.sim import Engine

__version__ = "1.0.0"

__all__ = ["Machine", "MachineConfig", "Engine", "__version__"]
