"""mini-NAMD driver and measurement (Table II, Fig. 13)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Union

import numpy as np

from repro.apps.minimd.chares import (Compute, Driver, MDContext, Patch,
                                      PmeSlab, ProxyMgr)
from repro.apps.minimd.system import SYSTEMS, Decomposition, MDSystem
from repro.charm import Charm
from repro.hardware.config import MachineConfig
from repro.lrts.factory import make_runtime


@dataclass
class MiniMDResult:
    system: str
    n_pes: int
    layer: str
    #: per-step wall time (simulated), one entry per completed step
    step_times: list[float]
    warmup: int
    decomposition: dict
    migrations: int
    utilization: dict = field(default_factory=dict)
    layer_stats: dict = field(default_factory=dict)

    @property
    def ms_per_step(self) -> float:
        """Mean measured step time (ms).

        Warm-up/LB steps are excluded, and so is the final step: with the
        asynchronous pipeline, patches run ahead of the timing reduction,
        so the last step's reduction arrives almost immediately after its
        predecessor (pipeline drain) and would bias the mean down.
        """
        measured = self.step_times[self.warmup:]
        if len(measured) >= 2:
            measured = measured[:-1]
        if not measured:
            return float("nan")
        return float(np.mean(measured)) * 1e3


def run_minimd(
    system: Union[str, MDSystem],
    n_pes: int,
    layer: str = "ugni",
    steps: int = 3,
    warmup: int = 2,
    lb: bool = True,
    config: Optional[MachineConfig] = None,
    seed: int = 0,
    patch_grid: Optional[tuple[int, int, int]] = None,
    max_events: Optional[int] = None,
    engine: Optional[Any] = None,
) -> MiniMDResult:
    """Run mini-NAMD: ``warmup`` steps (LB after the last one), then
    ``steps`` measured steps with PME every step (the paper's §V.D setup).
    """
    sysobj = SYSTEMS[system] if isinstance(system, str) else system
    if patch_grid is not None:
        sysobj = sysobj.with_patch_grid(patch_grid)
    decomp = Decomposition(sysobj, n_pes, seed=seed)
    conv, lrts = make_runtime(n_pes=n_pes, layer=layer, config=config,
                              seed=seed, engine=engine)
    charm = Charm(conv)
    total_steps = warmup + steps
    ctx = MDContext(decomp, total_steps, lb_at=warmup if lb else None)
    ctx.charm = charm
    # topological placement: consecutive patch ids are grid neighbors, so
    # a block map keeps neighboring patches on the same node (NAMD's
    # ORB-style patch placement)
    ctx.patches = charm.create_array(Patch, decomp.n_patches, args=(ctx,),
                                     map="block", name="patches")
    ctx.proxymgr = charm.create_group(ProxyMgr, args=(ctx,), name="proxymgr")
    ctx.computes = charm.create_array(Compute, decomp.n_computes, args=(ctx,),
                                      map="round_robin", name="computes")
    # spread PME slabs over the whole machine (block map): concentrating
    # them on the first PEs would hotspot those nodes with the all-to-all
    # transpose traffic
    ctx.slabs = charm.create_array(PmeSlab, decomp.n_slabs, args=(ctx,),
                                   map="block", name="pme")
    ctx.driver = charm.create_array(Driver, 1, args=(ctx,), name="driver")
    charm.start(lambda pe: ctx.driver[0].kick())
    charm.run(max_events=max_events)

    assert len(ctx.step_times) == total_steps, (
        f"run incomplete: {len(ctx.step_times)}/{total_steps} steps"
    )
    # convert reduction-arrival stamps to per-step durations
    stamps = np.array(ctx.step_times)
    durations = np.diff(np.concatenate(([0.0], stamps))).tolist()
    return MiniMDResult(
        system=sysobj.name,
        n_pes=n_pes,
        layer=layer,
        step_times=durations,
        warmup=warmup,
        decomposition=decomp.summary(),
        migrations=ctx.migrations,
        utilization=conv.total_utilization(),
        layer_stats=lrts.stats(),
    )
