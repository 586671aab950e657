"""The seven benchmark workloads.

Each workload is a closed, single-process batch run through the public
app entry points (``kneighbor``, ``run_nqueens``, ``run_minimd``).  Its
``app_msgs`` is fixed *here*, by formula or pinned constant, and never
read from the program: a change to protocol message counts cannot move
``msgs_per_s``, and the program's own count is checked against it.

Sizes are one third of the ones the issue sketched (which took 4-7 s
each): the driver's time cap leaves ~20 s per run, and a run needs
several fresh-process repeats to find a quiet one.  ``div`` shrinks a
workload further for the traced run (5) and ``--quick`` (10).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any, Optional

from repro import sanitize
from repro.apps.kneighbor import kneighbor
from repro.apps.minimd.app import run_minimd
from repro.apps.minimd.system import SYSTEMS, Decomposition
from repro.apps.nqueens.app import run_nqueens
from repro.apps.nqueens.workmodel import (build_task_tree,
                                          paper_threshold_to_depth)
from repro.charm import Chare, Charm
from repro.hardware.config import MachineConfig
from repro.lrts.factory import make_runtime
from repro.sim import Engine
from repro.units import KB

#: lrts.stats() keys that count one delivered application message each
SENT_KEYS = ("small_sent", "rendezvous_sent", "persistent_sent",
             "intranode_sent", "inline_sent", "eager_sent", "sent")
#: lrts.stats() keys that must read zero once a fault-free run has drained
ZERO_KEYS = ("smsg_in_flight", "pool_live_blocks", "rel_failed",
             "rndv_failed", "persistent_failed", "rc_giveups",
             "rdma_giveups", "rc_lost")


@dataclass
class Outcome:
    """What one workload call hands back to the harness."""

    #: simulated results at full precision (input of ``sim_checksum``)
    sim: dict[str, Any]
    #: the program's own count of delivered/sent messages
    msgs: int
    #: ``lrts.stats()`` of every machine the call built
    stats: list[dict[str, Any]]
    #: the machines themselves (engine and network counters)
    machines: list[Any]
    #: workload-specific checks, name -> passed
    checks: dict[str, bool] = field(default_factory=dict)


def sim_checksum(sim: dict[str, Any]) -> str:
    """sha256 over full-precision reprs (``benchmarks/run_all.checksum``)."""
    blob = ";".join(f"{k}={v!r}" for k, v in sorted(sim.items()))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def recording_engine(machines: list) -> Engine:
    """A plain ``Engine`` that appends the machine built on it to
    ``machines``.

    The app entry points build their machine internally and return only
    results.  ``Machine.__init__`` offers itself to ``engine.bind_machine``
    when the engine has one (how the sharded engine learns the node
    partition); setting it on the instance leaves ``type(engine) is
    Engine``, so the C core stays bound and nothing is patched.
    """
    engine = Engine()
    engine.bind_machine = machines.append
    return engine


class _Idle(Chare):
    """Element of the construction probe's array: does nothing."""

    def __init__(self) -> None:
        pass


def _construct(n_elements: int, **runtime_kw: Any) -> None:
    """Set-up's construction probe: runtime + Charm + one array, dropped."""
    conv, _lrts = make_runtime(**runtime_kw)
    Charm(conv).create_array(_Idle, n_elements, map="round_robin",
                             name="probe")


class Workload:
    """Interface the harness drives; see the three subclasses."""

    name: str
    why: str

    def app_msgs(self, div: int) -> int:
        raise NotImplementedError

    def bootstrap_msgs(self, div: int) -> int:
        """Messages the app sends to get going, on top of ``app_msgs``."""
        return 0

    def inputs(self, seed: int) -> Any:
        """Generate inputs from the seed (part of ``setup_s``)."""
        return None

    def construct(self, div: int) -> None:
        """Build and drop a runtime of this workload's shape."""
        raise NotImplementedError

    def run(self, inputs: Any, seed: int, div: int) -> Outcome:
        raise NotImplementedError


# --------------------------------------------------------------------- #
# kNeighbor family
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Knb:
    """One ``kneighbor`` call."""

    size: int
    iters: int
    n_cores: int = 64
    k: int = 4
    warmup: int = 3
    layer: str = "ugni"
    config: Optional[MachineConfig] = None

    def scaled(self, div: int) -> "Knb":
        """1/div of the work: fewer iterations, or — once those are down
        to one — fewer cores (``knb_10k`` has a single iteration)."""
        iters = self.iters // div
        if iters >= 1:
            return dataclasses.replace(self, iters=iters)
        cores = max(2 * self.k + 1, self.n_cores * self.iters // div)
        return dataclasses.replace(self, iters=1, n_cores=cores)

    @property
    def msgs(self) -> int:
        # every core sends 2k messages and 2k ping-backs per iteration
        return self.n_cores * 2 * self.k * 2 * (self.iters + self.warmup)


class KNeighbor(Workload):
    def __init__(self, name: str, why: str, *cases: Knb,
                 sanitized: bool = False):
        self.name = name
        self.why = why
        self.cases = cases
        self.sanitized = sanitized

    def _cases(self, div: int) -> list[Knb]:
        return [c.scaled(div) for c in self.cases]

    def app_msgs(self, div: int) -> int:
        return sum(c.msgs for c in self._cases(div))

    def bootstrap_msgs(self, div: int) -> int:
        # charm.start broadcasts begin() from PE 0 to the other n-1
        return sum(c.n_cores - 1 for c in self._cases(div))

    def construct(self, div: int) -> None:
        for c in self._cases(div):
            cfg = (c.config or MachineConfig()).replace(cores_per_node=1)
            _construct(c.n_cores, n_nodes=c.n_cores, layer=c.layer,
                       config=cfg)

    def run(self, inputs: Any, seed: int, div: int) -> Outcome:
        if self.sanitized:
            sanitize.clear_registry()
        sim: dict[str, Any] = {}
        stats: list[dict] = []
        machines: list = []
        for i, c in enumerate(self._cases(div)):
            res = kneighbor(c.size, layer=c.layer, k=c.k, n_cores=c.n_cores,
                            config=c.config, iters=c.iters, warmup=c.warmup,
                            seed=seed, engine=recording_engine(machines))
            sim[f"{i}.iteration_time"] = res.iteration_time
            sim[f"{i}.stats"] = sorted(res.stats.items())
            stats.append(res.stats)
        checks = {}
        if self.sanitized:
            try:
                sanitize.assert_clean(self.name)
                checks["sanitizer_clean"] = True
            except sanitize.SanitizeViolation:
                checks["sanitizer_clean"] = False
        return Outcome(sim, sum(s["delivered"] for s in stats), stats,
                       machines, checks)


# --------------------------------------------------------------------- #
# N-Queens
# --------------------------------------------------------------------- #
class NQueens(Workload):
    name = "nqueens_dyn"
    why = ("88 B tasks to random PEs: the SMSG path of knb_small, but the "
           "router sees random far pairs (hop-cache misses, long walks), "
           "plus intranode pxshm and charge-heavy handlers")

    N, THRESHOLD, N_PES = 13, 7, 1536
    #: tasks in the 13-Queens threshold-7 tree; each is one message
    TASKS = 38_680
    SOLUTIONS = 73_712

    def app_msgs(self, div: int) -> int:
        return self.TASKS  # one placement of the whole tree, at any div

    def inputs(self, seed: int) -> Any:
        # the tree is the exact 13-Queens search; the seed only moves
        # tasks between PEs (run), never what is searched
        return build_task_tree(self.N, paper_threshold_to_depth(self.THRESHOLD),
                               mode="exact")

    def construct(self, div: int) -> None:
        _construct(self.N_PES, n_pes=self.N_PES, layer="ugni")

    def run(self, inputs: Any, seed: int, div: int) -> Outcome:
        machines: list = []
        res = run_nqueens(self.N, self.THRESHOLD, self.N_PES, layer="ugni",
                          seed=seed, tree=inputs,
                          engine=recording_engine(machines))
        sim = {
            "total_time": res.total_time,
            "messages_sent": res.messages_sent,
            "utilization": sorted(res.utilization.items()),
            "layer_stats": sorted(res.layer_stats.items()),
        }
        # run_nqueens itself asserts tasks_executed == tree.n_tasks
        ok = res.n_tasks == self.TASKS and res.solutions == self.SOLUTIONS
        return Outcome(sim, res.messages_sent, [res.layer_stats], machines,
                       {"tree_and_solutions": ok})


# --------------------------------------------------------------------- #
# mini-NAMD
# --------------------------------------------------------------------- #
class MiniMD(Workload):
    name = "minimd_mixed"
    why = ("the paper's NAMD stand-in: mixed sizes (small, rendezvous, "
           "intranode), multicast, reductions and one LB step with "
           "migrations; the only workload where charm and memory.pxshm "
           "carry a large share")

    SYSTEM, N_PES, STEPS, WARMUP = "dhfr", 192, 2, 1
    #: ``run_minimd(seed=)`` jitters per-patch atom counts, which moves the
    #: load balancer's placement and with it both the message count and
    #: the host time - seed 3 costs 15 % less than seed 0, more than any
    #: bound.  The workload therefore always runs seed 0 and ``--seed``
    #: does not reach it; in exchange its message count is exact.
    SEED = 0
    #: messages delivered, by measured steps
    MSGS = {2: 47_102, 1: 31_609}

    def _steps(self, div: int) -> int:
        return max(1, self.STEPS // div)

    def app_msgs(self, div: int) -> int:
        return self.MSGS[self._steps(div)]

    def inputs(self, seed: int) -> Any:
        # run_minimd builds its own copy; this one is what set-up times
        return Decomposition(SYSTEMS[self.SYSTEM], self.N_PES, seed=self.SEED)

    def construct(self, div: int) -> None:
        _construct(self.N_PES, n_pes=self.N_PES, layer="ugni")

    def run(self, inputs: Any, seed: int, div: int) -> Outcome:
        machines: list = []
        steps = self._steps(div)
        res = run_minimd(self.SYSTEM, self.N_PES, layer="ugni", steps=steps,
                         warmup=self.WARMUP, seed=self.SEED,
                         engine=recording_engine(machines))
        sim = {
            "step_times": res.step_times,
            "migrations": res.migrations,
            "utilization": sorted(res.utilization.items()),
            "layer_stats": sorted(res.layer_stats.items()),
        }
        checks = {
            "all_steps_ran": len(res.step_times) == steps + self.WARMUP,
            "lb_migrated": res.migrations > 0,
        }
        return Outcome(sim, res.layer_stats["delivered"], [res.layer_stats],
                       machines, checks)


# --------------------------------------------------------------------- #
# the closed list
# --------------------------------------------------------------------- #
_DRAGONFLY = MachineConfig(topology="dragonfly")

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    KNeighbor(
        "knb_small",
        "256 B kNeighbor, 64 nodes, k=4: the pure SMSG path under "
        "contention (scheduler, ugni_layer small path, smsg/cq, NIC, "
        "router/link); mempool, regcache and ugni.rdma do nothing",
        Knb(256, iters=80)),
    KNeighbor(
        "knb_large",
        "the same shape at 256 KB: GET rendezvous (two control SMSGs, "
        "pool alloc/free, RdmaEngine post, BTE, link contention) in "
        "layers knb_small never enters",
        Knb(256 * KB, iters=13)),
    KNeighbor(
        "knb_10k",
        "32 B kNeighbor on 10,240 nodes, one iteration: cold per-PE "
        "state, deep event heap and ~215 MB RSS that 64-node runs "
        "amortise away; where peak_rss_mb matters",
        Knb(32, iters=1, n_cores=10240, k=1, warmup=0)),
    NQueens(),
    MiniMD(),
    KNeighbor(
        "fabric_mix",
        "kNeighbor at 128 B, 8 KB, 256 KB on mpi (torus), rdma "
        "(dragonfly): mpish matching/udreg, RC queue pairs, pin-down "
        "cache, inline/eager/rendezvous ladders, dragonfly routes: "
        "code no ugni workload runs",
        *(Knb(size, iters=5, layer=layer, config=cfg)
          for layer, cfg in (("mpi", None), ("rdma", _DRAGONFLY))
          for size in (128, 8 * KB, 256 * KB))),
    KNeighbor(
        "knb_observed",
        "knb_small with observer and sanitizer on: the hook sites as "
        "writers rather than is-None guards (~4.5x per-message cost)",
        Knb(256, iters=20, config=MachineConfig(observe=True, sanitize=True)),
        sanitized=True),
)}


def generic_checks(workload: Workload, out: Outcome, div: int) -> dict[str, bool]:
    """The checks every workload shares, merged with its own."""
    checks = {
        "msgs_match_definition": out.msgs == (
            workload.app_msgs(div) + workload.bootstrap_msgs(div)),
        "delivered_conserved": all(
            s["delivered"] == sum(s.get(k, 0) for k in SENT_KEYS)
            for s in out.stats),
        "drained_and_lossless": all(
            s.get(k, 0) == 0 for s in out.stats for k in ZERO_KEYS),
    }
    checks.update(out.checks)
    return checks
