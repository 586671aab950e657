"""mini-NAMD chares: patches, proxies, computes, PME slabs, step driver.

The pipeline is fully asynchronous, as in NAMD: there is **no global
barrier between steps**.  A patch that has integrated step *s* immediately
multicasts its step *s+1* positions; neighbors still working on *s* simply
buffer them (every message carries its step).  This is the "asynchronous
communication which allows dynamic overlapping of communication and
computation" the paper credits for NAMD's latency tolerance (§V.D) — the
global synchronization implicit in PME remains, because a slab cannot
start its FFT until every contribution of that step has arrived.

Per-step protocol:

1. ``Patch.start_step(s)`` — group this patch's computes by their current
   PE and send **one** position message per PE to that PE's
   :class:`ProxyMgr` (NAMD's proxy pattern); send charge-grid
   contributions to the patch's PME slabs.
2. ``ProxyMgr.deliver_positions`` — fan out to local computes with zero
   extra messages; remember how many step-*s* force contributions to
   expect for that patch.
3. ``Compute.positions`` — once both patches' step-*s* positions are in,
   charge the measured force work and report to the issuing managers,
   which aggregate **one** force message per (patch, PE, step).
4. ``PmeSlab`` — gather step-*s* contributions → FFT stage → all-to-all
   transpose → stage → transpose back → stage → scatter forces.
5. ``Patch`` — when step-*s* force coverage is complete and all slabs
   reported, charge integration, contribute to the step-*s* reduction
   (timing only), and pipeline into step *s+1*.
6. ``Driver.step_done`` — record the step time; after the warm-up step,
   compute and broadcast the communication-aware greedy LB plan.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Optional

from repro.apps.minimd.system import Decomposition
from repro.charm import Chare
from repro.charm.loadbalancer import greedy_plan_comm, plan_cpu_cost


class MDContext:
    """Shared wiring + measurement state for one mini-NAMD run."""

    def __init__(self, decomp: Decomposition, total_steps: int,
                 lb_at: Optional[int]):
        self.decomp = decomp
        self.total_steps = total_steps
        #: run the load balancer when this step's reduction completes
        self.lb_at = lb_at
        # proxies, filled by the app driver
        self.patches = None
        self.computes = None
        self.slabs = None
        self.proxymgr = None
        self.driver = None
        self.charm = None
        #: reduction-arrival time per completed step
        self.step_times: list[float] = []
        self.migrations = 0
        # LB snapshots
        self._lb_snapshot: dict[int, float] = {}
        self._lb_pe_snapshot: dict[int, float] = {}

    def compute_home(self, c: int) -> int:
        return self.charm.collections[self.computes.aid].home_of(c)


class Patch(Chare):
    """One spatial cell: owns its atoms, drives its computes."""

    def __init__(self, ctx: MDContext):
        self.ctx = ctx
        #: per step: computes covered by force messages so far
        self.force_cover: dict[int, int] = defaultdict(int)
        self.pme_count: dict[int, int] = defaultdict(int)
        self.step = 0  # last step started

    def start_step(self, s: int) -> None:
        d = self.ctx.decomp
        p = self.thisIndex
        self.step = s
        groups: dict[int, list[int]] = defaultdict(list)
        for c in d.patch_computes[p]:
            groups[self.ctx.compute_home(c)].append(c)
        nbytes = d.position_bytes(p)
        for pe_rank, ids in groups.items():
            self.ctx.proxymgr[pe_rank].deliver_positions(p, ids, s,
                                                         _size=nbytes)
        pme_bytes = d.pme_bytes(p)
        for slab in d.patch_slabs[p]:
            self.ctx.slabs[slab].contrib(p, s, _size=pme_bytes)

    def forces_bundle(self, covered: int, s: int) -> None:
        self.force_cover[s] += covered
        self._maybe_integrate(s)

    def pme_forces(self, _slab: int, s: int) -> None:
        self.pme_count[s] += 1
        self._maybe_integrate(s)

    def _maybe_integrate(self, s: int) -> None:
        d = self.ctx.decomp
        p = self.thisIndex
        need = len(d.patch_computes[p])
        n_pme = len(d.patch_slabs[p])
        if self.force_cover[s] < need or self.pme_count[s] < n_pme:
            return
        del self.force_cover[s]
        del self.pme_count[s]
        self.charge(float(d.patch_integration[p]))
        # timing reduction (does not gate the pipeline)
        self.contribute(1, "sum", self.ctx.driver[0].step_done)
        if s + 1 <= self.ctx.total_steps:
            self.start_step(s + 1)


class ProxyMgr(Chare):
    """Per-PE proxy: receives position bundles, aggregates force returns."""

    def __init__(self, ctx: MDContext):
        self.ctx = ctx
        #: (step, patch) -> expected / received force contributions
        self.expect: dict[tuple[int, int], int] = defaultdict(int)
        self.got: dict[tuple[int, int], int] = defaultdict(int)

    def deliver_positions(self, patch: int, ids: list, s: int) -> None:
        """Fan positions out to the bundle's computes.

        Every compute in the bundle replies to *this* manager (the bundle
        carries the reply PE), so the expect/got accounting stays exact
        even when a compute migrated between the patch's send and now —
        the reply just crosses the network as a small message.

        expect is bumped *before* invoking: computes that already hold
        their other patch's positions fire inside local_invoke and call
        accumulate() re-entrantly.
        """
        charm = self.ctx.charm
        me = self.my_pe
        self.expect[(s, patch)] += len(ids)
        for c in ids:
            # present elements run inline; in-flight migrants are buffered
            # at this PE; stale ids are forwarded as real messages
            charm.local_invoke(self.ctx.computes, c, "positions",
                               (patch, me, s))
        self._maybe_flush(patch, s)

    def accumulate(self, patch: int, s: int) -> None:
        """A compute finished step-``s`` work involving ``patch`` for a
        bundle this manager issued."""
        self.got[(s, patch)] += 1
        self._maybe_flush(patch, s)

    def _maybe_flush(self, patch: int, s: int) -> None:
        key = (s, patch)
        # .get: a look must not leave a zero entry behind in a defaultdict
        covered = self.expect.get(key, 0)
        if covered and self.got.get(key, 0) >= covered:
            del self.expect[key]
            self.got[key] -= covered
            if not self.got[key]:
                del self.got[key]
            d = self.ctx.decomp
            self.ctx.patches[patch].forces_bundle(covered, s,
                                                  _size=d.force_bytes(patch))


class Compute(Chare):
    """A (possibly split) pairwise-force object; migratable."""

    def __init__(self, ctx: MDContext):
        self.ctx = ctx
        #: step -> [(patch, reply_pe), ...] position bundles received
        self.pending: dict[int, list[tuple[int, int]]] = defaultdict(list)

    def _pair(self):
        d = self.ctx.decomp
        return d.pairs[self.thisIndex // d.split]

    def positions(self, patch: int, reply_pe: int, s: int) -> None:
        a, b, _k = self._pair()
        needed = 1 if a == b else 2
        self.pending[s].append((patch, reply_pe))
        if len(self.pending[s]) < needed:
            return
        replies = self.pending.pop(s)
        d = self.ctx.decomp
        self.charge(float(d.compute_work[self.thisIndex]))
        # report to the issuing proxy managers: a plain call when we still
        # sit on that PE, a small message when a migration moved us away
        charm = self.ctx.charm
        for patch_id, reply in replies:
            if reply == self.my_pe:
                charm.local_invoke(self.ctx.proxymgr, reply, "accumulate",
                                   (patch_id, s))
            else:
                self.ctx.proxymgr[reply].accumulate(patch_id, s, _size=64)

    def apply_lb(self, plan: dict) -> None:
        target = plan.get(self.thisIndex)
        if target is not None and target != self.my_pe:
            self.ctx.migrations += 1
            self.migrate_to(target, state_bytes=512)


class PmeSlab(Chare):
    """One slab of the PME grid: gather, 3 FFT stages, 2 transposes, scatter."""

    def __init__(self, ctx: MDContext):
        self.ctx = ctx
        self.contribs: dict[int, int] = defaultdict(int)
        self.t1: dict[int, int] = defaultdict(int)
        self.t2: dict[int, int] = defaultdict(int)

    def _others(self):
        s = self.ctx.decomp.n_slabs
        me = self.thisIndex
        return (i for i in range(s) if i != me)

    def contrib(self, _patch: int, step: int) -> None:
        d = self.ctx.decomp
        self.contribs[step] += 1
        if self.contribs[step] < len(d.slab_patches[self.thisIndex]):
            return
        del self.contribs[step]
        self.charge(d.slab_work)  # forward FFT stage
        for o in self._others():
            self.ctx.slabs[o].transpose1(step, _size=d.transpose_bytes)
        if d.n_slabs == 1:
            self._finish(step)

    def transpose1(self, step: int) -> None:
        d = self.ctx.decomp
        self.t1[step] += 1
        if self.t1[step] < d.n_slabs - 1:
            return
        del self.t1[step]
        self.charge(d.slab_work)  # middle stage
        for o in self._others():
            self.ctx.slabs[o].transpose2(step, _size=d.transpose_bytes)

    def transpose2(self, step: int) -> None:
        d = self.ctx.decomp
        self.t2[step] += 1
        if self.t2[step] < d.n_slabs - 1:
            return
        del self.t2[step]
        self._finish(step)

    def _finish(self, step: int) -> None:
        d = self.ctx.decomp
        self.charge(d.slab_work)  # backward FFT stage
        for p in d.slab_patches[self.thisIndex]:
            self.ctx.patches[p].pme_forces(self.thisIndex, step,
                                           _size=d.pme_bytes(p))


class Driver(Chare):
    """Singleton: collects the timing reduction, runs LB once."""

    def __init__(self, ctx: MDContext):
        self.ctx = ctx
        self.steps_done = 0

    def kick(self) -> None:
        self.ctx.patches.start_step(1)

    def step_done(self, _count) -> None:
        ctx = self.ctx
        ctx.step_times.append(self.now())
        self.steps_done += 1
        if ctx.lb_at is not None and self.steps_done == ctx.lb_at:
            self._run_lb()

    def _run_lb(self) -> None:
        """Communication-aware central greedy LB from measured loads (§V.D).

        Background (non-migratable patch/PME/runtime) load per PE is fed
        to the strategy; each compute prefers PEs on the nodes hosting its
        patches, and computes sharing a patch pack onto the same PEs to
        minimize position-multicast volume — the essentials of NAMD's LB.
        """
        ctx = self.ctx
        charm = self.charm
        machine = charm.conv.machine
        coll = charm.collections[ctx.computes.aid]
        pcoll = charm.collections[ctx.patches.aid]
        loads = {}
        per_pe_compute: dict[int, float] = defaultdict(float)
        for pe_rank, elems in coll.by_pe():
            for idx, elem in elems.items():
                total = elem._lb_load
                loads[idx] = total - ctx._lb_snapshot.get(idx, 0.0)
                ctx._lb_snapshot[idx] = total
                per_pe_compute[pe_rank] += loads[idx]
        n_pes = len(charm.conv.pes)
        background = {}
        for pe in charm.conv.pes:
            busy = (pe.useful_time + pe.overhead_time) - ctx._lb_pe_snapshot.get(
                pe.rank, 0.0)
            ctx._lb_pe_snapshot[pe.rank] = pe.useful_time + pe.overhead_time
            background[pe.rank] = max(0.0, busy - per_pe_compute[pe.rank])

        # preferred PEs: those on the nodes hosting the compute's patches
        d = ctx.decomp
        node_pes: dict[int, list[int]] = defaultdict(list)
        for pe_rank in range(n_pes):
            node_pes[machine.node_of_pe(pe_rank).node_id].append(pe_rank)
        preferred = {}
        obj_groups = {}
        for idx in loads:
            a, b, _k = d.pairs[idx // d.split]
            nodes = {machine.node_of_pe(pcoll.home_of(a)).node_id,
                     machine.node_of_pe(pcoll.home_of(b)).node_id}
            preferred[idx] = [pe for nd in nodes for pe in node_pes[nd]]
            obj_groups[idx] = (a, b)

        self.charge(plan_cpu_cost(len(loads), n_pes))
        plan = greedy_plan_comm(loads, n_pes, preferred, obj_groups,
                                background=background)
        ctx.computes.apply_lb(plan, _size=8 * len(plan))
