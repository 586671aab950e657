"""Tests for the mini-NAMD application and its decomposition."""

import numpy as np
import pytest

from repro.apps.minimd import APOA1, DHFR, IAPP, Decomposition, MDSystem, run_minimd
from repro.apps.minimd.system import SYSTEMS, WORK_SPLIT
from repro.charm.loadbalancer import greedy_plan, greedy_plan_comm
from repro.hardware.config import tiny as tiny_config

TINY = MDSystem("tiny", 4000, (2, 2, 2), 8, 0.002)


def max_load(loads, plan, n_pes):
    """Max per-PE load under a plan."""
    per_pe = [0.0] * n_pes
    for idx, load in loads.items():
        per_pe[plan[idx]] += load
    return max(per_pe)


class TestSystems:
    def test_paper_systems_atom_counts(self):
        assert APOA1.n_atoms == 92224
        assert DHFR.n_atoms == 23558
        assert IAPP.n_atoms == 5570

    def test_budgets_scale_with_atoms(self):
        assert APOA1.step_compute_seconds > DHFR.step_compute_seconds
        assert DHFR.step_compute_seconds > IAPP.step_compute_seconds

    def test_position_messages_in_paper_range(self):
        """Paper §V.D: message sizes typically 1K-16K bytes."""
        for s in (APOA1, DHFR, IAPP):
            assert 1024 <= s.position_msg_bytes() <= 16 * 1024


class TestDecomposition:
    def test_atom_conservation(self):
        d = Decomposition(APOA1, 48)
        assert d.patch_atoms.sum() == pytest.approx(APOA1.n_atoms, abs=d.n_patches)

    def test_work_budget_partition(self):
        d = Decomposition(APOA1, 48)
        total = (d.compute_work.sum() + 3 * d.n_slabs * d.slab_work
                 + d.patch_integration.sum())
        assert total == pytest.approx(APOA1.step_compute_seconds, rel=1e-6)

    def test_split_scales_with_cores(self):
        small = Decomposition(TINY, 4)
        big = Decomposition(TINY, 512)
        assert big.split > small.split
        assert big.n_computes >= 2 * 512

    def test_pairs_cover_all_neighbor_relations(self):
        d = Decomposition(TINY, 4)
        kinds = [k for _, _, k in d.pairs]
        assert kinds.count("self") == d.n_patches
        assert any(k == "face" for k in kinds)

    def test_every_slab_has_contributors(self):
        for n_pes in (4, 48, 240):
            d = Decomposition(APOA1, n_pes)
            assert all(d.slab_patches)

    def test_patch_computes_wiring_symmetry(self):
        d = Decomposition(TINY, 4)
        # every compute appears in the lists of exactly its 1-2 patches
        seen = {}
        for p, cs in enumerate(d.patch_computes):
            for c in cs:
                seen.setdefault(c, []).append(p)
        for c, patches in seen.items():
            a, b, _ = d.pairs[c // d.split]
            assert set(patches) == ({a} if a == b else {a, b})


class TestLoadBalancer:
    def test_greedy_reduces_max_load(self):
        rng = np.random.default_rng(0)
        loads = {i: float(w) for i, w in enumerate(rng.lognormal(0, 1, 200))}
        naive = {i: i % 8 for i in loads}
        plan = greedy_plan(loads, 8)
        assert max_load(loads, plan, 8) <= max_load(loads, naive, 8)

    def test_greedy_near_optimal_balance(self):
        loads = {i: 1.0 for i in range(64)}
        plan = greedy_plan(loads, 8)
        assert max_load(loads, plan, 8) == pytest.approx(8.0)

    def test_background_respected(self):
        loads = {0: 1.0, 1: 1.0}
        plan = greedy_plan(loads, 2, background={0: 10.0})
        assert plan == {0: 1, 1: 1}

    def test_locality_preferred_when_affordable(self):
        loads = {i: 1.0 for i in range(8)}
        preferred = {i: [0, 1] for i in range(8)}
        plan = greedy_plan_comm(loads, 8, preferred, obj_groups={},
                                tolerance=10.0)
        assert set(plan.values()) <= {0, 1}

    def test_locality_yields_to_balance(self):
        loads = {i: 1.0 for i in range(100)}
        preferred = {i: [0] for i in range(100)}
        plan = greedy_plan_comm(loads, 10, preferred, obj_groups={},
                                tolerance=1.05)
        assert len(set(plan.values())) > 1  # spilled off the preferred PE

    def test_comm_aware_packs_groups(self):
        # 4 groups x 8 objects, 16 PEs: packing should use far fewer
        # distinct (group, pe) pairs than spreading
        loads = {}
        groups = {}
        for g in range(4):
            for j in range(8):
                idx = g * 8 + j
                loads[idx] = 1.0
                groups[idx] = (g,)
        plan = greedy_plan_comm(loads, 16, preferred={}, obj_groups=groups,
                                tolerance=3.0)
        pairs = {(groups[i][0], pe) for i, pe in plan.items()}
        spread_pairs = {(groups[i][0], i % 16) for i in loads}
        assert len(pairs) < len(spread_pairs)


class TestMiniMDRuns:
    def _run(self, layer="ugni", n_pes=8, **kw):
        kw.setdefault("steps", 2)
        kw.setdefault("warmup", 1)
        return run_minimd(TINY, n_pes, layer=layer, config=tiny_config(), **kw)

    def test_completes_all_steps(self):
        r = self._run()
        assert len(r.step_times) == 3
        assert r.ms_per_step > 0

    def test_work_conservation_across_layers(self):
        """Same simulated work must be charged on either machine layer."""
        # (checked indirectly: both finish and step time > pure-work bound)
        ideal = TINY.step_compute_seconds / 8 * 1e3
        for layer in ("ugni", "mpi"):
            r = self._run(layer=layer)
            assert r.ms_per_step >= 0.9 * ideal

    def test_more_cores_faster(self):
        t4 = self._run(n_pes=4).ms_per_step
        t16 = self._run(n_pes=16).ms_per_step
        assert t16 < t4

    def test_ugni_not_slower_than_mpi(self):
        t_u = self._run(layer="ugni", n_pes=16, steps=3).ms_per_step
        t_m = self._run(layer="mpi", n_pes=16, steps=3).ms_per_step
        assert t_u <= t_m * 1.05

    def test_lb_migrates_and_improves(self):
        with_lb = self._run(n_pes=16, steps=3, warmup=2, lb=True)
        without = self._run(n_pes=16, steps=3, warmup=2, lb=False)
        assert with_lb.migrations > 0
        assert without.migrations == 0
        assert with_lb.ms_per_step <= without.ms_per_step * 1.1

    def test_deterministic(self):
        a = self._run(seed=5)
        b = self._run(seed=5)
        assert a.step_times == b.step_times

    def test_proxymgr_accounting_drains(self, monkeypatch):
        """Every (step, patch) expect/got entry is deleted once its forces
        went back — looking at a key must not plant a zero entry."""
        from repro.apps.minimd import chares
        made = []
        init = chares.ProxyMgr.__init__

        def recording_init(self, ctx):
            init(self, ctx)
            made.append(self)

        monkeypatch.setattr(chares.ProxyMgr, "__init__", recording_init)
        self._run(n_pes=16, steps=3, warmup=2, lb=True)
        assert len(made) == 16
        assert [(dict(m.expect), dict(m.got)) for m in made] == [({}, {})] * 16

    def test_custom_patch_grid(self):
        r = run_minimd(TINY, 8, config=tiny_config(), steps=1, warmup=1,
                       patch_grid=(2, 2, 1))
        assert r.decomposition["patches"] == 4

    def test_apoa1_two_core_step_near_paper(self):
        """Table II anchor: ApoA1 on 2 cores ≈ 987 ms/step."""
        r = run_minimd("apoa1", 2, steps=3, warmup=1)
        assert 800 < r.ms_per_step < 1100
