"""Molecular systems and their parallel decomposition.

The three benchmark systems are the paper's (§V.D): ApoA1 (92,224 atoms,
the standard NAMD benchmark), DHFR (23,558) and IAPP (5,570).  Per-step
compute budgets are calibrated from the paper's own Table II: ApoA1 on 2
cores runs 987 ms/step, giving ≈1.8 core-seconds of real computation per
step; the smaller systems scale by atom count (non-bonded work within a
fixed cutoff is linear in atoms at constant density).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

#: bytes per atom in a position/force message (x,y,z doubles)
BYTES_PER_ATOM = 24
#: bytes per atom in a PME charge-grid contribution
PME_BYTES_PER_ATOM = 16

#: fraction of the pairwise work captured by each neighbor relation,
#: reflecting how much of the cutoff sphere crosses a face/edge/corner
OVERLAP = {"self": 1.0, "face": 0.5, "edge": 0.22, "corner": 0.08}

#: split of the per-step compute budget (NAMD-typical with PME every step)
WORK_SPLIT = {"nonbonded": 0.85, "pme": 0.10, "integration": 0.05}


@dataclass(frozen=True)
class MDSystem:
    """One benchmark molecular system."""

    name: str
    n_atoms: int
    #: default patch grid (overridable per experiment)
    patch_grid: tuple[int, int, int]
    #: PME grid points per dimension
    pme_grid: int
    #: total core-seconds of computation per step (calibrated, see module doc)
    step_compute_seconds: float

    @property
    def n_patches(self) -> int:
        px, py, pz = self.patch_grid
        return px * py * pz

    @property
    def atoms_per_patch(self) -> float:
        return self.n_atoms / self.n_patches

    def position_msg_bytes(self) -> int:
        return int(self.atoms_per_patch * BYTES_PER_ATOM)

    def with_patch_grid(self, grid: tuple[int, int, int]) -> "MDSystem":
        import dataclasses

        return dataclasses.replace(self, patch_grid=grid)


# -- the paper's systems ------------------------------------------------------
#: ApoA1 2-core step time from Table II (987 ms) at ~92% efficiency
_APOA1_BUDGET = 0.987 * 2 * 0.92

# patch grids sized like NAMD's cutoff-based decomposition: ~500-700
# atoms/patch, position messages ~12-16 KB (the paper's "1K to 16K bytes")
APOA1 = MDSystem("apoa1", 92224, (6, 6, 4), 108, _APOA1_BUDGET)
DHFR = MDSystem("dhfr", 23558, (4, 4, 3), 64,
                _APOA1_BUDGET * 23558 / 92224)
IAPP = MDSystem("iapp", 5570, (2, 2, 3), 48,
                _APOA1_BUDGET * 5570 / 92224)

SYSTEMS = {s.name: s for s in (APOA1, DHFR, IAPP)}


class Decomposition:
    """Patches, computes (with splitting), PME slabs, and their wiring."""

    def __init__(self, system: MDSystem, n_pes: int, seed: int = 0):
        self.system = system
        self.n_pes = n_pes
        px, py, pz = system.patch_grid
        self.n_patches = system.n_patches
        rng = np.random.default_rng(seed)
        #: per-patch atom counts: uniform with ±10% jitter (real systems
        #: are inhomogeneous; this is what the LB earns its keep on)
        raw = rng.normal(system.atoms_per_patch, 0.1 * system.atoms_per_patch,
                         self.n_patches)
        raw = np.clip(raw, 0.5 * system.atoms_per_patch, None)
        self.patch_atoms = np.round(raw * system.n_atoms / raw.sum()).astype(int)

        # -- patch pairs -------------------------------------------------------
        def coord(p):
            return (p % px, (p // px) % py, p // (px * py))

        def pid(x, y, z):
            return (x % px) + px * ((y % py) + py * (z % pz))

        pair_kinds: dict[tuple[int, int], str] = {}
        for p in range(self.n_patches):
            x, y, z = coord(p)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for dz in (-1, 0, 1):
                        if (dx, dy, dz) == (0, 0, 0):
                            continue
                        q = pid(x + dx, y + dy, z + dz)
                        if q == p:
                            continue  # small grids wrap onto themselves
                        key = (min(p, q), max(p, q))
                        nz = sum(1 for d in (dx, dy, dz) if d != 0)
                        kind = {1: "face", 2: "edge", 3: "corner"}[nz]
                        prev = pair_kinds.get(key)
                        # keep the strongest overlap if reachable two ways
                        if prev is None or OVERLAP[kind] > OVERLAP[prev]:
                            pair_kinds[key] = kind

        #: list of (patch_a, patch_b, kind); self computes use a == b
        self.pairs: list[tuple[int, int, str]] = [
            (p, p, "self") for p in range(self.n_patches)
        ] + [(a, b, k) for (a, b), k in sorted(pair_kinds.items())]

        # -- compute splitting (NAMD's answer to cores > pairs) ----------------
        # aim for ~4 objects per core minimum so the greedy LB has slack
        base = len(self.pairs)
        self.split = max(1, math.ceil(4 * n_pes / base))
        #: computes: (pair_index, split_index) flattened
        self.n_computes = base * self.split

        # -- per-compute raw work units ---------------------------------------
        units = np.empty(self.n_computes, dtype=np.float64)
        for i, (a, b, kind) in enumerate(self.pairs):
            u = OVERLAP[kind] * self.patch_atoms[a] * self.patch_atoms[b]
            units[i * self.split:(i + 1) * self.split] = u / self.split
        self.compute_units = units
        nb_budget = system.step_compute_seconds * WORK_SPLIT["nonbonded"]
        self.compute_work = units * (nb_budget / units.sum())

        # -- wiring: patch -> computes ----------------------------------------
        self.patch_computes: list[list[int]] = [[] for _ in range(self.n_patches)]
        for i, (a, b, _k) in enumerate(self.pairs):
            for s in range(self.split):
                c = i * self.split + s
                self.patch_computes[a].append(c)
                if b != a:
                    self.patch_computes[b].append(c)

        # -- PME slabs ----------------------------------------------------------
        self.n_slabs = min(system.pme_grid, max(4, n_pes))
        #: each patch's atoms span a z-range of the charge grid; it
        #: contributes to every slab covering that range (≥ 1 slab)
        self.patch_slabs: list[list[int]] = []
        for p in range(self.n_patches):
            zi = p // (px * py)
            lo = (zi * self.n_slabs) // pz
            hi = ((zi + 1) * self.n_slabs) // pz
            slabs = list(range(lo, max(hi, lo + 1)))
            self.patch_slabs.append(slabs)
        #: contributing patches per slab
        self.slab_patches: list[list[int]] = [[] for _ in range(self.n_slabs)]
        for p, slabs in enumerate(self.patch_slabs):
            for s in slabs:
                self.slab_patches[s].append(p)
        assert all(self.slab_patches), "every slab must have contributors"
        pme_budget = system.step_compute_seconds * WORK_SPLIT["pme"]
        #: FFT work per slab per FFT stage (3 stages: fwd, mid, bwd)
        self.slab_work = pme_budget / (3 * self.n_slabs)
        #: transpose message bytes between two slabs
        g = system.pme_grid
        self.transpose_bytes = max(64, (g * g * g * 8)
                                   // max(1, self.n_slabs * self.n_slabs))

        # -- integration ---------------------------------------------------------
        int_budget = system.step_compute_seconds * WORK_SPLIT["integration"]
        self.patch_integration = (
            int_budget * self.patch_atoms / self.patch_atoms.sum())

    # -- message sizes ----------------------------------------------------------
    def position_bytes(self, patch: int) -> int:
        return int(self.patch_atoms[patch] * BYTES_PER_ATOM)

    def force_bytes(self, patch: int) -> int:
        return int(self.patch_atoms[patch] * BYTES_PER_ATOM)

    def pme_bytes(self, patch: int) -> int:
        """Per-slab contribution size: the patch's grid data split over
        the slabs its z-range covers."""
        n = max(1, len(self.patch_slabs[patch]))
        return max(64, int(self.patch_atoms[patch] * PME_BYTES_PER_ATOM) // n)

    def summary(self) -> dict:
        return {
            "system": self.system.name,
            "atoms": self.system.n_atoms,
            "patches": self.n_patches,
            "computes": self.n_computes,
            "split": self.split,
            "slabs": self.n_slabs,
            "position_msg_bytes": int(self.patch_atoms.mean() * BYTES_PER_ATOM),
        }
