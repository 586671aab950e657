"""The determinism gate: results do not depend on how the run is watched,
scheduled or recovered.

(a) **The checksum gate.**  ``benchmarks/run_all.py``'s nine sha256
checksums (and, observed, its nine metrics digests) equal the committed
``benchmarks/BENCH_baseline.json`` in two cells: plain at one job, and
observed and sanitized at two jobs.  The engine lane is the suite's own
(``REPRO_PURE_ENGINE=1`` runs this file on the pure-Python lane).

(b) **The composition matrix.**  The integer-only ``PhasedSum`` under the
resilience manager, on every layer × topology × crash schedule, each cell
run with observers off and with the observer and sanitizer on: the whole
``RecoveryReport`` is identical both ways, every cell's result digest is
one pinned constant (recovered equals crash-free everywhere), and the
sanitizer is clean.  GPU is covered by (a)'s ``gpu_crossover`` and
``gpu_kneighbor``: ``PhasedSum`` sends no device payloads.

Each part has a seeded violation it must catch.
"""

from __future__ import annotations

import json
import math
import sys

import pytest

from repro import observe, sanitize
from repro.faults import NodeCrash
from repro.hardware.config import tiny
from repro.observe import Observer
from repro.resilience import PhasedSum, RecoveryPolicy, ResilienceManager
from repro.resilience import apps as phased_apps
from repro.units import us
from tests.test_parallel_sweep import _RUN_ALL, _load_run_all

_BASELINE = _RUN_ALL.parent / "BENCH_baseline.json"


# --------------------------------------------------------------------- #
# (a) the checksum gate
# --------------------------------------------------------------------- #
def _gate(ra, jobs: int) -> tuple[dict, list[str]]:
    """``run_all.py --rounds 2 --jobs N --check BENCH_baseline.json``."""
    report = ra.run_all(rounds=2, label="gate", jobs=jobs)
    return report, ra.compare(report, json.loads(_BASELINE.read_text()))


@pytest.mark.parametrize("watched,jobs", [(False, 1), (True, 2)],
                         ids=["plain-jobs1", "observed-sanitized-jobs2"])
def test_checksums_equal_the_committed_baseline(monkeypatch, watched, jobs):
    for var in ("REPRO_OBSERVE", "REPRO_SANITIZE"):
        if watched:
            monkeypatch.setenv(var, "1")
        else:
            monkeypatch.delenv(var, raising=False)
    report, failures = _gate(_load_run_all(), jobs)
    assert failures == []
    assert report["jobs"] == jobs
    # observed, every entry carries the digest that compare() gates
    assert all(("metrics_digest" in entry) == watched
               for entry in report["benchmarks"].values())


def test_a_perturbed_benchmark_fails_the_gate_by_name(monkeypatch):
    """Every benchmark replays its committed metrics except ``recovery``,
    whose lost work is one ulp off."""
    monkeypatch.delenv("REPRO_OBSERVE", raising=False)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    ra = _load_run_all()
    committed = json.loads(_BASELINE.read_text())["benchmarks"]
    for name in ra.BENCHMARKS:
        sim = dict(committed[name]["sim"])
        if name == "recovery":
            sim["lost_work_s"] = math.nextafter(sim["lost_work_s"], 1.0)
        monkeypatch.setitem(ra.BENCHMARKS, name, lambda sim=sim: dict(sim))
    _, (failure,) = _gate(ra, jobs=1)
    assert failure.startswith("recovery: simulated-metric checksum drifted")


# --------------------------------------------------------------------- #
# (b) the composition matrix
# --------------------------------------------------------------------- #
LAYERS = ("ugni", "mpi", "rdma")
TOPOLOGIES = ("torus3d", "dragonfly")
CRASHES = {
    "none": (),
    "one": (NodeCrash(at=150 * us, node_id=3),),
    "two": (NodeCrash(at=150 * us, node_id=3),
            NodeCrash(at=400 * us, node_id=5)),
}
#: PhasedSum(16 elements, 20 rounds): its fold is integer-only, so every
#: layer, topology and recovery gives these bytes
DIGEST = "084883b888e6b7ae5bbf429439f15853c85ccc7524f1ac2b0f9fc1da0674a703"


def _run_phased(layer: str, topology: str, crashes: tuple, watched: bool):
    config = tiny(cores_per_node=1).replace(
        topology=topology, observe=watched, sanitize=watched)
    return ResilienceManager(
        PhasedSum(n_elements=16, rounds=20), n_nodes=8, layer=layer,
        config=config, seed=11,
        policy=RecoveryPolicy(checkpoint_interval=60e-6),
        crash_schedule=crashes).run()


def _check_cell(layer: str, topology: str, crashes: str) -> None:
    schedule = CRASHES[crashes]
    plain = _run_phased(layer, topology, schedule, watched=False)
    assert not observe.active_observers() and not sanitize.active_sanitizers()
    watched = _run_phased(layer, topology, schedule, watched=True)
    try:
        # one observer and one sanitizer per incarnation
        incarnations = len(schedule) + 1
        assert len(observe.active_observers()) == incarnations
        assert len(sanitize.active_sanitizers()) == incarnations
        sanitize.assert_clean(f"{layer}/{topology}/{crashes}")
    finally:
        observe.clear_registry()
        sanitize.clear_registry()
    assert watched == plain, "observers changed the run"
    assert plain.restarts == len(schedule)
    assert plain.result["digest"] == DIGEST, "result digest moved"


@pytest.fixture
def unwatched(monkeypatch):
    """Observer and sanitizer only where a cell's config asks for them."""
    monkeypatch.delenv("REPRO_OBSERVE", raising=False)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    observe.clear_registry()
    sanitize.clear_registry()


@pytest.mark.parametrize("crashes", sorted(CRASHES))
@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("layer", LAYERS)
def test_composition_matrix(unwatched, layer, topology, crashes):
    _check_cell(layer, topology, crashes)


def test_an_observer_that_charges_a_pe_breaks_on_off_equality(
        unwatched, monkeypatch):
    on_exec = Observer.on_exec

    def charging_on_exec(self, msg, rank, time):
        on_exec(self, msg, rank, time)
        # the caller is the PE's run loop, about to run ``msg``
        sys._getframe(1).f_locals["self"].charge(1e-9, "overhead")

    monkeypatch.setattr(Observer, "on_exec", charging_on_exec)
    with pytest.raises(AssertionError, match="observers changed the run"):
        _check_cell("ugni", "torus3d", "one")


def test_a_perturbed_fold_breaks_the_digest_pin(unwatched, monkeypatch):
    monkeypatch.setattr(phased_apps, "_MOD", 1000033)  # another prime
    with pytest.raises(AssertionError, match="result digest moved"):
        _check_cell("rdma", "dragonfly", "two")
