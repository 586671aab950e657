"""Tests for the benchmark harness machinery and experiment registry."""

import dataclasses
import importlib.util
import json
import pathlib
from unittest import mock

import pytest

from repro.bench.figures import EXPERIMENTS, run_experiment
from repro.bench.harness import (
    Claim,
    ExperimentResult,
    Series,
    geometric_sizes,
    paper_scale,
)
from repro.hardware.config import MachineConfig
from repro.units import KB

_BENCHMARKS = pathlib.Path(__file__).parent.parent / "benchmarks"
_RESULTS = _BENCHMARKS / "results"
_RUN_ALL = _BENCHMARKS / "run_all.py"
#: the application-scale exhibits that take tens of seconds each; CI
#: regenerates them with the rest of ``benchmarks/``, tier-1 every other
#: one (the N-Queens ones, fig11, fig12 and table1, take ~2 s each)
_SLOW_EXHIBITS = {"fig13", "table2"}


@pytest.fixture(autouse=True)
def _committed_scale_in_process(monkeypatch):
    """Exhibits here run at the committed (default) scale, in this process."""
    monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
    monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)


def _load_run_all():
    spec = importlib.util.spec_from_file_location("run_all", _RUN_ALL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestSeriesAndClaims:
    def test_series_at(self):
        s = Series("x", [8, 16, 32], [1.0, 2.0, 3.0])
        assert s.at(16) == 2.0
        with pytest.raises(ValueError):
            s.at(64)

    def test_claim_render_marks(self):
        assert "PASS" in Claim("ok", True).render()
        assert "FAIL" in Claim("bad", False, "why").render()
        assert "why" in Claim("bad", False, "why").render()

    def test_result_claim_tracking(self):
        r = ExperimentResult("x", "t", paper_says="p")
        r.claim("a", True)
        r.claim("b", False, "detail")
        assert not r.all_claims_hold
        assert [c.text for c in r.failed_claims()] == ["b"]

    def test_render_contains_everything(self):
        r = ExperimentResult("figX", "My Title", paper_says="the claim",
                             x_label="message bytes")
        r.series = [Series("curveA", [1024, 2048], [1e-6, 2e-6])]
        r.claim("shape holds", True, "numbers")
        r.extra.append("EXTRA BLOCK")
        r.notes = "a note"
        text = r.render()
        for needle in ("figX", "My Title", "the claim", "curveA", "1K", "2K",
                       "1us", "2us", "PASS", "EXTRA BLOCK", "a note"):
            assert needle in text, needle

    def test_y_formatting_kinds(self):
        r = ExperimentResult("x", "t", paper_says="p", y_kind="bandwidth")
        assert r._fmt_y(2.5e9) == "2500MB/s"
        r.y_kind = "speedup"
        assert r._fmt_y(12.34) == "12.3"
        r.y_kind = "raw"
        assert r._fmt_y(3.14159) == "3.142"
        assert r._fmt_y(float("nan")) == "-"


class TestHelpers:
    def test_geometric_sizes(self):
        assert geometric_sizes(8, 64) == [8, 16, 32, 64]
        assert geometric_sizes(8, 100)[-1] == 100

    def test_paper_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert not paper_scale()
        monkeypatch.setenv("REPRO_PAPER_SCALE", "1")
        assert paper_scale()
        monkeypatch.setenv("REPRO_PAPER_SCALE", "0")
        assert not paper_scale()


class TestRegistry:
    def test_every_paper_exhibit_registered(self):
        for exp_id in ("fig1", "fig4", "fig6", "fig8a", "fig8b", "fig8c",
                       "fig9a", "fig9b", "fig9c", "fig10", "fig11", "fig12",
                       "fig13", "table1", "table2"):
            assert exp_id in EXPERIMENTS

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_run_experiment_returns_result(self):
        r = run_experiment("ablation_routing")
        assert isinstance(r, ExperimentResult)
        assert r.series
        assert r.render()

    @pytest.mark.parametrize(
        "exp_id", [e for e in EXPERIMENTS if e not in _SLOW_EXHIBITS])
    def test_rendering_equals_committed_result(self, exp_id):
        """The rendered exhibit is deterministic, on either engine lane:
        a change that moves one printed number fails here.  And it ran on
        the machine it was given: no runner on the way built a
        ``MachineConfig`` from defaults (``config or MachineConfig()``)."""
        committed = (_RESULTS / f"{exp_id}.txt").read_text()
        fields = len(dataclasses.fields(MachineConfig))
        init, defaulted = MachineConfig.__init__, []

        def counted(self, *args, **kw):
            if len(args) + len(kw) < fields:
                defaulted.append(sorted(kw))
            init(self, *args, **kw)

        config = MachineConfig()
        with mock.patch.object(MachineConfig, "__init__", counted):
            rendered = run_experiment(exp_id, config).render()
        assert rendered == committed
        assert not defaulted, (
            f"{len(defaulted)} MachineConfig(s) built from defaults, "
            f"setting only {defaulted}")


def _committed_claims(exp_id):
    """Claim text -> holds, as ``benchmarks/results/<id>.txt`` prints them
    (test_rendering_equals_committed_result holds it to a live run)."""
    lines = (_RESULTS / f"{exp_id}.txt").read_text().splitlines()
    return {line[9:]: line.startswith("  [PASS] ") for line in lines
            if line.startswith(("  [PASS] ", "  [FAIL] "))}


def _register_dearer(base):
    return base.replace(mem_register_per_page=10 * base.mem_register_per_page)


#: ``(exhibit, perturbation, claim that flips, claim that stands)``: the
#: exhibit runs once on ``perturbation(MachineConfig())``, the whole machine
#: perturbed; its unperturbed claims are the committed rendering's
CAN_FAIL = [
    # MPI-based Charm++ registers a fresh receive buffer for every
    # rendezvous: at 4 us a page that cost outgrows the small-message
    # overhead, and the relative gap widens with size
    ("fig1", _register_dearer,
     "layering cost largest in relative terms for small messages",
     "uGNI below MPI at every size"),
    ("fig4", lambda b: b.replace(bte_put_bandwidth=b.fma_put_bandwidth / 2),
     "BTE Put beats FMA Put for 64KB+",
     "FMA Put beats BTE Put for 8B"),
    # a dearer MPI rendezvous hands the large sizes to the initial design
    ("fig6", lambda b: b.replace(mpi_rndv_cpu=20 * b.mpi_rndv_cpu),
     "initial design LOSES to MPI-based Charm++ for large messages",
     "initial design beats MPI-based Charm++ for small messages"),
    # a persistent send is a PUT, the rendezvous a GET: a PUT slower than
    # the GET gives the largest sizes back to the rendezvous
    ("fig8a",
     lambda b: b.replace(bte_put_bandwidth=0.9 * b.bte_get_bandwidth),
     "persistent faster than the rendezvous path for all large sizes",
     "persistent within 2x of pure uGNI for 64KB+"),
    # a pool block as dear as the malloc plus registration (and the
    # deregistration plus free) of a 64 KB buffer: the pool saves nothing
    # below that size, and a constant per message still fades with size
    ("fig8b", lambda b: b.replace(
        mempool_alloc_cpu=b.t_malloc(64 * KB) + b.t_register(64 * KB),
        mempool_free_cpu=b.t_deregister(64 * KB) + b.t_free(64 * KB)),
     "pool cuts large-message latency by >=35% (paper: ~50%)",
     "pooled latency converges toward pure uGNI as size grows"),
    # the pxshm handshake is Charm++'s alone (a slower memcpy would slow
    # MPI's XPMEM copy too); x20 does not flip
    ("fig8c", lambda b: b.replace(pxshm_sync_cpu=25 * b.pxshm_sync_cpu),
     "single copy beats MPI at 64KB+",
     "single copy beats double copy for every large size"),
    # registration for free: a uDREG hit saves nothing over a miss
    ("fig9a", lambda b: b.replace(
        mem_register_base=0.0, mem_register_per_page=0.0,
        mem_deregister_base=0.0, mem_deregister_per_page=0.0),
     "MPI same-buffer beats different-buffer beyond 8KB (uDREG cache hits)",
     "uGNI-Charm++ beats MPI-based Charm++ at every size"),
    # the rendezvous pulls with a BTE GET: a slower GET engine caps the
    # 4 MB bandwidth, and both layers pull through it
    ("fig9b", lambda b: b.replace(bte_get_bandwidth=0.6 * b.bte_get_bandwidth),
     "peak bandwidth approaches the BTE limit (>4GB/s)",
     "uGNI-based bandwidth higher below 1MB"),
    # the MPI-based root registers a fresh buffer per large send and each
    # leaf one per receive; small messages register nothing
    ("fig9c", _register_dearer,
     "gap closes for large messages",
     "large margin for small messages (>=1.7x)"),
    # Cray MPI pipelines a large rendezvous' registration one chunk at a
    # time: a 4 KB chunk takes the fresh-buffer registration off the
    # critical path; the blocking MPI_Recv still costs every size
    ("fig10", lambda b: b.replace(mpi_pipeline_chunk=4096),
     "MPI-based at least 1.5x slower for 64KB+ (paper: about 2x even at 1MB)",
     "uGNI-based faster at every size"),
    # the ANY_SOURCE probe scan is the fine-threshold MPI overhead
    ("fig12", lambda b: b.replace(mpi_iprobe_cpu=0.0,
                                  mpi_iprobe_per_conn_cpu=0.0),
     "fine-threshold MPI shows much more overhead than uGNI "
     "(Fig 12b vs 12c: the black regions)",
     "coarse threshold suffers an idle tail (Fig 12a)"),
    # a BTE GET 10 % slower costs more than the PUT's extra control
    # message from 4 KB on; the PUT still wins at 1 MB
    ("ablation_put_get",
     lambda b: b.replace(bte_get_bandwidth=0.9 * b.bte_get_bandwidth),
     "GET wins up to 256KB (PUT's extra rendezvous message)",
     "at multi-MB sizes the hardware's higher PUT bandwidth can offset the "
     "extra message (why the trade-off is size-dependent)"),
    # a node queue eight times larger outweighs every SMSG mailbox the
    # spray opens; it holds the same messages
    ("ablation_msgq",
     lambda b: b.replace(msgq_node_bytes=8 * b.msgq_node_bytes),
     "MSGQ uses less fabric memory under many-to-many traffic",
     "both transports deliver everything"),
    # with one lane per NIC port the ports, not the links, set the pace,
    # and adaptive routing comes out ~6 % slower; the exhibit has this one
    # claim, so none is left to stand
    ("ablation_routing", lambda b: b.replace(nic_port_lanes=1),
     "adaptive routing not slower under neighbor contention", None),
    # a 576 KB initial arena holds a PE's whole share of the spray (eight
    # 64 KB blocks), so per-PE pools never grow, while each node pool
    # serves 56 of its 64 blocks from 256 KB expansions: 10.9 MB at peak
    # node-shared against 9.4 MB per PE
    ("ablation_smp_pools", lambda b: b.replace(
        mempool_initial_bytes=576 * KB, mempool_expand_bytes=256 * KB),
     "node-shared pools register less memory",
     "both modes deliver all messages"),
]


class TestClaimsCanFail:
    """A claim no perturbation can flip checks nothing (ROADMAP 3(a))."""

    @pytest.mark.parametrize("exp_id, perturb, flips, stands", CAN_FAIL,
                             ids=[row[0] for row in CAN_FAIL])
    def test_one_claim_flips(self, exp_id, perturb, flips, stands):
        assert all(_committed_claims(exp_id)[c] for c in (flips, stands)
                   if c is not None)
        holds = {c.text: c.holds
                 for c in run_experiment(exp_id, perturb(MachineConfig()))
                 .claims}
        assert not holds[flips]
        assert stands is None or holds[stands]

    def test_ablation_faults_recovery_claim_follows_the_retry_budget(
            self, monkeypatch):
        from repro.bench import ablations
        from repro.lrts.ugni_layer import UgniLayerConfig

        text = "every dropped delivery was recovered by retransmission"
        zero = ("a zero-rate injector perturbs nothing (bit-identical "
                "latency vs no injector)")
        holds = _committed_claims("ablation_faults")
        assert holds[text] and holds[zero]

        # a layer setting, not a machine constant: fewer attempts per
        # packet, the largest budget that loses a message at some drop
        # rate flips the claim (the ledger's lost)
        for budget in range(UgniLayerConfig().max_retries - 1, 0, -1):
            monkeypatch.setattr(
                ablations, "UgniLayerConfig",
                lambda budget=budget, **kw: UgniLayerConfig(
                    max_retries=budget, **kw))
            flipped = {c.text: c.holds
                       for c in ablations.ablation_faults().claims}
            if not flipped[text]:
                break
        else:
            pytest.fail("no retry budget loses a message")
        # the zero-rate run draws nothing and retransmits nothing: it stands
        assert flipped[zero]


class TestTrajectorySubject:
    """benchmarks/trajectory.py reads a row's PR number from the commit
    subject only when it starts ``PR <n>:``."""

    @staticmethod
    def _pr_of(subject):
        spec = importlib.util.spec_from_file_location(
            "trajectory", _BENCHMARKS / "trajectory.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod.pr_of(subject)

    @pytest.mark.parametrize("subject, pr", [
        ("PR 46: [perf_opt] The observed path at one write per stage", 46),
        ("re-anchor @ PR 45: ROADMAP", None),
        ('Revert "PR 12: [perf_opt] Something"', None),
    ])
    def test_only_a_pr_subject_names_a_pr(self, subject, pr):
        assert self._pr_of(subject) == pr


class TestRegressionHarness:
    """benchmarks/run_all.py — the checksum gate that
    tests/test_determinism_gate.py and CI's one run_all.py step run."""

    def test_checksum_is_order_independent_and_full_precision(self):
        ra = _load_run_all()
        a = ra.checksum({"x": 1.0000000000000002, "y": 2.0})
        b = ra.checksum({"y": 2.0, "x": 1.0000000000000002})
        c = ra.checksum({"x": 1.0, "y": 2.0})  # 1 ulp apart from a
        assert a == b
        assert a != c

    def test_run_benchmark_detects_nondeterminism(self, monkeypatch):
        ra = _load_run_all()
        drift = iter(range(100))

        def flaky():
            return {"metric": float(next(drift))}

        monkeypatch.setitem(ra.BENCHMARKS, "flaky", flaky)
        with pytest.raises(RuntimeError, match="deterministic"):
            ra.run_benchmark("flaky", rounds=3)

    def test_run_benchmark_shape(self, monkeypatch):
        ra = _load_run_all()
        monkeypatch.setitem(ra.BENCHMARKS, "fast", lambda: {"m": 1.5})
        entry = ra.run_benchmark("fast", rounds=3)
        assert entry["sim"] == {"m": 1.5}
        assert entry["checksum"] == ra.checksum({"m": 1.5})
        # a checksum gate and nothing else: no wall-clock field of any
        # kind (the metrics pair appears under REPRO_OBSERVE=1 only)
        assert set(entry) <= {"sim", "checksum", "metrics_digest", "metrics"}

    @staticmethod
    def _report(ra, **benchmarks):
        return {"schema": ra.SCHEMA, "benchmarks": benchmarks}

    def test_compare_flags_checksum_and_digest_drift(self):
        ra = _load_run_all()
        base = self._report(ra, b={"checksum": "sha256:aaa",
                                   "metrics_digest": "d1"})
        same = self._report(ra, b={"checksum": "sha256:aaa"})
        assert ra.compare(same, base) == []
        drift = self._report(ra, b={"checksum": "sha256:bbb"})
        assert any("checksum drifted" in f for f in ra.compare(drift, base))
        observed = self._report(ra, b={"checksum": "sha256:aaa",
                                       "metrics_digest": "d1"})
        assert ra.compare(observed, base) == []
        digest_drift = self._report(ra, b={"checksum": "sha256:aaa",
                                           "metrics_digest": "d2"})
        assert any("metrics digest drifted" in f
                   for f in ra.compare(digest_drift, base))

    def test_compare_flags_missing_entry(self):
        ra = _load_run_all()
        base = self._report(ra, b={"checksum": "sha256:aaa"})
        gone = self._report(ra)
        assert any("missing from current run" in f
                   for f in ra.compare(gone, base))

    def test_compare_flags_missing_baseline_digest_under_observe(self):
        """An --observe run against a baseline entry that never recorded a
        digest used to pass vacuously."""
        ra = _load_run_all()
        base = self._report(ra, b={"checksum": "sha256:aaa"})
        observed = self._report(ra, b={"checksum": "sha256:aaa",
                                       "metrics_digest": "d1"})
        fails = ra.compare(observed, base)
        assert len(fails) == 1
        assert "no metrics_digest" in fails[0] and "--rebase" in fails[0]

    def test_rebase_requires_observe(self, tmp_path):
        ra = _load_run_all()
        target = tmp_path / "baseline.json"
        with pytest.raises(SystemExit, match="--observe"):
            ra.main(["--rebase", str(target)])
        assert not target.exists()

    def test_compare_rejects_schema_mismatch(self):
        ra = _load_run_all()
        cur = {"schema": ra.SCHEMA, "benchmarks": {}}
        old = {"schema": "repro-bench-v0", "benchmarks": {}}
        fails = ra.compare(cur, old)
        assert fails and "schema mismatch" in fails[0]

    def test_committed_baseline_parses_and_matches_schema(self):
        ra = _load_run_all()
        path = _RUN_ALL.parent / "BENCH_baseline.json"
        base = json.loads(path.read_text())
        assert set(base) == {"schema", "label", "rounds", "jobs", "benchmarks"}
        assert base["schema"] == ra.SCHEMA
        assert set(base["benchmarks"]) == set(ra.BENCHMARKS)
        for name, entry in base["benchmarks"].items():
            # checksums and digests only — no wall-clock field survives
            assert set(entry) == {"sim", "checksum", "metrics_digest"}, name
            assert entry["checksum"] == ra.checksum(entry["sim"]), name
            assert len(entry["metrics_digest"]) == 64, name
