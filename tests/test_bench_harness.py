"""Tests for the benchmark harness machinery and experiment registry."""

import importlib.util
import json
import pathlib

import pytest

from repro.bench.figures import EXPERIMENTS, run_experiment
from repro.bench.harness import (
    Claim,
    ExperimentResult,
    Series,
    geometric_sizes,
    paper_scale,
)

_BENCHMARKS = pathlib.Path(__file__).parent.parent / "benchmarks"
_RUN_ALL = _BENCHMARKS / "run_all.py"
#: the application-scale exhibits that take tens of seconds each; CI
#: regenerates them with the rest of ``benchmarks/``, tier-1 every other
#: one (the N-Queens ones, fig11, fig12 and table1, take ~2 s each)
_SLOW_EXHIBITS = {"fig13", "table2"}


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
    def test_rendering_equals_committed_result(self, exp_id, monkeypatch):
        """The rendered exhibit is deterministic, on either engine lane:
        a change that moves one printed number fails here."""
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        committed = (_BENCHMARKS / "results" / f"{exp_id}.txt").read_text()
        assert run_experiment(exp_id).render() == committed


class TestClaimsCanFail:
    """A claim no perturbation can flip checks nothing (ROADMAP 3(a))."""

    def test_fig4_bte_put_claim_follows_the_calibration(self, monkeypatch):
        from repro.bench import micro
        from repro.hardware.config import MachineConfig

        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        text = "BTE Put beats FMA Put for 64KB+"
        holds = {c.text: c.holds for c in micro.fig4().claims}
        assert holds[text]

        base = MachineConfig()
        slow_bte = base.replace(bte_put_bandwidth=base.fma_put_bandwidth / 2)
        latency = micro.fma_bte_latency
        monkeypatch.setattr(micro, "fma_bte_latency",
                            lambda kind, size: latency(kind, size, slow_bte))
        flipped = {c.text: c.holds for c in micro.fig4().claims}
        assert not flipped[text]
        # one constant, one family of claims: the small-message ones stand
        assert flipped["FMA Put beats BTE Put for 8B"]

    @staticmethod
    def _charm_pingpong_on(monkeypatch, micro, config):
        """Every Charm++ ping-pong the exhibit runs, on ``config``."""
        pingpong = micro.charm_pingpong
        monkeypatch.setattr(micro, "charm_pingpong",
                            lambda *a, **kw: pingpong(*a, config=config, **kw))

    def test_fig8a_persistent_claim_follows_the_put_bandwidth(
            self, monkeypatch):
        from repro.bench import micro
        from repro.hardware.config import MachineConfig

        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        text = "persistent faster than the rendezvous path for all large sizes"
        near = "persistent within 2x of pure uGNI for 64KB+"
        holds = {c.text: c.holds for c in micro.fig8a().claims}
        assert holds[text] and holds[near]

        # a persistent send is a PUT, the rendezvous a GET: a PUT slower
        # than the GET gives the largest sizes back to the rendezvous
        base = MachineConfig()
        self._charm_pingpong_on(monkeypatch, micro, base.replace(
            bte_put_bandwidth=0.9 * base.bte_get_bandwidth))
        flipped = {c.text: c.holds for c in micro.fig8a().claims}
        assert not flipped[text]
        # the pure-uGNI curve did not move and persistent stays near it
        assert flipped[near]

    def test_fig8b_pool_claim_follows_the_pool_cost(self, monkeypatch):
        from repro.bench import micro
        from repro.hardware.config import MachineConfig
        from repro.units import KB

        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        text = "pool cuts large-message latency by >=35% (paper: ~50%)"
        converges = "pooled latency converges toward pure uGNI as size grows"
        holds = {c.text: c.holds for c in micro.fig8b().claims}
        assert holds[text] and holds[converges]

        # a pool block as dear as the malloc plus registration (and the
        # deregistration plus free) of a 64 KB buffer: the pool saves
        # nothing below that size
        base = MachineConfig()
        self._charm_pingpong_on(monkeypatch, micro, base.replace(
            mempool_alloc_cpu=base.t_malloc(64 * KB)
            + base.t_register(64 * KB),
            mempool_free_cpu=base.t_deregister(64 * KB)
            + base.t_free(64 * KB)))
        flipped = {c.text: c.holds for c in micro.fig8b().claims}
        assert not flipped[text]
        # a constant per message still fades as the transfer grows
        assert flipped[converges]

    def test_put_get_claim_follows_the_get_bandwidth(self, monkeypatch):
        from repro.bench import ablations
        from repro.hardware.config import MachineConfig

        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        text = "GET wins up to 256KB (PUT's extra rendezvous message)"
        offset = ("at multi-MB sizes the hardware's higher PUT bandwidth can "
                  "offset the extra message (why the trade-off is "
                  "size-dependent)")
        holds = {c.text: c.holds for c in ablations.ablation_put_get().claims}
        assert holds[text] and holds[offset]

        # a BTE GET 10 % slower than its calibration costs more than the
        # PUT's extra control message from 4 KB on
        base = MachineConfig()
        pingpong = ablations.charm_pingpong
        slow_get = base.replace(bte_get_bandwidth=0.9 * base.bte_get_bandwidth)
        monkeypatch.setattr(
            ablations, "charm_pingpong",
            lambda *a, **kw: pingpong(*a, config=slow_get, **kw))
        flipped = {c.text: c.holds
                   for c in ablations.ablation_put_get().claims}
        assert not flipped[text]
        # the PUT still wins at 1 MB: a slower GET only widens that
        assert flipped[offset]

    def test_msgq_memory_claim_follows_the_node_queue_size(self, monkeypatch):
        from repro.bench import ablations
        from repro.hardware.config import MachineConfig

        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        text = "MSGQ uses less fabric memory under many-to-many traffic"
        delivers = "both transports deliver everything"
        holds = {c.text: c.holds for c in ablations.ablation_msgq().claims}
        assert holds[text] and holds[delivers]

        # a node queue eight times larger outweighs every SMSG mailbox the
        # spray opens (the SMSG side holds ~5.6x MSGQ's memory)
        base = MachineConfig()
        big_queue = base.replace(msgq_node_bytes=8 * base.msgq_node_bytes)
        make = ablations.make_runtime
        monkeypatch.setattr(ablations, "make_runtime",
                            lambda *a, **kw: make(*a, config=big_queue, **kw))
        flipped = {c.text: c.holds for c in ablations.ablation_msgq().claims}
        assert not flipped[text]
        # a larger queue holds the same messages: both still deliver all
        assert flipped[delivers]

    def test_fig8c_single_copy_claim_follows_the_memcpy_bandwidth(
            self, monkeypatch):
        from repro.bench import micro
        from repro.hardware.config import MachineConfig

        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        text = "single copy beats MPI at 64KB+"
        fewer = "single copy beats double copy for every large size"
        holds = {c.text: c.holds for c in micro.fig8c().claims}
        assert holds[text] and holds[fewer]

        # a slower memcpy on the Charm++ side: the pure-MPI curve keeps
        # its time and passes the single copy
        base = MachineConfig()
        self._charm_pingpong_on(monkeypatch, micro, base.replace(
            memcpy_bandwidth=0.8 * base.memcpy_bandwidth))
        flipped = {c.text: c.holds for c in micro.fig8c().claims}
        assert not flipped[text]
        # one copy still beats two on the same memcpy
        assert flipped[fewer]

    def test_fig9a_buffer_claim_follows_the_registration_cost(
            self, monkeypatch):
        from repro.apps.raw import mpi_pingpong
        from repro.bench import micro
        from repro.hardware.config import MachineConfig

        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        text = ("MPI same-buffer beats different-buffer beyond 8KB "
                "(uDREG cache hits)")
        beats = "uGNI-Charm++ beats MPI-based Charm++ at every size"
        holds = {c.text: c.holds for c in micro.fig9a().claims}
        assert holds[text] and holds[beats]

        # registration for free: a uDREG hit saves nothing over a miss
        free = MachineConfig().replace(
            mem_register_base=0.0, mem_register_per_page=0.0,
            mem_deregister_base=0.0, mem_deregister_per_page=0.0)

        def mpi_latency(size, same_buffer):
            return mpi_pingpong(size, config=free, same_buffer=same_buffer)

        monkeypatch.setattr(micro, "_mpi_latency", mpi_latency)
        flipped = {c.text: c.holds for c in micro.fig9a().claims}
        assert not flipped[text]
        # the pure-MPI curves moved; the Charm++ comparison stands
        assert flipped[beats]

    def test_fig10_mpi_claim_follows_the_fresh_buffer_registration(
            self, monkeypatch):
        from repro.bench import micro
        from repro.hardware.config import MachineConfig

        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        text = ("MPI-based at least 1.5x slower for 64KB+ "
                "(paper: about 2x even at 1MB)")
        faster = "uGNI-based faster at every size"
        holds = {c.text: c.holds for c in micro.fig10().claims}
        assert holds[text] and holds[faster]

        # Cray MPI pipelines the registration of a large rendezvous one
        # chunk at a time, and only the first chunk's pinning is on the
        # critical path: a 4 KB chunk takes the fresh-buffer registration
        # (which the MPI-based layer pays twice a message) off it
        kneighbor = micro.kneighbor
        chunked = MachineConfig(mpi_pipeline_chunk=4096)
        monkeypatch.setattr(micro, "kneighbor", lambda *a, **kw: kneighbor(
            *a, config=chunked, **kw))
        flipped = {c.text: c.holds for c in micro.fig10().claims}
        assert not flipped[text]
        # the blocking MPI_Recv still costs the MPI-based layer every size
        assert flipped[faster]

    def test_fig1_layering_claim_follows_the_registration_cost(
            self, monkeypatch):
        from repro.bench import micro
        from repro.hardware.config import MachineConfig

        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        text = "layering cost largest in relative terms for small messages"
        order = "uGNI below MPI at every size"
        holds = {c.text: c.holds for c in micro.fig1().claims}
        assert holds[text] and holds[order]

        # MPI-based Charm++ registers a fresh receive buffer for every
        # rendezvous: at 4 us a page that cost outgrows the small-message
        # overhead, and the relative gap widens with size
        base = MachineConfig()
        self._charm_pingpong_on(monkeypatch, micro, base.replace(
            mem_register_per_page=10 * base.mem_register_per_page))
        flipped = {c.text: c.holds for c in micro.fig1().claims}
        assert not flipped[text]
        # the two raw ping-pongs did not move
        assert flipped[order]

    def test_fig9b_peak_claim_follows_the_bte_get_bandwidth(
            self, monkeypatch):
        from repro.apps.pingpong import charm_pingpong
        from repro.bench import micro
        from repro.hardware.config import MachineConfig

        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        text = "peak bandwidth approaches the BTE limit (>4GB/s)"
        leads = "uGNI-based bandwidth higher below 1MB"
        holds = {c.text: c.holds for c in micro.fig9b().claims}
        assert holds[text] and holds[leads]

        # the rendezvous pulls with a BTE GET: a slower GET engine caps
        # the 4 MB bandwidth below the claim's 4 GB/s
        base = MachineConfig()
        slow_get = base.replace(
            bte_get_bandwidth=0.6 * base.bte_get_bandwidth)
        monkeypatch.setattr(micro, "_charm_bandwidth", lambda size, layer:
                            charm_pingpong(size, layer=layer,
                                           config=slow_get).bandwidth)
        flipped = {c.text: c.holds for c in micro.fig9b().claims}
        assert not flipped[text]
        # both layers pull through the same engine: uGNI still leads
        assert flipped[leads]

    def test_fig9c_closing_claim_follows_the_registration_cost(
            self, monkeypatch):
        from repro.apps import onetoall
        from repro.bench import micro
        from repro.hardware.config import MachineConfig

        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
        text = "gap closes for large messages"
        margin = "large margin for small messages (>=1.7x)"
        holds = {c.text: c.holds for c in micro.fig9c().claims}
        assert holds[text] and holds[margin]

        # the MPI-based root registers a fresh buffer per large send and
        # each leaf one per receive; the uGNI pool registers none: dearer
        # pages open the gap at 1 MB instead of closing it
        base = MachineConfig()
        dear = base.replace(
            mem_register_per_page=10 * base.mem_register_per_page)
        monkeypatch.setattr(onetoall, "MachineConfig", lambda: dear)
        flipped = {c.text: c.holds for c in micro.fig9c().claims}
        assert not flipped[text]
        # small messages register nothing: their margin stands
        assert flipped[margin]

    def test_ablation_faults_recovery_claim_follows_the_retry_budget(
            self, monkeypatch):
        from repro.bench import ablations
        from repro.lrts.ugni_layer import UgniLayerConfig

        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        text = "every dropped delivery was recovered by retransmission"
        zero = ("a zero-rate injector perturbs nothing (bit-identical "
                "latency vs no injector)")
        holds = {c.text: c.holds for c in ablations.ablation_faults().claims}
        assert holds[text] and holds[zero]

        # fewer attempts per packet: the largest budget that loses a
        # message at some drop rate flips the claim (the ledger's lost)
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
