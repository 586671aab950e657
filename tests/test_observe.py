"""The observability layer: metrics, causal tracing, flight recorder.

The contract under test (DESIGN.md §12):

* **observer-only** — simulated results are bit-identical with
  observability on or off, at any ``--jobs`` count, sequential or
  sharded, sanitizer on or off;
* **causal tracing** — every delivered message owns a complete span
  (``send`` → ``deliver`` → ``exec``) with monotone non-decreasing
  engine-clock stage times, on all three machine layers, including under
  injected faults;
* **deterministic metrics** — the sha256 digest of the merged snapshot
  is a pure function of the simulated event order;
* **flight recorder** — reliability give-ups, sanitizer violations, and
  engine stalls each leave a postmortem dump behind.
"""

import json

import pytest

from repro import observe
from repro.apps.kneighbor import kneighbor
from repro.converse.scheduler import Message
from repro.faults import FaultConfig
from repro.hardware import Machine
from repro.hardware.config import MachineConfig, tiny as tiny_config
from repro.lrts.factory import make_runtime
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.observe import (
    FlightRecorder,
    MessageTracer,
    MetricsRegistry,
    chrome_trace,
    format_timeline,
    pe_utilization,
)
from repro.parallel import ShardedEngine
from repro.units import KB

#: small retry budget + fast backoff so give-up happens quickly
FAST = dict(reliability=True, max_retries=3,
            retry_backoff_base=2e-6, retry_backoff_max=8e-6)

LAYERS = ("ugni", "mpi", "rdma")


def observed_kneighbor(layer="ugni", size=4 * KB, iters=5, engine=None,
                       **cfg_kw):
    """Run one observed kNeighbor and return (result, observer)."""
    observe.clear_registry()
    cfg = MachineConfig(observe=True, **cfg_kw)
    result = kneighbor(size, layer=layer, iters=iters, config=cfg,
                       engine=engine)
    return result, observe.active_observers()[0]


def delivered(tracer):
    """``(trace_id, stages)`` of every retained span that ran a handler."""
    return [(tid, stages) for tid, _, _, _, stages in tracer.records()
            if has(stages, "exec")]


def has(stages, name):
    return any(stage == name for stage, *_ in stages)


def monotone(stages):
    times = [time for _, time, *_ in stages]
    return all(a <= b for a, b in zip(times, times[1:]))


def chaos_run():
    """Lossy fabric + software reliability, observed: 20 senders on PE 0
    each send one message to PE 2 with 30 % of SMSGs dropped.  Returns
    (machine, messages the handler got)."""
    observe.clear_registry()
    cfg = tiny_config(cores_per_node=2)
    cfg = cfg.replace(observe=True)
    m = Machine(n_nodes=4, config=cfg, seed=3)
    conv, layer = make_runtime(
        machine=m, n_pes=m.n_pes, layer="ugni",
        layer_config=UgniLayerConfig(**FAST),
        faults=FaultConfig(smsg_drop_rate=0.3))
    got = []
    h = conv.register_handler(lambda pe, msg: got.append(msg))
    sender = conv.register_handler(
        lambda pe, msg: conv.send(pe, 2, Message(h, pe.rank, 2, 64)))
    for _ in range(20):
        conv.send_from_outside(0, Message(sender, 0, 0, 0))
    m.engine.run(max_events=1_000_000)
    return m, got


# --------------------------------------------------------------------- #
# installation (mirrors the sanitizer's opt-in matrix)
# --------------------------------------------------------------------- #
class TestInstallation:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBSERVE", raising=False)
        m = Machine(n_nodes=2, config=tiny_config())
        assert m.observer is None
        assert m.engine.observer is None
        assert m.network.observer is None

    def test_config_flag_enables(self):
        m = Machine(n_nodes=2, config=tiny_config().replace(observe=True))
        assert m.observer is not None
        assert m.engine.observer is m.observer
        assert m.network.observer is m.observer

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBSERVE", "1")
        m = Machine(n_nodes=2, config=tiny_config())
        assert m.observer is not None

    def test_env_var_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBSERVE", "0")
        m = Machine(n_nodes=2, config=tiny_config())
        assert m.observer is None

    def test_registry_tracks_and_clears(self):
        observe.clear_registry()
        Machine(n_nodes=2, config=tiny_config().replace(observe=True))
        Machine(n_nodes=2, config=tiny_config().replace(observe=True))
        assert len(observe.active_observers()) == 2
        observe.clear_registry()
        assert observe.active_observers() == []


# --------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counters_gauges_hists(self):
        reg = MetricsRegistry()
        reg.inc("msgs")
        reg.inc("msgs", 2)
        reg.register_source("depth", lambda: 7)
        reg.observe("lat", 1.5e-5, 3.0)  # bin 1 at the 1e-5 width
        reg.observe("lat", 1.9e-5, 5.0)  # same bin
        snap = reg.snapshot()
        assert snap["counter/msgs"] == 3
        assert snap["gauge/depth"] == 7
        assert snap["hist/lat/1"] == [2, 8.0]

    def test_sources_fold_nested_dicts(self):
        reg = MetricsRegistry()
        reg.register_source("pool", lambda: {"live": 2, "by_size": {64: 1}})
        snap = reg.snapshot()
        assert snap["gauge/pool/live"] == 2
        assert snap["gauge/pool/by_size/64"] == 1

    def test_source_name_collision_gets_suffix(self):
        reg = MetricsRegistry()
        reg.register_source("pool", lambda: 1)
        reg.register_source("pool", lambda: 2)
        snap = reg.snapshot()
        assert snap["gauge/pool"] == 1
        assert snap["gauge/pool#2"] == 2

    def test_digest_stable_and_excludes(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        now = {a: 1.0, b: 1.0}
        for reg in (a, b):
            reg.inc("x", 5)
            reg.register_source("engine", lambda reg=reg: {"now": now[reg]})
        assert a.digest() == b.digest()
        now[b] = 2.0
        assert a.digest() != b.digest()
        assert a.digest(exclude=("engine",)) == b.digest(exclude=("engine",))


# --------------------------------------------------------------------- #
# causal tracing across all three machine layers
# --------------------------------------------------------------------- #
class TestCausalTracing:
    @pytest.mark.parametrize("layer", LAYERS)
    def test_spans_complete_and_monotone(self, layer):
        _, obs = observed_kneighbor(layer=layer)
        spans = delivered(obs.tracer)
        assert spans, "no delivered spans traced"
        for _, stages in spans:
            assert has(stages, "send") and has(stages, "deliver")
            assert monotone(stages), (
                f"non-monotone stage times on {layer}: {stages}")

    @pytest.mark.parametrize("layer", LAYERS)
    def test_trace_ids_monotone_in_send_order(self, layer):
        _, obs = observed_kneighbor(layer=layer)
        send_times = [(min(t for stage, t, *_ in stages if stage == "send"),
                       tid)
                      for tid, *_, stages in obs.tracer.records()
                      if has(stages, "send")]
        ordered = sorted(send_times)
        assert [tid for _, tid in ordered] == sorted(
            tid for _, tid in send_times)

    def test_internode_spans_cross_the_lrts_layer(self):
        _, obs = observed_kneighbor(layer="ugni")
        internode = [tid for tid, stages in delivered(obs.tracer)
                     if has(stages, "lrts")]
        assert internode, "expected internode messages through the layer"
        # ugni's rendezvous round-trips were derived from the lrts stage
        assert obs.metrics.snapshot().get("counter/rndv/roundtrips", 0) > 0

    def test_tracing_survives_chaos(self):
        """Lossy fabric + software reliability: retransmissions repeat
        ``tx`` but every *delivered* span stays complete and monotone."""
        m, got = chaos_run()
        obs = m.observer
        assert got, "reliability should deliver most messages"
        spans = delivered(obs.tracer)
        assert len(spans) >= len(got)
        for _, stages in spans:
            assert monotone(stages)
            assert has(stages, "send")
        # injected drops were observed as retransmissions
        snap = obs.metrics.snapshot()
        assert snap.get("counter/fault/smsg_drop", 0) > 0
        assert snap.get("counter/recovery/retransmit", 0) > 0

    def test_tracer_capacity_evicts_oldest(self):
        tracer = MessageTracer(capacity=3)
        for i in range(5):
            tracer.mint(0, 1, 64)
        assert [tid for tid, *_ in tracer.records()] == [3, 4, 5]
        assert tracer.evicted == 2
        assert tracer.minted() == 5
        tracer.stage(1, "send", 0.0)  # evicted: silently ignored
        assert tracer.footprint()["stage_rows"] == 0

    def test_capacity_evicts_oldest_minted_complete_or_not(self):
        tracer = MessageTracer(capacity=2)
        old = tracer.mint(0, 1, 64)
        tracer.stage(old, "send", 0.0)  # never delivered
        done = tracer.mint(1, 0, 64)
        for i, stage in enumerate(("send", "deliver", "exec")):
            tracer.stage(done, stage, float(i))
        tracer.mint(0, 1, 64)
        spans = {tid: stages for tid, *_, stages in tracer.records()}
        assert old not in spans
        assert has(spans[done], "exec")
        assert tracer.evicted == 1

    def test_capacity_bounds_rows(self):
        """100,000 mints at capacity 64 hold O(capacity) rows: evicted
        spans and their stage rows are compacted away."""
        capacity = 64
        tracer = MessageTracer(capacity=capacity)
        for _ in range(100_000):
            tid = tracer.mint(0, 1, 64)
            tracer.stage(tid, "send", 0.0, where="pe0")
            tracer.stage(tid, "tx", 1.0, where="smsg[0->1]", detail="smsg")
        held = tracer.footprint()
        assert held["spans"] == capacity
        assert held["evicted"] == 100_000 - capacity
        assert held["stage_rows"] <= 2 * 2 * capacity
        # five columns a span row, five a stage row: at most 2 * capacity
        # spans' worth of either
        assert held["column_bytes"] <= 2 * capacity * (32 + 2 * 25)
        assert len(list(tracer.records())) == capacity


# --------------------------------------------------------------------- #
# metrics determinism (the digest contract)
# --------------------------------------------------------------------- #
class TestMetricsDeterminism:
    @pytest.mark.parametrize("layer", LAYERS)
    def test_digest_reproducible(self, layer):
        observed_kneighbor(layer=layer)
        d1 = observe.metrics_digest()
        observed_kneighbor(layer=layer)
        d2 = observe.metrics_digest()
        assert d1 == d2

    def test_digest_unchanged_by_sanitizer(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        observed_kneighbor()
        plain = observe.metrics_digest()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        observed_kneighbor()
        assert observe.metrics_digest() == plain

    @pytest.mark.parametrize("layer", LAYERS)
    def test_self_metrics_are_in_no_digest(self, layer, held_runtimes):
        observed_kneighbor(layer=layer)
        digest = observe.metrics_digest()
        snapshot = observe.collect_snapshot()
        conv, lrts = held_runtimes[-1]
        machine = conv.machine
        sm = observe.self_metrics(machine, lrts)
        # reading them moved nothing the digest covers
        assert observe.collect_snapshot() == snapshot
        assert observe.metrics_digest() == digest
        assert sm["route"] == machine.network.route_stats()
        assert set(sm["route"]) == {"vertices", "links", "hops"}
        assert 0 < sm["route"]["vertices"] <= sm["route"]["links"]
        assert sm["collector"] == machine.engine.collector_stats()
        assert sm["c_core"]["bound"] is (machine.engine._core is not None)
        touched = sm["first_touch"]
        assert touched["links"] == len(list(machine.network.links())) > 0
        assert touched["inject_ports"] == touched["eject_ports"] == 3
        assert touched == {**observe.self_metrics(machine)["first_touch"],
                           **lrts.first_touch()}
        held = sm["observer"]
        assert held == machine.observer.footprint()
        assert held["spans"] == machine.observer.tracer.minted() > 0
        assert held["stage_rows"] > held["spans"]
        assert held["timeline_rows"] > 0 and held["evicted"] == 0
        assert held["column_bytes"] > 0
        if layer == "ugni":
            # 4 KB kNeighbor on 3 cores: every PE receives, rendezvous
            # pools and post CQs on every PE, tables where they registered
            assert touched["rx_cqs"] == touched["post_cqs"] == 3
            assert touched["smsg_connections"] == 6
            assert touched["pools"] == touched["registration_tables"] == 3

    def test_results_identical_observe_on_or_off(self):
        on, _ = observed_kneighbor()
        off = kneighbor(4 * KB, layer="ugni", iters=5,
                        config=MachineConfig())
        assert repr(on.iteration_time) == repr(off.iteration_time)

    def test_sequential_vs_sharded_digest_parity(self):
        """Same run on the sharded engine: identical metrics except the
        engine's own window/barrier counters (masked by ``exclude``)."""
        _, seq_obs = observed_kneighbor(size=2 * KB, iters=10)
        seq_snap = observe.collect_snapshot()
        seq_digest = observe.metrics_digest(exclude=("engine",),
                                            snapshot=seq_snap)
        eng = ShardedEngine(n_shards=3)
        observed_kneighbor(size=2 * KB, iters=10, engine=eng)
        shd_snap = observe.collect_snapshot()
        shd_digest = observe.metrics_digest(exclude=("engine",),
                                            snapshot=shd_snap)
        assert not eng.shard_stats()["sequential"]
        assert seq_digest == shd_digest
        # the masked keys really did differ (the test has teeth): the
        # sequential engine exports events/now, the sharded one its
        # window counters — unmasked digests cannot match
        assert "gauge/engine/windows" in shd_snap
        assert "gauge/engine/windows" not in seq_snap
        assert observe.metrics_digest(snapshot=seq_snap) != \
            observe.metrics_digest(snapshot=shd_snap)

    def test_shard_and_pool_stats_exported(self):
        eng = ShardedEngine(n_shards=3)
        observed_kneighbor(size=2 * KB, iters=10, engine=eng)
        snap = observe.collect_snapshot()
        assert snap["gauge/engine/n_shards"] == 3
        assert snap["gauge/engine/windows"] > 0
        pool_keys = [k for k in snap if k.startswith("gauge/pool/")]
        assert pool_keys, "mempool occupancy missing from the snapshot"

    def test_crosslayer_observers_merge_deterministically(self):
        observe.clear_registry()
        for layer in LAYERS:
            kneighbor(2 * KB, layer=layer, iters=3,
                      config=MachineConfig(observe=True))
        assert len(observe.active_observers()) == 3
        merged = observe.collect_snapshot()
        # counters add across observers: 3 runs' messages, not 1
        one = observe.active_observers()[0].snapshot()
        assert merged["counter/msg/sent"] > one["counter/msg/sent"]
        d1 = observe.metrics_digest(snapshot=merged)
        observe.clear_registry()
        for layer in LAYERS:
            kneighbor(2 * KB, layer=layer, iters=3,
                      config=MachineConfig(observe=True))
        assert observe.metrics_digest() == d1


# --------------------------------------------------------------------- #
# flight recorder
# --------------------------------------------------------------------- #
class TestFlightRecorder:
    def test_dump_on_reliability_giveup(self):
        """100% drop + tiny retry budget: every give-up leaves a dump
        whose ring holds the retransmissions that led up to it."""
        observe.clear_registry()
        m = Machine(n_nodes=4, config=tiny_config(cores_per_node=2).replace(observe=True),
                    seed=0)
        conv, layer = make_runtime(
            machine=m, n_pes=m.n_pes, layer="ugni",
            layer_config=UgniLayerConfig(**FAST),
            faults=FaultConfig(smsg_drop_rate=1.0))
        h = conv.register_handler(lambda pe, msg: None)
        sender = conv.register_handler(
            lambda pe, msg: conv.send(pe, 2, Message(h, pe.rank, 2, 64)))
        for _ in range(3):
            conv.send_from_outside(0, Message(sender, 0, 0, 0))
        m.engine.run(max_events=1_000_000)
        obs = m.observer
        assert layer.stats()["rel_failed"] == 3
        giveups = [d for d in obs.flight.dumps
                   if d.reason == "recovery:give_up"]
        assert len(giveups) == 3
        dump = giveups[-1]
        assert any(r.event == "retransmit" for r in dump.records)
        assert "give_up" in dump.render() or "retransmit" in dump.render()
        snap = obs.metrics.snapshot()
        assert snap["counter/recovery/give_up"] == 3

    def test_dump_on_engine_stall(self):
        observe.clear_registry()
        m = Machine(n_nodes=2, config=tiny_config().replace(observe=True))

        def tick():
            m.engine.call_after(1e-9, tick)

        m.engine.call_after(1e-9, tick)
        with pytest.raises(Exception, match="max_events"):
            m.engine.run(max_events=50)
        assert any(d.reason == "engine-stall" for d in m.observer.flight.dumps)

    def test_ring_is_bounded(self):
        observe.clear_registry()
        m = Machine(n_nodes=2, config=tiny_config().replace(observe=True))
        obs = m.observer
        for i in range(1000):
            obs.flight.note(i * 1e-6, "fault", "synthetic")
        assert len(obs.flight.records) == 256
        assert obs.flight.dropped == 744
        dump = obs.flight.dump("test", 1.0)
        assert len(dump.records) == 256 and dump.dropped == 744

    def test_ring_keeps_newest_oldest_first(self):
        flight = FlightRecorder(capacity=4)
        for i in range(3):
            flight.note(i * 1e-6, "cat", "ev", seq=i)
        assert len(flight.records) == 3 and flight.dropped == 0
        for i in range(3, 10):
            flight.note(i * 1e-6, "cat", "ev", seq=i)
        assert len(flight.records) == 4
        assert flight.dropped == 6
        # the survivors are the newest four, oldest first — in the ring
        # and in a dump taken from it
        assert [r.detail["seq"] for r in flight.records] == [6, 7, 8, 9]
        dump = flight.dump("test", 1.0)
        assert [r.detail["seq"] for r in dump.records] == [6, 7, 8, 9]
        assert dump.dropped == 6

    def test_ring_capacity_validated(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="capacity"):
                FlightRecorder(capacity=bad)


# --------------------------------------------------------------------- #
# fault report folding (one recorder: counters and flight records agree)
# --------------------------------------------------------------------- #
class TestFaultReportFolding:
    def test_observer_counts_match_trace_counts(self):
        observe.clear_registry()
        m = Machine(n_nodes=4, config=tiny_config(cores_per_node=2).replace(observe=True),
                    seed=1)
        conv, layer = make_runtime(
            machine=m, n_pes=m.n_pes, layer="ugni",
            layer_config=UgniLayerConfig(**FAST),
            faults=FaultConfig(smsg_drop_rate=0.4))
        h = conv.register_handler(lambda pe, msg: None)
        sender = conv.register_handler(
            lambda pe, msg: conv.send(pe, 2, Message(h, pe.rank, 2, 64)))
        for _ in range(10):
            conv.send_from_outside(0, Message(sender, 0, 0, 0))
        m.engine.run(max_events=1_000_000)
        flight = m.observer.flight
        assert flight.dropped == 0  # the ring still holds the whole run
        from_trace: dict = {"fault": {}, "recovery": {}}
        for rec in flight.records:
            counts = from_trace[rec.category]
            counts[rec.event] = counts.get(rec.event, 0) + 1
        from_observer: dict = {"fault": {}, "recovery": {}}
        for key, value in m.observer.snapshot().items():
            kind, _, event = key.partition("/")[2].partition("/")
            if key.startswith("counter/") and kind in from_observer:
                from_observer[kind][event] = int(value)
        assert from_trace == from_observer
        assert from_trace["fault"]["smsg_drop"] == m.faults.smsg_dropped > 0
        assert from_trace["recovery"]["retransmit"] == layer.rel_retransmits
        # every record carries the detail its reporter attached
        assert all(rec.detail["cause"] == "injected" for rec in flight.records
                   if rec.event == "smsg_drop")


# --------------------------------------------------------------------- #
# exporters
# --------------------------------------------------------------------- #
class TestExport:
    def test_chrome_trace_structure(self, tmp_path):
        _, obs = observed_kneighbor()
        doc = chrome_trace(obs)
        json.dumps(doc)  # serializable
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "b", "e"} <= phases
        begins = sum(1 for e in events if e["ph"] == "b")
        ends = sum(1 for e in events if e["ph"] == "e")
        assert begins == ends == len(
            [tid for tid, *_, stages in obs.tracer.records() if stages])
        for e in events:
            if e["ph"] == "X":
                assert e["dur"] >= 0.0

    def test_timeline_and_utilization(self):
        _, obs = observed_kneighbor()
        util = pe_utilization(obs)
        assert util, "observer should double as the per-PE tracer"
        assert any("useful" in kinds or "overhead" in kinds
                   for kinds in util.values())
        text = format_timeline(obs)
        assert "pe0" in text and "busy" in text

    def test_cli_writes_artifacts(self, tmp_path, capsys):
        from repro.observe.__main__ import main
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.jsonl"
        rc = main(["kneighbor", "--size", "2048", "--iters", "3",
                   "--trace", str(trace), "--metrics", str(metrics)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        rows = [json.loads(line)
                for line in metrics.read_text().splitlines()]
        assert rows[0]["app"] == "kneighbor"
        assert rows[0]["metrics_digest"]
        assert rows[0]["metrics"]["counter/msg/sent"] > 0
