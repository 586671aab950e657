"""The typed-column trace record against the object-built one.

``tests/_reference_tracer.py`` is the observer's trace record as it stood
when every stage was a ``Stage`` object, every span a ``Span`` in a dict
and every PE interval a tuple in a per-rank list.  The same observed runs
go through it and through the live observer — kNeighbor on each machine
layer, the lossy uGNI run whose retransmissions repeat ``tx`` /
``arrive``, the 256 B kNeighbor of ``knb_observed``, an intranode
ping-pong, a GPU kNeighbor and a crash/restart run whose restored tracers
start past IDs they never minted — and everything a reader sees must be
identical: the Chrome trace JSON, the timeline text and dict, the per-PE
utilisation, every span (the live tracer's ``records()``) and the metrics
digest.  Random send/stage/fast-forward streams drive both tracers
directly, and random hook streams drive both observers' per-message hooks.
"""

import json
import random
from types import SimpleNamespace

import pytest

from repro import observe
from repro.apps.gpu_apps import gpu_kneighbor
from repro.apps.pingpong import charm_pingpong
from repro.faults import NodeCrash
from repro.hardware import machine as machine_mod
from repro.hardware.config import MachineConfig, tiny
from repro.observe import (
    MessageTracer,
    Observer,
    chrome_trace,
    format_timeline,
    pe_utilization,
)
from tests._reference_tracer import (
    RefMessageTracer,
    RefObserver,
    ref_chrome_trace,
    ref_format_timeline,
    ref_pe_utilization,
)
from repro.resilience import PhasedSum, RecoveryPolicy, ResilienceManager
from repro.units import KB
from tests.test_observe import LAYERS, chaos_run, observed_kneighbor


def _spans(tracer):
    """``trace_id -> (src_pe, dst_pe, nbytes, [(stage, time, where,
    detail)])`` of either tracer."""
    if isinstance(tracer, RefMessageTracer):
        return {tid: (span.src_pe, span.dst_pe, span.nbytes,
                      [(s.stage, s.time, s.where, s.detail)
                       for s in span.stages])
                for tid, span in tracer.spans.items()}
    return {tid: (src, dst, nbytes, stages)
            for tid, src, dst, nbytes, stages in tracer.records()}


def _delivered(spans):
    return [tid for tid, (*_, stages) in spans.items()
            if any(stage == "exec" for stage, *_ in stages)]


def _record(obs, chrome, timeline, utilization):
    """Everything a reader sees of one observer's trace record."""
    spans = _spans(obs.tracer)
    return {
        "chrome": json.dumps(chrome(obs)),
        "timeline_text": timeline(obs),
        "timeline": list(obs.timeline.items()),
        "utilization": list(utilization(obs).items()),
        "spans": spans,
        "delivered": _delivered(spans),
        "minted": obs.tracer.minted(),
        "digest": observe.metrics_digest(),
    }


def _live_and_reference(run, monkeypatch):
    live = run()
    assert not isinstance(live, RefObserver)
    got = _record(live, chrome_trace, format_timeline, pe_utilization)
    monkeypatch.setattr(machine_mod, "Observer", RefObserver)
    ref = run()
    assert isinstance(ref, RefObserver)
    want = _record(ref, ref_chrome_trace, ref_format_timeline,
                   ref_pe_utilization)
    return got, want


def _first_observer(run):
    """Run ``run()`` with a clean registry; its first machine's observer."""
    def observed():
        observe.clear_registry()
        run()
        return observe.active_observers()[0]
    return observed


@pytest.mark.parametrize("layer", LAYERS)
def test_kneighbor_record_matches_reference(layer, monkeypatch):
    got, want = _live_and_reference(
        lambda: observed_kneighbor(layer=layer)[1], monkeypatch)
    assert got["spans"] and got["timeline"]
    for key in want:
        assert got[key] == want[key], key


def test_chaos_record_matches_reference(monkeypatch):
    got, want = _live_and_reference(lambda: chaos_run()[0].observer,
                                    monkeypatch)
    # the run has teeth: some message went on the wire more than once
    assert any([s[0] for s in stages].count("tx") > 1
               for *_, stages in got["spans"].values())
    for key in want:
        assert got[key] == want[key], key


def test_knb_observed_record_matches_reference(monkeypatch):
    # the 256 B SMSG path knb_observed times: one label per connection and
    # per receiving PE
    got, want = _live_and_reference(
        lambda: observed_kneighbor(size=256, iters=3)[1], monkeypatch)
    wheres = {where for *_, stages in got["spans"].values()
              for _, _, where, _ in stages}
    assert "smsg_rx[1]" in wheres and "smsg[0->1]" in wheres
    for key in want:
        assert got[key] == want[key], key


def test_intranode_record_matches_reference(monkeypatch):
    got, want = _live_and_reference(_first_observer(lambda: charm_pingpong(
        64, iters=4, warmup=1, intranode=True,
        config=MachineConfig(observe=True))), monkeypatch)
    assert any(("lrts", "intranode") == (stage, detail)
               for *_, stages in got["spans"].values()
               for stage, _, _, detail in stages)
    for key in want:
        assert got[key] == want[key], key


def test_gpu_record_matches_reference(monkeypatch):
    got, want = _live_and_reference(_first_observer(lambda: gpu_kneighbor(
        8 * KB, iters=2, warmup=1, config=MachineConfig(observe=True))),
        monkeypatch)
    assert any(stage == "gpu" for *_, stages in got["spans"].values()
               for stage, *_ in stages)
    for key in want:
        assert got[key] == want[key], key


def _crash_run():
    observe.clear_registry()
    ResilienceManager(
        PhasedSum(n_elements=32, rounds=40), n_nodes=8, layer="ugni",
        config=tiny(cores_per_node=1).replace(observe=True), seed=11,
        policy=RecoveryPolicy(checkpoint_interval=60e-6),
        crash_schedule=[NodeCrash(at=150e-6, node_id=3),
                        NodeCrash(at=700e-6, node_id=1)]).run()
    return observe.active_observers()


def test_crash_restart_records_match_reference(monkeypatch):
    live = _crash_run()
    got = [_record(obs, chrome_trace, format_timeline, pe_utilization)
           for obs in live]
    monkeypatch.setattr(machine_mod, "Observer", RefObserver)
    ref = _crash_run()
    want = [_record(obs, ref_chrome_trace, ref_format_timeline,
                    ref_pe_utilization) for obs in ref]
    assert len(got) == len(want) > 1
    # the run has teeth: each restored tracer starts past the IDs it never
    # minted (its rows sit at ``trace_id - base - 1``) and delivers spans;
    # IDs it has no row for are the random hook stream's
    assert all(obs.tracer._base > 0 and obs.tracer.delivered() > 0
               for obs in live[1:])
    for g, w in zip(got, want):
        for key in w:
            assert g[key] == w[key], key


def _first(column, tracer, tid):
    """A span's send time column, None for NaN or no span."""
    row = tid - tracer._base - 1
    if not 0 <= row < len(column):
        return None
    time = column[row]
    return None if time != time else time


@pytest.mark.parametrize("seed", [None, 0, 1, 5, 64])
def test_random_stream_matches_reference(seed):
    rng = random.Random(seed)
    live, ref = MessageTracer(), RefMessageTracer()
    names = ("send", "lrts", "tx", "arrive", "deliver", "exec", "custom")
    for step in range(3000):
        roll = rng.random()
        if roll < 0.3:
            src, dst, nbytes = (rng.randrange(8), rng.randrange(8),
                                rng.randrange(1 << 20))
            tid = ref.mint(src, dst, nbytes)
            ref.stage(tid, "send", step * 1e-6, f"pe{src}")
            assert live.send(src, dst, nbytes, step * 1e-6) == tid
        elif roll < 0.302:
            ahead = live.minted() + rng.randrange(1, 20)
            live.fast_forward(ahead)
            ref.fast_forward(ahead)
        else:
            tid = rng.choice((None, rng.randrange(-2, live.minted() + 3)))
            stage = rng.choice(names)
            where = rng.choice((None, "smsg[0->1]", "cq3", "ugni"))
            detail = rng.choice((None, "rendezvous", "small"))
            ref.stage(tid, stage, step * 1e-6, where, detail)
            if roll < 0.5 and stage in names[:6]:
                live.row(tid, names.index(stage), step * 1e-6, where, detail)
            else:
                live.stage(tid, stage, step * 1e-6, where, detail)
        if step % 250 == 0:
            assert _spans(live) == _spans(ref)
    live_spans = _spans(live)
    assert live_spans == _spans(ref)
    delivered = [s.trace_id for s in ref.delivered_spans()]
    assert _delivered(live_spans) == delivered
    assert live.delivered() == len(delivered)
    for tid in range(-1, live.minted() + 2):
        span = ref.span(tid)
        assert (tid in live_spans) == (span is not None)
        if span is None:
            continue
        sends = span.times("send")
        assert _first(live._sent_at, live, tid) == (
            sends[0] if sends else None)
        rndv = [s.time for s in span.stages
                if s.stage == "lrts" and s.detail == "rendezvous"]
        # the rendezvous map holds rendezvous spans only
        assert live._rndv_at.get(tid - live._base - 1) == (
            rndv[0] if rndv else None)


def _carrier(msg, depth):
    """``msg`` as a fabric hands it to a hook: itself, inside an SMSG
    message, or one wrapper deeper (a reliability packet)."""
    for _ in range(depth):
        msg = SimpleNamespace(payload=msg)
    return msg


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_random_hook_stream_matches_reference(seed):
    """Every per-message hook, live against the oracle, on IDs in and out
    of the tracer's range, unminted IDs and messages with no ID."""
    rng = random.Random(seed)
    live, ref = Observer(None), RefObserver(None)
    observe.clear_registry()  # no machine behind them to snapshot
    msgs = []  # (live message, reference message) pairs, one per send
    for step in range(4000):
        time, roll = step * 1e-6, rng.random()
        if roll < 0.2 or not msgs:
            src, dst = rng.randrange(8), rng.randrange(8)
            nbytes = rng.randrange(1 << 16)
            pair = tuple(SimpleNamespace(dst_pe=dst, nbytes=nbytes,
                                         trace_id=None, payload=None)
                         for _ in range(2))
            for obs, msg in zip((live, ref), pair):
                obs.on_send(msg, src, time)
            msgs.append(pair)
            continue
        if roll < 0.21:
            ahead = live.tracer.minted() + rng.randrange(1, 20)
            live.tracer.fast_forward(ahead)
            ref.tracer.fast_forward(ahead)
            continue
        pair = rng.choice(msgs)
        if roll < 0.3:
            # an ID this tracer may never have minted, or none at all
            tid = rng.choice((None, rng.randrange(-2, live.tracer.minted()
                                                  + 3)))
            pair = tuple(SimpleNamespace(dst_pe=0, nbytes=8, trace_id=tid,
                                         payload=msg) for msg in pair)
        hook = rng.choice(("deliver", "exec", "lrts", "tx", "arrive",
                           "gpu", "net"))
        rank, depth = rng.randrange(8), rng.randrange(3)
        layer, path = rng.choice((("ugni", "small"), ("ugni", "rendezvous"),
                                  ("mpi", "eager"), ("rdma", "intranode")))
        where = rng.choice((None, "smsg[0->1]", "smsg_rx[3]", "cq3"))
        for obs, msg in zip((live, ref), pair):
            if hook in ("deliver", "exec"):
                if msg.trace_id is not None:  # the scheduler's guard
                    getattr(obs, f"on_{hook}")(msg, rank, time)
            elif hook == "lrts":
                obs.on_lrts(layer, path, msg, time)
            elif hook == "tx":
                obs.on_tx(_carrier(msg, depth), path, msg.nbytes, where,
                          time)
            elif hook == "arrive":
                obs.on_arrive(_carrier(msg, depth), where, time)
            elif hook == "gpu":
                obs.on_gpu("d2h", msg, msg.nbytes, time, where)
            else:
                obs.on_net_transfer(0, 1, msg.nbytes, time,
                                    time + rank * 1e-7, depth)
        if step % 500 == 0:
            assert _spans(live.tracer) == _spans(ref.tracer)
    assert _spans(live.tracer) == _spans(ref.tracer)
    # nor a row for an ID with no span: a delivered count or a row count
    # would show it
    assert live.tracer.delivered() == len(ref.tracer.delivered_spans())
    assert live.tracer.footprint()["stage_rows"] == sum(
        len(span.stages) for span in ref.tracer.spans.values())
    assert live.metrics.counters == ref.metrics.counters
    assert live.metrics._hists == ref.metrics._hists
    assert live.metrics.counters["rndv/roundtrips"] > 0
