"""The typed-column trace record against the object-built one.

``tests/_reference_tracer.py`` is the observer's trace record as it stood
when every stage was a ``Stage`` object, every span a ``Span`` in a dict
and every PE interval a tuple in a per-rank list.  The same observed runs
go through it and through the live observer — kNeighbor on each machine
layer, and the lossy uGNI run whose retransmissions repeat ``tx`` /
``arrive`` — and everything a reader sees must be identical: the Chrome
trace JSON, the timeline text and dict, the per-PE utilisation, every span
(the live tracer's ``records()``) and the metrics digest.  Random
mint/stage/fast-forward streams drive both tracers directly.
"""

import json
import random

import pytest

from repro import observe
from repro.hardware import machine as machine_mod
from repro.observe import (
    MessageTracer,
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


@pytest.mark.parametrize("seed", [None, 0, 1, 5, 64])
def test_random_stream_matches_reference(seed):
    rng = random.Random(seed)
    live, ref = MessageTracer(), RefMessageTracer()
    names = ("send", "lrts", "tx", "arrive", "deliver", "exec", "custom")
    for step in range(3000):
        roll = rng.random()
        if roll < 0.3:
            args = (rng.randrange(8), rng.randrange(8), rng.randrange(1 << 20))
            assert live.mint(*args) == ref.mint(*args)
        elif roll < 0.302:
            ahead = live.minted() + rng.randrange(1, 20)
            live.fast_forward(ahead)
            ref.fast_forward(ahead)
        else:
            tid = rng.randrange(-2, live.minted() + 3)
            stage = rng.choice(names)
            if roll < 0.5 and stage in ("send", "deliver", "exec"):
                # the observer's form: the row keeps the rank
                rank = rng.randrange(8)
                live.pe_stage(tid, names.index(stage), step * 1e-6, rank)
                ref.stage(tid, stage, step * 1e-6, f"pe{rank}")
                continue
            where = rng.choice((None, "smsg[0->1]", "cq3", "ugni"))
            detail = rng.choice((None, "rendezvous", "small"))
            for tracer in (live, ref):
                tracer.stage(tid, stage, step * 1e-6, where, detail)
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
        assert live.first_send(tid) == (sends[0] if sends else None)
        rndv = [s.time for s in span.stages
                if s.stage == "lrts" and s.detail == "rendezvous"]
        assert live.first_rendezvous(tid) == (rndv[0] if rndv else None)
