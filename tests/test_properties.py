"""Hypothesis property tests on cross-cutting invariants.

Each test states an invariant the stack must hold for *any* input in the
strategy's domain — these are the checks that catch protocol bugs unit
tests' hand-picked cases miss.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.converse.scheduler import ConverseRuntime, Message
from repro.hardware import Machine
from repro.hardware.config import tiny as tiny_config
from repro.lrts.factory import make_runtime
from repro.mpish import ANY, MpiWorld
from repro.mpish.matching import Arrival, MatchEngine
from repro.sim.engine import Engine

SETTINGS = dict(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


# --------------------------------------------------------------------- #
# MPI matching vs. a brute-force reference model
# --------------------------------------------------------------------- #
class _ReferenceMatcher:
    """Obviously-correct O(n) model of MPI matching semantics."""

    def __init__(self):
        self.unexpected = []

    def add(self, src, tag, uid):
        self.unexpected.append((src, tag, uid))

    def match(self, want_src, want_tag):
        for i, (src, tag, uid) in enumerate(self.unexpected):
            if want_src in (ANY, src) and want_tag in (ANY, tag):
                self.unexpected.pop(i)
                return uid
        return None


@settings(**SETTINGS)
@given(st.lists(
    st.one_of(
        st.tuples(st.just("arrive"), st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.just("recv"),
                  st.sampled_from([ANY, 0, 1, 2, 3]),
                  st.sampled_from([ANY, 0, 1, 2, 3])),
    ),
    max_size=60,
))
def test_match_engine_agrees_with_reference(ops):
    """The production matcher must pick exactly the same message as the
    reference for every arrival/receive interleaving (MPI's FIFO +
    wildcard semantics)."""
    eng = MatchEngine(0, tiny_config())
    ref = _ReferenceMatcher()
    uid = 0
    for op in ops:
        if op[0] == "arrive":
            _, src, tag = op
            eng.add_unexpected(Arrival(src, 0, tag, 8, uid, 0.0))
            ref.add(src, tag, uid)
            uid += 1
        else:
            _, src, tag = op
            got, _ = eng.match_unexpected(src, tag, pop=True)
            expect = ref.match(src, tag)
            assert (got.payload if got else None) == expect
    assert len(eng.unexpected) == len(ref.unexpected)


# --------------------------------------------------------------------- #
# SMSG credit conservation under random traffic
# --------------------------------------------------------------------- #
@settings(**SETTINGS)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(1, 512)), max_size=80),
       st.integers(0, 2**16))
def test_smsg_credits_conserved(messages, seed):
    from repro.errors import UgniInvalidParam, UgniNoSpace
    from repro.ugni.api import GniJob

    m = Machine(n_nodes=4, config=tiny_config(cores_per_node=1), seed=seed)
    job = GniJob(m)
    sent = 0
    for src, dst, size in messages:
        if src == dst:
            continue
        try:
            job.smsg.send(src, dst, tag=0, nbytes=size)
            sent += 1
        except (UgniNoSpace, UgniInvalidParam):
            pass
    m.engine.run()
    # drain everything everywhere
    drained = 0
    for pe in range(4):
        while True:
            msg, _ = job.smsg.get_next(pe)
            if msg is None:
                break
            drained += 1
    assert drained == sent
    assert job.smsg.in_flight() == 0
    # every connection's credits fully released
    assert job.smsg.credits_used() == 0
    assert all(held == 0 for _, _, held in job.smsg.pairs())


# --------------------------------------------------------------------- #
# Scheduler: virtual time is monotone and conserved per PE
# --------------------------------------------------------------------- #
@settings(**SETTINGS)
@given(st.lists(st.tuples(st.integers(0, 5), st.floats(0.0, 1e-5)),
                min_size=1, max_size=50),
       st.integers(0, 100))
def test_scheduler_time_accounting_exact(work_items, seed):
    """useful + overhead + idle per PE must equal elapsed time exactly,
    and handler executions never overlap on one PE."""
    conv, _ = make_runtime(n_pes=6, config=tiny_config(cores_per_node=2),
                           seed=seed)
    spans = {r: [] for r in range(6)}

    def handler(pe, msg):
        start = pe.vtime
        pe.charge(msg.payload, "useful")
        spans[pe.rank].append((start, pe.vtime))

    hid = conv.register_handler(handler)
    for rank, amount in work_items:
        conv.send_from_outside(rank, Message(hid, rank, rank, 8,
                                             payload=float(amount)))
    conv.run(max_events=10**6)
    # the logical horizon: handlers may run past the final engine event
    # (vtime runs ahead while the handler's charged time elapses)
    end = max([conv.engine.now] + [pe.busy_until for pe in conv.pes])
    for pe in conv.pes:
        # no overlapping executions
        for (s0, e0), (s1, e1) in zip(spans[pe.rank], spans[pe.rank][1:]):
            assert s1 >= e0
        # accounting closes: busy time fits inside the horizon
        busy = pe.useful_time + pe.overhead_time
        assert busy <= end + 1e-12


# --------------------------------------------------------------------- #
# Charm reductions: any contribution pattern combines exactly once
# --------------------------------------------------------------------- #
@settings(**SETTINGS)
@given(st.integers(1, 30), st.integers(1, 3), st.integers(2, 12))
def test_reduction_sums_any_shape(n_elems, rounds, n_pes):
    from repro.charm import Chare, Charm

    conv, _ = make_runtime(n_pes=n_pes, config=tiny_config(cores_per_node=4))
    charm = Charm(conv)
    results = []

    class W(Chare):
        def go(self):
            self.contribute(self.thisIndex + 1, "sum",
                            self.thisProxy[0].report)

        def report(self, value):
            results.append(value)

    arr = charm.create_array(W, n_elems)
    for _ in range(rounds):
        charm.start(lambda pe: arr.go())
        charm.run(max_events=10**6)
    expected = n_elems * (n_elems + 1) // 2
    assert results == [expected] * rounds


# --------------------------------------------------------------------- #
# Message conservation through the full uGNI machine layer
# --------------------------------------------------------------------- #
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                          st.sampled_from([8, 100, 2000, 40000])),
                min_size=1, max_size=40),
       st.sampled_from(["ugni", "mpi"]))
def test_layer_delivers_every_message_once(traffic, layer):
    conv, lrts = make_runtime(n_pes=8, layer=layer,
                              config=tiny_config(cores_per_node=4))
    got = []

    def sink(pe, msg):
        got.append(msg.payload)

    h_sink = conv.register_handler(sink)

    def spray(pe, msg):
        for i, (src, dst, size) in enumerate(traffic):
            if src == pe.rank:
                conv.send(pe, dst, Message(h_sink, pe.rank, dst, size,
                                           payload=i))

    h_spray = conv.register_handler(spray)
    for src in range(8):
        conv.send_from_outside(src, Message(h_spray, src, src, 0))
    conv.run(max_events=10**6)
    assert sorted(got) == sorted(i for i, _ in enumerate(traffic))


# --------------------------------------------------------------------- #
# Engine: event ordering is a total order consistent with timestamps
# --------------------------------------------------------------------- #
@settings(**SETTINGS)
@given(st.lists(st.floats(0, 1e-3), min_size=1, max_size=100))
def test_engine_executes_in_timestamp_order(delays):
    eng = Engine()
    fired = []
    for i, d in enumerate(delays):
        eng.call_after(d, fired.append, (d, i))
    eng.run()
    assert len(fired) == len(delays)
    times = [t for t, _ in fired]
    assert times == sorted(times)
    # ties broken by scheduling order
    for (t0, i0), (t1, i1) in zip(fired, fired[1:]):
        if t0 == t1:
            assert i0 < i1


# --------------------------------------------------------------------- #
# Determinism: whole applications replay identically
# --------------------------------------------------------------------- #
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 1000))
def test_full_app_replay_determinism(seed):
    from repro.apps.nqueens import run_nqueens

    a = run_nqueens(8, 4, 8, layer="ugni", seed=seed, config=tiny_config())
    b = run_nqueens(8, 4, 8, layer="ugni", seed=seed, config=tiny_config())
    assert a.total_time == b.total_time
    assert a.messages_sent == b.messages_sent
