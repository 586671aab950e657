"""No message path leaves work for the cyclic garbage collector.

A message that builds a reference cycle — a closure whose cell holds the
descriptor that holds the CQ that holds the closure — is freed only by a
collector pass, and the passes themselves cost more host time than the
calls that built the cycle (DESIGN §16, "the large-message path").  Each
scenario therefore runs twice with the collector off, at ``n`` and ``2n``
iterations, and ``gc.collect()`` must find the same number of objects
after both: what set-up orphaned, and nothing per message.  The runtime
itself is kept alive across the collection — it is one big cycle whose
size depends on the run's length (route table, registration caches), and
it is state, not garbage.  On failure the types that grew with the
iteration count are printed.
"""

import collections
import gc

import pytest

import repro.apps.kneighbor
import repro.apps.minimd.app
import repro.apps.pingpong
from repro.apps.kneighbor import kneighbor
from repro.apps.minimd.app import run_minimd
from repro.apps.pingpong import charm_pingpong
from repro.hardware.config import MachineConfig
from repro.lrts.factory import make_runtime
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.units import KB


def _knb(size, layer="ugni", n_cores=16, **kw):
    def run(iters):
        kneighbor(size, layer=layer, k=2, n_cores=n_cores, iters=iters,
                  warmup=1, **kw)
    return run


def _persistent_pingpong(iters):
    charm_pingpong(64 * KB, persistent=True, iters=iters, warmup=2)


def _minimd(steps):
    run_minimd("dhfr", 48, steps=steps, warmup=1)


#: scenario -> (run(n), n): every machine layer's rendezvous, the SMSG
#: path (plain, and with a retransmit timer armed per message), a
#: persistent channel and the mixed mini-MD step
SCENARIOS = {
    "ugni-get-256K": (_knb(256 * KB), 4),
    "ugni-put-256K": (_knb(256 * KB,
                           layer_config=UgniLayerConfig(rendezvous="put")), 4),
    "rdma-256K": (_knb(256 * KB, layer="rdma",
                       config=MachineConfig(topology="dragonfly")), 4),
    "mpi-256K": (_knb(256 * KB, layer="mpi"), 4),
    "ugni-256B": (_knb(256), 4),
    "ugni-256B-reliable": (_knb(256, layer_config=UgniLayerConfig(
        reliability=True)), 4),
    "ugni-persistent": (_persistent_pingpong, 10),
    "minimd-step": (_minimd, 1),
}


@pytest.fixture
def garbage_after(monkeypatch):
    """``garbage_after(run, n) -> (objects found, type histogram)`` by a
    full collection after ``run(n)`` executed with the collector disabled
    and the runtime the app built still referenced."""
    held = []

    def recording_make_runtime(*args, **kwargs):
        held.append(make_runtime(*args, **kwargs))
        return held[-1]

    for app in (repro.apps.kneighbor, repro.apps.pingpong,
                repro.apps.minimd.app):
        monkeypatch.setattr(app, "make_runtime", recording_make_runtime)

    def measure(run, n):
        gc.collect()
        gc.disable()
        try:
            run(n)
            assert held, "the app did not build its runtime through the patch"
            gc.set_debug(gc.DEBUG_SAVEALL)
            found = gc.collect()
            types = collections.Counter(type(o).__name__ for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            held.clear()
            gc.enable()
        return found, types

    return measure


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_per_message_cyclic_garbage_is_zero(name, garbage_after):
    run, n = SCENARIOS[name]
    short, short_types = garbage_after(run, n)
    long, long_types = garbage_after(run, 2 * n)
    grew = {t: c - short_types[t] for t, c in long_types.items()
            if c != short_types[t]}
    assert long == short, (
        f"{name}: {long - short} more unreachable objects after {2 * n} "
        f"iterations than after {n}; types that grew: {grew}")


def test_large_message_run_needs_no_old_generation_pass(garbage_after):
    """256 KB kNeighbor with the collector on: nothing survives into the
    old generation, so no generation-2 pass runs, and a full collection
    afterwards finds no per-post object."""
    gc.collect()
    before = gc.get_stats()[2]["collections"]
    _knb(256 * KB, n_cores=64)(24)
    assert gc.get_stats()[2]["collections"] == before
    _, types = garbage_after(_knb(256 * KB), 4)
    assert not {"CompletionQueue", "PostDescriptor", "function",
                "cell"} & set(types), types
