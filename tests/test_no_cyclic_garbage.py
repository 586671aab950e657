"""No message path leaves work for the cyclic garbage collector.

A message that builds a reference cycle — a closure whose cell holds the
descriptor whose context holds the closure — is freed only by a
collector pass, and the passes themselves cost more host time than the
calls that built the cycle (DESIGN §16, "the large-message path").  Each
scenario therefore runs twice with the collector off, at ``n`` and ``2n``
iterations, and ``gc.collect()`` must find the same number of objects
after both: what set-up orphaned, and nothing per message.  The runtime
itself is kept alive across the collection — it is one big cycle whose
size depends on the run's length (links, registration caches), and
it is state, not garbage.  On failure the types that grew with the
iteration count are printed.

``Engine.run`` leans on this: it keeps the collector out of the event
loop altogether (``tests/test_collector_pause.py``), which is only sound
while no message path needs one.
"""

import collections
import gc

import pytest

from repro.apps.kneighbor import kneighbor
from repro.apps.minimd.app import run_minimd
from repro.apps.nqueens.app import run_nqueens
from repro.apps.pingpong import charm_pingpong
from repro.hardware.config import MachineConfig
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.units import KB


def _knb(size, layer="ugni", n_cores=16, k=2, warmup=1, **kw):
    def run(iters):
        kneighbor(size, layer=layer, k=k, n_cores=n_cores, iters=iters,
                  warmup=warmup, **kw)
    return run


def _persistent_pingpong(iters):
    charm_pingpong(64 * KB, persistent=True, iters=iters, warmup=2)


def _minimd(steps):
    run_minimd("dhfr", 48, steps=steps, warmup=1)


def _nqueens(scale):
    # 7-Queens (254 tasks) then 8-Queens (535): a longer search on the
    # same PEs, every task one 88 B message to a random PE
    run_nqueens(6 + scale, 6, 48, seed=3)


#: scenario -> (run(n), n): every machine layer's rendezvous, the SMSG
#: path (plain, and with a retransmit timer armed per message), a
#: persistent channel, the mixed mini-MD step, the N-Queens task tree and
#: a cold 1,024-PE machine (start broadcast plus first-touch state on
#: every PE, no warm-up)
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
    "nqueens-tree": (_nqueens, 1),
    "ugni-cold-1024": (_knb(32, n_cores=1024, k=1, warmup=0), 1),
}


@pytest.fixture
def garbage_after(held_runtimes):
    """``garbage_after(run, n) -> (objects found, type histogram)`` by a
    full collection after ``run(n)`` executed with the collector disabled
    and the runtime the app built still referenced."""
    held = held_runtimes

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


def test_large_message_steady_state_keeps_nothing(held_runtimes,
                                                  garbage_after, monkeypatch):
    """256 KB kNeighbor: with the runtime held, a run twice as long leaves
    exactly as many GC-tracked objects behind — steady state allocates
    nothing that survives — and a full collection finds no per-post
    object."""
    # a sanitizer or an observer keeps a record per message, by design
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.delenv("REPRO_OBSERVE", raising=False)
    run = _knb(256 * KB)

    def tracked_after(n):
        gc.collect()
        before = len(gc.get_objects())
        run(n)
        gc.collect()
        tracked = len(gc.get_objects()) - before
        held_runtimes.clear()
        return tracked

    # the first call in a process also fills interpreter-level caches
    # (ABC registries and the like); measure after it
    tracked_after(1)
    assert tracked_after(8) == tracked_after(4)
    _, types = garbage_after(run, 4)
    assert not {"PostDescriptor", "function", "cell"} & set(types), types
