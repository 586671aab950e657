"""The message paths have call budgets, and a fault path.

A 256 B kNeighbor message crosses the scheduler, the uGNI machine layer,
SMSG, the NIC, the router and the CQ.  Host time on that path is dominated
by the *number* of Python calls, so the number is pinned: it is exactly
repeatable (the simulation is deterministic and the counter sees every
call), and it may only go down.  The chaos case drives the same path with
SMSG drops and stalls injected, which is where the arrival still goes
through per-message closures.

The rendezvous path (256 KB) is pinned the same way on the two fabrics
that run it through the shared protocol core (:mod:`repro.lrts.protocols`):
the core may not cost an indirection per protocol step.  So is the
baseline's path, Charm++ over MPI, eager and rendezvous.

Cold state has a budget too: what one first-touch message per neighbour
leaves behind on a machine too large to warm up — GC-tracked objects per
PE (every one of them is walked by each later collector pass), bytes per
PE (tracked objects barely notice a run queue turning from a ``deque``
into a list, or a list into a float slot; resident memory does) and
routing state (one filled slot per link touched); and, on a larger machine,
the bytes per link and per SMSG connection made.
"""

import collections
import functools
import gc
import sys
import tracemalloc

import pytest

from repro.apps.kneighbor import _Neighbor, kneighbor
from repro.faults import FaultConfig
from repro.hardware.config import MachineConfig
from repro.hardware.link import Link
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.sim import Engine
from repro.units import KB

N_CORES, K, ITERS, WARMUP = 64, 4, 16, 3


def _app_msgs(iters, warmup):
    """Every core sends 2k messages and gets 2k ping-backs per iteration."""
    return N_CORES * 2 * K * 2 * (iters + warmup)


APP_MSGS = _app_msgs(ITERS, WARMUP)
#: Python calls inside ``repro`` per application message, machine set-up
#: included, measured + 0.5: 66.5 before the path was flattened from the
#: machine layer down, 38.3 after, 22.2 with the upper half (the proxy
#: call, the entry delivery, the scheduler's clock and charges) done too,
#: 21.2 with ``TorusNetwork.transfer`` in the C core (one frame a transfer),
#: 21.1 with routes by arithmetic (343 first touches where 835 misses were),
#: 21.04 with a first touch that makes its link where it sits, 18.89 with
#: SMSG arrivals handed straight to their consumer (no RX CQ entry),
#: 17.84 with an entry name found on the ref's class (the failed lookup
#: and ``__getattr__`` gone; one ``entry`` frame is the send) and a new
#: SMSG connection made without ``node_of_pe`` frames
CALL_BUDGET = 18.3
#: the same count for a 256 KB rendezvous message (iters=8, warmup=2):
#: 157.2 uGNI / 115.8 RDMA (on a dragonfly) before the protocols were
#: unified, 148.2 / 115.8 after, 120.2 / 101.7 once the large-message
#: path was flattened (NIC ports reserved inline, one validation pass per
#: post, one object per pool allocation), 87.9 / 74.4 with the upper half
#: flattened, 83.7 / 70.0 with four transfers a rendezvous in C, 79.3 /
#: 70.0 once its two control SMSGs made no RX CQ entry, 76.3 / 70.0 with
#: its GET's completion straight to the layer (no post CQ entry; 65.9
#: measured on rdma), 60.3 / 54.9 with each protocol step its own Converse
#: handler, the fabric port's charges written out, a control SMSG one
#: layer frame, a post one engine frame and a pool block built in place;
#: the PUT rendezvous (``ugni_put``) 90.3 -> 72.3 by the same changes;
#: 59.2 / 53.9 / 71.2 with an entry name found on the ref's class
RNDV_ITERS, RNDV_WARMUP = 8, 2
RNDV_MSGS = _app_msgs(RNDV_ITERS, RNDV_WARMUP)
RNDV_BUDGETS = {"ugni": 59.7, "rdma": 54.4, "ugni_put": 71.7}
#: the same count for a Charm-on-MPI message (``layer="mpi"``): 128 B
#: eager (iters=16, warmup=3) and 8 KB rendezvous (iters=8, warmup=2),
#: measured + 0.5: 54.93 / 69.21 with a frame per match, queue append,
#: probe-scan cost, node lookup, cost formula and PE charge, a waiter
#: list and closures per receive, and the unblock as three calls; 28.84 /
#: 37.06 with each protocol step one frame (send, arrival, Iprobe, Recv,
#: completion, the GET's completion, the FIN); 27.84 / 36.06 with an
#: entry name found on the ref's class
MPI_SIZES = {"eager": (128, ITERS, WARMUP), "rendezvous": (8 * KB, 8, 2)}
MPI_BUDGETS = {"eager": 28.3, "rendezvous": 36.6}
#: without the C core (``REPRO_PURE_ENGINE=1``, a CI leg) the engine's own
#: Python frames are on the path and counted too, ``Engine.now`` and the
#: router's Python body among them — and, per transfer, the topology's
#: arithmetic: two ``vertex`` frames and one ``out_hops`` frame a hop
#: (30.3 -> 33.9 small, 118.1 / 113.2 -> 133.0 / 135.4 rendezvous; the
#: dragonfly's legs are the longer); and, since each Python body is one
#: copy, a ``LinkTable.reserve`` frame per port and per hop where the
#: healthy fabric's reserves were written out inline (+3.8 small, +15.2
#: ugni, +22.7 rdma) and a ``_stage`` frame per handle ``_arm`` builds
#: (+5.1 rdma, whose queue pairs arm retransmit timers): 37.6 small,
#: 147.9 / 163.2 rendezvous; 35.6 small and 143.8 ugni rendezvous with no
#: SMSG RX CQ; 140.8 ugni rendezvous with no post CQ; 124.8 / 148.2
#: rendezvous and 145.5 PUT rendezvous with each step its own handler;
#: 34.53 small, 123.73 / 147.16 rendezvous and 144.41 PUT rendezvous with
#: an entry name found on the ref's class
#: the same 256 B count with the observer on (``knb_observed``'s hook
#: sites as writers, the sanitizer unset), C core / pure Python: 65.05 /
#: 82.75 with a counter frame per ``inc``, span-setup and interning
#: helpers and per-message label strings, 34.98 / 54.69 with each hook one
#: frame plus at most one row writer or histogram sample, 29.04 / 48.75
#: with each hook one frame that writes its row and bins in place, 27.99
#: / 47.69 with an entry name found on the ref's class
OBSERVED_CALL_BUDGET = 28.5
#: ``knb_observed``'s own configuration, the observer and the sanitizer
#: on: 40.03 / 59.73 with a ``_Msg`` shadow and an ``Engine.now`` read per
#: SMSG, 32.08 / 52.79 with neither and the hooks above, 31.03 / 51.73
#: with an entry name found on the ref's class
KNB_OBSERVED_CALL_BUDGET = 31.5
#: the MPI path on the pure-Python engine: 80.64 / 128.70 before it was
#: flattened, 55.56 / 98.56 after, 54.56 / 96.56 with an entry name found
#: on the ref's class
if Engine()._core is None:
    CALL_BUDGET = 35.0
    RNDV_BUDGETS = {"ugni": 124.2, "rdma": 147.7, "ugni_put": 144.9}
    OBSERVED_CALL_BUDGET = 48.2
    KNB_OBSERVED_CALL_BUDGET = 52.2
    MPI_BUDGETS = {"eager": 55.1, "rendezvous": 97.1}
#: one cold 1,024-PE ``kneighbor(32, k=1, iters=1, warmup=0)``, runtime
#: held: GC-tracked objects it leaves per PE, measured + 2 % (63.9 while a
#: route entry kept a coordinate tuple and a pair per candidate, 32.2 with
#: a row of link tuples per destination; 21.2 with routes by
#: arithmetic; 20.2 with links that keep no name tuple), the bytes
#: tracemalloc sees it hold per PE (9.9 KB -> 6.6 KB -> 5.6 KB -> 4.1 KB
#: with unnamed links, ports in lists and no idle run queue; 4.17 KB on
#: the pure-Python engine; 8.1 objects and 2.50 KB (2.55 KB pure) with
#: links and SMSG connections as typed columns; 6.1 objects and 2.24 KB
#: (2.29 KB pure) with no RX CQ per receiving PE), and its routing state
COLD_PES = 1024
COLD_TRACKED_PER_PE = 6.2
COLD_BYTES_PER_PE = 2350
COLD_ROUTES = {"vertices": 1024, "links": 4239, "hops": 13503}


def _repro_calls(fn, *args, **kwargs):
    """Run ``fn`` counting Python-level calls into ``repro`` modules.

    Returns ``(calls, result, table)``; ``table`` maps each ``(module,
    function)`` to its share of ``calls`` (what CI's ``BENCH_frames.json``
    holds per message, and what a budget failure prints).
    """
    table = collections.Counter()

    def hook(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith("repro"):
                table[module, frame.f_code.co_name] += 1

    sys.setprofile(hook)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return sum(table.values()), result, table


def _check_entry_lookups(table):
    """``ElementRef.__getattr__`` / ``ArrayProxy.__getattr__`` run only to
    build a name's entry function: at most once per distinct entry name on
    each class, never once per message (a failed attribute lookup builds
    and drops an ``AttributeError``, host time no frame count shows)."""
    names = [n for n in vars(_Neighbor) if not n.startswith("_")]
    lookups = table["repro.charm.chare", "__getattr__"]
    assert lookups <= 2 * len(names), (
        f"{lookups} __getattr__ frames for entry names {names}: a proxy "
        f"call took the failed-lookup path")


def _largest_rows(table, msgs, n=15):
    """The ``n`` functions with the most frames per message, one a line:
    a budget that fails names the frame that grew."""
    return "\n".join(
        f"{count / msgs:8.2f}  {module}.{function}"
        for (module, function), count in table.most_common(n))


def _run(iters=ITERS, warmup=WARMUP, config=None):
    return kneighbor(256, layer="ugni", k=K, n_cores=N_CORES, iters=iters,
                     warmup=warmup, config=config)


def _run_observed():
    return _run(config=MachineConfig(observe=True))


def _run_rndv(row):
    """The 256 KB kNeighbor of ``RNDV_BUDGETS[row]``: the uGNI GET or PUT
    rendezvous, or the RDMA layer's on a dragonfly."""
    layer, config, layer_config = {
        "ugni": ("ugni", None, None),
        "rdma": ("rdma", MachineConfig(topology="dragonfly"), None),
        "ugni_put": ("ugni", None, UgniLayerConfig(rendezvous="put")),
    }[row]
    return kneighbor(256 * KB, layer=layer, config=config,
                     layer_config=layer_config, k=K, n_cores=N_CORES,
                     iters=RNDV_ITERS, warmup=RNDV_WARMUP)


def _run_mpi(path):
    size, iters, warmup = MPI_SIZES[path]
    return kneighbor(size, layer="mpi", k=K, n_cores=N_CORES, iters=iters,
                     warmup=warmup)


#: the ``RUNS`` row of each rendezvous and Charm-on-MPI budget
RNDV_RUNS = {"ugni": "knb_256KB", "rdma": "rdma_256KB",
             "ugni_put": "ugni_256KB_put"}
MPI_RUNS = {"eager": "mpi_128B", "rendezvous": "mpi_8KB"}
#: the budgeted runs under the names CI's ``BENCH_frames.json`` gives
#: them: name -> (application messages, run)
RUNS = {
    "knb_256B": (APP_MSGS, _run),
    "knb_256B_observed": (APP_MSGS, _run_observed),
    **{name: (RNDV_MSGS, functools.partial(_run_rndv, row))
       for row, name in RNDV_RUNS.items()},
    **{name: (_app_msgs(*MPI_SIZES[path][1:]),
              functools.partial(_run_mpi, path))
       for path, name in MPI_RUNS.items()},
}


def test_small_message_call_budget(monkeypatch):
    # hooks off, like the rendezvous budgets below
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.delenv("REPRO_OBSERVE", raising=False)
    msgs, run = RUNS["knb_256B"]
    calls, res, table = _repro_calls(run)
    assert res.stats["small_sent"] == res.stats["delivered"]
    assert res.stats["delivered"] >= msgs
    per_msg = calls / msgs
    assert per_msg <= CALL_BUDGET, (
        f"{per_msg:.1f} Python calls per 256 B message "
        f"(budget {CALL_BUDGET}): the small-message path grew a layer\n"
        + _largest_rows(table, msgs))
    _check_entry_lookups(table)


def test_observed_message_call_budget(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    msgs, run = RUNS["knb_256B_observed"]
    calls, res, table = _repro_calls(run)
    assert res.stats["delivered"] >= msgs
    per_msg = calls / msgs
    assert per_msg <= OBSERVED_CALL_BUDGET, (
        f"{per_msg:.1f} Python calls per observed 256 B message "
        f"(budget {OBSERVED_CALL_BUDGET}): an observer hook grew a frame\n"
        + _largest_rows(table, msgs))
    _check_entry_lookups(table)


def test_knb_observed_call_budget():
    calls, res, table = _repro_calls(
        _run, config=MachineConfig(observe=True, sanitize=True))
    assert res.stats["delivered"] >= APP_MSGS
    per_msg = calls / APP_MSGS
    assert per_msg <= KNB_OBSERVED_CALL_BUDGET, (
        f"{per_msg:.1f} Python calls per observed, sanitized 256 B message "
        f"(budget {KNB_OBSERVED_CALL_BUDGET}): a hook grew a frame\n"
        + _largest_rows(table, APP_MSGS))
    _check_entry_lookups(table)


@pytest.mark.parametrize("layer", sorted(RNDV_BUDGETS))
def test_rendezvous_call_budget(layer, monkeypatch):
    # the budget is the hooks-off count: sanitizer / observer sites are
    # is-None guards there, writers (extra calls) when switched on
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.delenv("REPRO_OBSERVE", raising=False)
    msgs, run = RUNS[RNDV_RUNS[layer]]
    calls, res, table = _repro_calls(run)
    assert res.stats["rendezvous_sent"] == msgs
    per_msg = calls / msgs
    assert per_msg <= RNDV_BUDGETS[layer], (
        f"{per_msg:.1f} Python calls per 256 KB message on {layer} "
        f"(budget {RNDV_BUDGETS[layer]}): the rendezvous path grew a layer\n"
        + _largest_rows(table, msgs))
    _check_entry_lookups(table)


@pytest.mark.parametrize("path", sorted(MPI_BUDGETS))
def test_mpi_call_budget(path, monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.delenv("REPRO_OBSERVE", raising=False)
    msgs, run = RUNS[MPI_RUNS[path]]
    calls, res, table = _repro_calls(run)
    # every receive is a blocking MPI_Recv (an eager copy-out completes
    # after the call returns too), and every one delivered its message
    assert res.stats["blocking_recvs"] == res.stats["delivered"]
    assert res.stats["delivered"] >= msgs
    per_msg = calls / msgs
    assert per_msg <= MPI_BUDGETS[path], (
        f"{per_msg:.2f} Python calls per Charm-on-MPI {path} message "
        f"(budget {MPI_BUDGETS[path]}): the MPI path grew a frame\n"
        + _largest_rows(table, msgs))
    _check_entry_lookups(table)


def test_cold_state_budget(held_runtimes, monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.delenv("REPRO_OBSERVE", raising=False)
    gc.collect()
    before = len(gc.get_objects())
    kneighbor(32, k=1, n_cores=COLD_PES, iters=1, warmup=0)
    gc.collect()
    per_pe = (len(gc.get_objects()) - before) / COLD_PES
    assert per_pe <= COLD_TRACKED_PER_PE, (
        f"{per_pe:.1f} GC-tracked objects per PE after one cold iteration "
        f"(budget {COLD_TRACKED_PER_PE}): first touch keeps more than it did")

    net = held_runtimes[0][0].machine.network
    assert net.route_stats() == COLD_ROUTES
    topo, fan = net.topology, net._fan
    named = dict(net.links())
    filled = 0
    for i, row in enumerate(net._out):
        if row < 0:
            continue
        v, slot = divmod(i, fan)
        at = topo.vertex_coord(v)
        # a filled slot holds the row of the link named from here to the
        # neighbour of ``at`` in that direction — a name it is given, not
        # one it keeps
        _, nbr = list(topo.neighbors(at))[slot]
        assert named[at, nbr] == Link.at(net._links, row)
        filled += 1
    assert filled == len(named) == COLD_ROUTES["links"]
    # a link is a position in the network's table, nothing more
    assert Link.__slots__ == ("_table", "_row")


def test_cold_bytes_budget(held_runtimes, monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.delenv("REPRO_OBSERVE", raising=False)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kneighbor(32, k=1, n_cores=COLD_PES, iters=1, warmup=0)
        gc.collect()
        per_pe = (tracemalloc.get_traced_memory()[0] - before) / COLD_PES
    finally:
        tracemalloc.stop()
    assert per_pe <= COLD_BYTES_PER_PE, (
        f"{per_pe:.0f} bytes held per PE after one cold iteration "
        f"(budget {COLD_BYTES_PER_PE}): first touch keeps more than it did")


#: one cold 2,048-node ``kneighbor(32, k=1, iters=1, warmup=0)``, runtime
#: held: the bytes tracemalloc sees allocated by the network
#: (``hardware/router.py``, ``hardware/link.py``) per link made, and by
#: SMSG (``ugni/smsg.py``: the pair table and the credit column) per
#: connection made — 249 B and 325 B with a ``Link`` and an
#: ``SmsgConnection`` object each, 77 B (83 B pure) and 178 B as columns,
#: 118 B with no RX CQ per receiving PE
COLD_NET_NODES = 2048
NET_BYTES_PER_LINK = 88
SMSG_BYTES_PER_CONNECTION = 125


def test_cold_link_and_connection_bytes(held_runtimes, monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.delenv("REPRO_OBSERVE", raising=False)
    gc.collect()
    tracemalloc.start()
    try:
        kneighbor(32, k=1, n_cores=COLD_NET_NODES, iters=1, warmup=0)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    def held(*files):
        only = [tracemalloc.Filter(True, f"*/repro/{f}") for f in files]
        return sum(stat.size for stat in
                   snapshot.filter_traces(only).statistics("filename"))

    conv, lrts = held_runtimes[0]
    links = conv.machine.network.route_stats()["links"]
    conns = lrts.first_touch()["smsg_connections"]
    assert conv.machine.n_nodes == COLD_NET_NODES and links and conns
    per_link = held("hardware/router.py", "hardware/link.py") / links
    per_conn = held("ugni/smsg.py") / conns
    assert per_link <= NET_BYTES_PER_LINK, (
        f"{per_link:.0f} network bytes per link made "
        f"(budget {NET_BYTES_PER_LINK})")
    assert per_conn <= SMSG_BYTES_PER_CONNECTION, (
        f"{per_conn:.0f} SMSG bytes per connection made "
        f"(budget {SMSG_BYTES_PER_CONNECTION})")


#: one observed 64-PE ``kneighbor(256, k=4, iters=4, warmup=1)`` (5,184
#: traced messages), runtime held: the bytes tracemalloc sees the whole run
#: hold per traced message — 1,564 B (1,491 B pure; 1,551 B over
#: ``knb_observed``'s 23,616) with a ``Span``, ``Stage`` objects and
#: interval tuples per message, 315 B (316 B pure) as typed columns,
#: 282.4 B (283.0 B pure) with three-column stage rows and no ``send`` row
OBSERVED_ITERS, OBSERVED_WARMUP = 4, 1
OBSERVER_BYTES_PER_MESSAGE = 284


def test_observer_bytes_per_traced_message(held_runtimes, monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kneighbor(256, k=K, n_cores=N_CORES, iters=OBSERVED_ITERS,
                  warmup=OBSERVED_WARMUP, config=MachineConfig(observe=True))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    traced = held_runtimes[0][0].machine.observer.tracer.minted()
    assert traced >= _app_msgs(OBSERVED_ITERS, OBSERVED_WARMUP)
    per_msg = held / traced
    assert per_msg <= OBSERVER_BYTES_PER_MESSAGE, (
        f"{per_msg:.0f} bytes held per traced message "
        f"(budget {OBSERVER_BYTES_PER_MESSAGE}): the trace record grew")


def test_call_count_repeats_exactly():
    _, _, first = _repro_calls(_run, iters=2, warmup=1)
    _, _, second = _repro_calls(_run, iters=2, warmup=1)
    assert first == second


def test_arrival_conserved_under_drops_and_stalls():
    rel = UgniLayerConfig(reliability=True, max_retries=30)
    clean = kneighbor(256, k=2, n_cores=8, iters=6, layer_config=rel, seed=5)
    faulty = kneighbor(
        256, k=2, n_cores=8, iters=6, layer_config=rel, seed=5,
        faults=FaultConfig(smsg_drop_rate=0.1, smsg_stall_rate=0.2))
    injected = faulty.stats["faults"]
    assert injected["smsg_dropped"] > 0 and injected["smsg_stalled"] > 0
    # exactly-once delivery, and nothing left in the fabric: every send
    # either arrived (promptly or after its stall) or was dropped with
    # its credit reclaimed
    assert faulty.stats["delivered"] == clean.stats["delivered"]
    assert faulty.stats["rel_failed"] == 0
    assert faulty.stats["smsg_in_flight"] == 0
    assert faulty.stats["smsg_credits_used"] == 0
