"""The Observer: one telemetry hub per simulated machine (opt-in).

Mirrors the :mod:`repro.sanitize` architecture exactly, because that
architecture already proved the property we need — **observer-only**
instrumentation whose presence cannot change simulated results:

* Hooked layers call narrow ``on_*`` methods; the observer never mutates
  simulation state, draws RNG, or schedules events, so the benchmark
  checksums stay bit-identical with observability on or off.
* Every hook site is guarded by an ``is None`` check on
  ``machine.observer`` / ``engine.observer`` / ``network.observer`` — zero
  cost when off (one attribute load), the same pattern as
  ``machine.faults`` and ``machine.sanitizer``.
* A process-wide registry lets harnesses (``run_all.py --observe``, the
  pytest suite, ``python -m repro.observe``) collect metrics from every
  machine built during a run without plumbing handles through APIs.

The observer owns three sub-systems: a :class:`MetricsRegistry`
(deterministic counters/gauges/sim-time histograms), a
:class:`MessageTracer` (causal per-message stage records keyed by the
trace ID minted at send), and a :class:`FlightRecorder` (bounded ring of
recent fault/recovery/stall records, dumped automatically on reliability
give-up, sanitizer violation, or engine stall).  It is also the
scheduler's one interval hook (``record``): it keeps the raw per-PE
timeline and passes each interval on to the run's
:class:`~repro.observe.profile.TimeProfile`, if the caller asked for one.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional

from repro._env import env_flag
from repro.observe.flight import FlightRecorder
from repro.observe.registry import BIN_WIDTH, MetricsRegistry
from repro.observe.tracer import (
    ARRIVE, DELIVER, EXEC, LRTS, TX, MessageTracer,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.machine import Machine


def observe_requested() -> bool:
    """True when the ``REPRO_OBSERVE`` environment variable enables us."""
    return env_flag("REPRO_OBSERVE")


# --------------------------------------------------------------------- #
# process-wide registry (for run_all --observe and the pytest helpers)
# --------------------------------------------------------------------- #
_REGISTRY: list["Observer"] = []


def active_observers() -> list["Observer"]:
    """All observers created since the last :func:`clear_registry`."""
    return list(_REGISTRY)


def clear_registry() -> None:
    """Forget tracked observers (each test / benchmark starts clean)."""
    _REGISTRY.clear()


def collect_snapshot() -> dict[str, Any]:
    """Merge every registered observer's snapshot into one flat dict.

    Counters and histogram bins add; gauges are last-write-wins.  The
    merge order is observer creation order, which is deterministic, so
    the merged snapshot (and its digest) is too.
    """
    merged: dict[str, Any] = {}
    for obs in _REGISTRY:
        for key, value in obs.metrics.snapshot().items():
            if key not in merged:
                merged[key] = value
            elif key.startswith("counter/"):
                merged[key] = merged[key] + value
            elif key.startswith("hist/"):
                merged[key] = [merged[key][0] + value[0],
                               merged[key][1] + value[1]]
            else:
                merged[key] = value
    return dict(sorted(merged.items()))


def metrics_digest(exclude: Iterable[str] = (),
                   snapshot: Optional[dict[str, Any]] = None) -> str:
    """sha256 digest of the merged snapshot (see MetricsRegistry.digest)."""
    snap = collect_snapshot() if snapshot is None else snapshot
    return MetricsRegistry().digest(exclude=exclude, snapshot=snap)


#: recovery events that mean "the runtime gave up on a message/post" —
#: each triggers an automatic flight dump for postmortem analysis
GIVEUP_EVENTS = frozenset({
    "give_up", "post_give_up", "rc_giveup", "get_failed", "put_failed",
})


class Observer:
    """Telemetry hub for one :class:`~repro.hardware.machine.Machine`.

    Installed by the machine itself when ``MachineConfig.observe`` or
    ``REPRO_OBSERVE=1`` asks for it; every hooked layer reaches it as
    ``machine.observer`` (or ``engine.observer`` / ``network.observer``)
    and skips all calls when it is ``None``.
    """

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.metrics = MetricsRegistry()
        #: the registry's counter and histogram dicts: the per-message
        #: hooks add in place
        self._counters = self.metrics.counters
        self._hists = self.metrics._hists
        self.tracer = MessageTracer()
        #: keys built once per label: ``(layer, path)`` -> the path's and
        #: the layer's byte counter and the ``lrts`` row key, ``kind`` ->
        #: ``tx/{kind}`` and ``where`` -> the ``tx`` row key, ``where`` ->
        #: the ``arrive`` row key, rank -> the ``deliver`` / ``exec`` row key
        self._lrts_keys: dict[tuple[str, str], tuple[str, str, int]] = {}
        self._tx_keys: dict[str, tuple[str, dict[Any, int]]] = {}
        self._arrive_keys: dict[Any, int] = {}
        self._deliver_keys: dict[int, int] = {}
        self._exec_keys: dict[int, int] = {}
        self.flight = FlightRecorder()
        # the PE timeline, one row an interval: rank, start, duration and
        # kind (an index into ``_kinds``)
        self._tl_rank = array("i")
        self._tl_start = array("d")
        self._tl_duration = array("d")
        self._tl_kind = array("b")
        self._kinds: list[str] = []
        self._kind_code: dict[str, int] = {}
        #: the caller's sink for the same stream, set by ``ConverseRuntime``
        self.profile: Optional[Any] = None
        _REGISTRY.append(self)
        self.register_source("engine", lambda: self._engine_stats(machine))
        self.register_source("net", lambda: self._net_stats(machine))
        self.register_source("nic", lambda: self._nic_stats(machine))

    # -- pull-based sources ------------------------------------------------
    def register_source(self, name: str, fn: Callable[[], Any]) -> None:
        """Fold ``fn()`` into every snapshot under ``name`` (see registry)."""
        self.metrics.register_source(name, fn)

    def register_gpu_source(self, machine: "Machine") -> None:
        """Fold accelerator stats into snapshots.

        Called by the machine only after it has built ``machine.gpus``
        (the observer itself is constructed first), and only when GPUs
        exist — machines without accelerators keep their pre-GPU metric
        digests byte-identical.
        """
        self.register_source("gpu", lambda: self._gpu_stats(machine))

    @staticmethod
    def _gpu_stats(machine: "Machine") -> dict[str, Any]:
        totals: dict[str, Any] = {"gpus": len(machine.gpus)}
        for gpu in machine.gpus:
            for key, value in gpu.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    @staticmethod
    def _engine_stats(machine: "Machine") -> dict[str, Any]:
        engine = machine.engine
        shard_stats = getattr(engine, "shard_stats", None)
        if shard_stats is not None:
            return shard_stats()
        return {"events": getattr(engine, "events_executed", None),
                "now": engine.now}

    @staticmethod
    def _net_stats(machine: "Machine") -> dict[str, Any]:
        net = machine.network
        out: dict[str, Any] = {
            "messages_routed": net.messages_routed,
            "total_bytes_carried": net.total_bytes_carried(),
        }
        # bound cardinality: aggregate totals plus the top-8 busiest
        # links by (bytes, name) — a deterministic order
        ranked = sorted(
            ((link.bytes_carried, str(name), link)
             for name, link in net.links()),
            key=lambda kv: (-kv[0], kv[1]))
        if ranked:
            out["links"] = len(ranked)
            for nbytes, name, link in ranked[:8]:
                out[f"top/{name}"] = {
                    "bytes": nbytes,
                    "transfers": link.transfers,
                }
        return out

    @staticmethod
    def _nic_stats(machine: "Machine") -> dict[str, Any]:
        smsg = rdma = errors = 0
        for node in machine.nodes:
            nic = getattr(node, "nic", None)
            if nic is None:
                continue
            smsg += getattr(nic, "smsg_sent", 0)
            rdma += getattr(nic, "rdma_posted", 0)
            errors += getattr(nic, "transaction_errors", 0)
        return {"smsg_sent": smsg, "rdma_posted": rdma,
                "transaction_errors": errors}

    # -- trace-id plumbing -------------------------------------------------
    @staticmethod
    def trace_id_of(obj: Any) -> Optional[int]:
        """Walk ``payload`` wrappers until a ``trace_id`` shows up.

        An SMSG message carries the Converse :class:`Message` as its
        payload; a reliability packet wraps it one level deeper.  The
        per-message hooks read those first levels in place and walk only
        when they carry no ID.
        """
        for _ in range(4):
            if obj is None:
                return None
            tid = getattr(obj, "trace_id", None)
            if tid is not None:
                return tid
            obj = getattr(obj, "payload", None)
        return None

    # -- scheduler hooks ---------------------------------------------------
    # Each per-message hook is one frame: it writes its stage row into the
    # tracer's columns, its counters and its histogram bins in place.  A
    # histogram sample is ``MetricsRegistry.observe`` written out.

    def on_send(self, msg: Any, src_pe: int, time: float) -> None:
        """Mint a trace ID at the Converse send (the causal root): the span
        row, which implies the ``send`` stage."""
        tracer = self.tracer
        tracer._next_id = tid = tracer._next_id + 1
        nbytes = msg.nbytes
        tracer._src.append(src_pe)
        tracer._dst.append(msg.dst_pe)
        tracer._nbytes.append(nbytes)
        tracer._sent_at.append(time)
        msg.trace_id = tid
        counters = self._counters
        counters["msg/sent"] = counters.get("msg/sent", 0) + 1
        counters["msg/bytes_sent"] = counters.get("msg/bytes_sent", 0) + nbytes

    def on_deliver(self, msg: Any, rank: int, time: float) -> None:
        """The receiving PE enqueued a traced message: its ``deliver`` row,
        and latency samples from the span's send and rendezvous times."""
        counters = self._counters
        counters["msg/delivered"] = counters.get("msg/delivered", 0) + 1
        tid, tracer = msg.trace_id, self.tracer
        row = tid - tracer._base - 1
        if not 0 <= row < len(tracer._src) or tracer._src[row] < 0:
            return  # minted before this tracer, or skipped by fast_forward
        key = self._deliver_keys.get(rank)
        if key is None:
            key = self._deliver_keys[rank] = tracer._pe_key(DELIVER, rank)
        tracer._tid.append(tid)
        tracer._time.append(time)
        tracer._key.append(key)
        hists, b = self._hists, int(time // BIN_WIDTH)
        # every span is minted with its send time
        latency = time - tracer._sent_at[row]
        hist = hists.get("msg/latency")
        if hist is None:
            hist = hists["msg/latency"] = {}
        bin_ = hist.get(b)
        if bin_ is None:
            hist[b] = [1, latency]
        else:
            bin_[0] += 1
            bin_[1] += latency
        rndv = tracer._rndv_at.get(row)
        if rndv is None:
            return
        counters["rndv/roundtrips"] = counters.get("rndv/roundtrips", 0) + 1
        roundtrip = time - rndv
        hist = hists.get("rndv/roundtrip_time")
        if hist is None:
            hist = hists["rndv/roundtrip_time"] = {}
        bin_ = hist.get(b)
        if bin_ is None:
            hist[b] = [1, roundtrip]
        else:
            bin_[0] += 1
            bin_[1] += roundtrip

    def on_exec(self, msg: Any, rank: int, time: float) -> None:
        counters = self._counters
        counters["msg/executed"] = counters.get("msg/executed", 0) + 1
        tid, tracer = msg.trace_id, self.tracer
        row = tid - tracer._base - 1
        if 0 <= row < len(tracer._src) and tracer._src[row] >= 0:
            key = self._exec_keys.get(rank)
            if key is None:
                key = self._exec_keys[rank] = tracer._pe_key(EXEC, rank)
            tracer._tid.append(tid)
            tracer._time.append(time)
            tracer._key.append(key)

    # -- LRTS-layer hooks --------------------------------------------------
    def on_lrts(self, layer: str, path: str, msg: Any, time: float) -> None:
        """The machine layer chose a protocol path for one message."""
        tracer = self.tracer
        keys = self._lrts_keys.get((layer, path))
        if keys is None:
            keys = self._lrts_keys[layer, path] = (
                f"lrts/{layer}/{path}", f"lrts/{layer}/bytes",
                tracer._key_of(LRTS, layer, path))
        path_key, bytes_key, key = keys
        counters = self._counters
        counters[path_key] = counters.get(path_key, 0) + 1
        counters[bytes_key] = (counters.get(bytes_key, 0)
                               + getattr(msg, "nbytes", 0))
        tid = getattr(msg, "trace_id", None)
        if tid is None:
            tid = self.trace_id_of(msg)
            if tid is None:
                return
        row = tid - tracer._base - 1
        if 0 <= row < len(tracer._src) and tracer._src[row] >= 0:
            if path == "rendezvous" and row not in tracer._rndv_at:
                tracer._rndv_at[row] = time
            tracer._tid.append(tid)
            tracer._time.append(time)
            tracer._key.append(key)

    def on_gpu(self, stage: str, msg: Any, nbytes: int, time: float,
               where: Any = None) -> None:
        """A device payload crossed one GPU transport stage.

        ``stage`` is ``"d2h"`` / ``"h2d"`` (the staged path's two copy
        hops), ``"direct"`` (the GPUDirect zero-copy wire), or ``"d2d"``
        (an intra-node device copy).
        """
        tid = self.trace_id_of(msg)
        if tid is not None:
            self.tracer.stage(tid, "gpu", time, where=where, detail=stage)
        self.metrics.inc(f"gpu/{stage}")
        self.metrics.inc(f"gpu/bytes_{stage}", nbytes)

    def on_credit_stall(self, src: int, dst: int, nbytes: int,
                        time: float) -> None:
        self.metrics.inc("smsg/credit_stalls")
        self.metrics.observe("smsg/credit_stall_bytes", time, nbytes)
        self.flight.note(time, "smsg", "credit_stall",
                         where=f"smsg[{src}->{dst}]", nbytes=nbytes)

    # -- fabric / hardware hooks -------------------------------------------
    def on_tx(self, payload: Any, kind: str, nbytes: int, where: Any,
              time: float) -> None:
        """A fabric accepted bytes for the wire (SMSG push, RDMA post)."""
        keys = self._tx_keys.get(kind)
        if keys is None:
            keys = self._tx_keys[kind] = (f"tx/{kind}", {})
        kind_key, row_keys = keys
        counters = self._counters
        counters[kind_key] = counters.get(kind_key, 0) + 1
        counters["tx/bytes"] = counters.get("tx/bytes", 0) + nbytes
        tid = getattr(payload, "trace_id", None)
        if tid is None:  # an SMSG message carries the traced one inside
            tid = getattr(getattr(payload, "payload", None), "trace_id", None)
            if tid is None:
                tid = self.trace_id_of(payload)
                if tid is None:
                    return
        tracer = self.tracer
        row = tid - tracer._base - 1
        if 0 <= row < len(tracer._src) and tracer._src[row] >= 0:
            key = row_keys.get(where)
            if key is None:
                key = row_keys[where] = tracer._key_of(TX, where, kind)
            tracer._tid.append(tid)
            tracer._time.append(time)
            tracer._key.append(key)

    def on_arrive(self, payload: Any, where: Any, time: float) -> None:
        """An arrival landed, just before its fabric's consumer takes it:
        an SMSG in its receiver's mailbox (``where`` is ``smsg_rx[pe]``),
        an MSGQ message in its node's queue (``msgq_rx[n<node>]``) or an
        FMA/BTE local completion (``post``)."""
        counters = self._counters
        # named for the completion queue these arrivals once went through:
        # the name is in the committed metrics digests
        counters["cq/pushed"] = counters.get("cq/pushed", 0) + 1
        tid = getattr(payload, "trace_id", None)
        if tid is None:
            tid = getattr(getattr(payload, "payload", None), "trace_id", None)
            if tid is None:
                tid = self.trace_id_of(payload)
                if tid is None:
                    return
        tracer = self.tracer
        row = tid - tracer._base - 1
        if 0 <= row < len(tracer._src) and tracer._src[row] >= 0:
            key = self._arrive_keys.get(where)
            if key is None:
                key = self._arrive_keys[where] = tracer._key_of(
                    ARRIVE, where, None)
            tracer._tid.append(tid)
            tracer._time.append(time)
            tracer._key.append(key)

    def on_net_transfer(self, src: Any, dst: Any, nbytes: int,
                        now: float, depart: float, hops: int) -> None:
        counters = self._counters
        counters["net/transfers"] = counters.get("net/transfers", 0) + 1
        counters["net/bytes"] = counters.get("net/bytes", 0) + nbytes
        counters["net/hops"] = counters.get("net/hops", 0) + hops
        # injection backlog: how long the head waited for a free lane
        backlog = depart - now
        hist = self._hists.get("net/inject_backlog")
        if hist is None:
            hist = self._hists["net/inject_backlog"] = {}
        b = int(now // BIN_WIDTH)
        bin_ = hist.get(b)
        if bin_ is None:
            hist[b] = [1, backlog]
        else:
            bin_[0] += 1
            bin_[1] += backlog

    # -- fault / recovery / failure hooks ----------------------------------
    def on_fault(self, event: str, where: Any, time: float,
                 **detail: Any) -> None:
        self.metrics.inc(f"fault/{event}")
        self.flight.note(time, "fault", event, where, **detail)
        if event == "node_crash":
            # dead silicon: dump the recent-event ring for the postmortem
            # before the recovery layer tears this machine down
            self.flight.dump("fault:node_crash", time, where=where)

    def on_recovery(self, event: str, where: Any, time: float,
                    **detail: Any) -> None:
        self.metrics.inc(f"recovery/{event}")
        self.flight.note(time, "recovery", event, where, **detail)
        if event in GIVEUP_EVENTS:
            self.flight.dump(f"recovery:{event}", time, where=where)

    def on_violation(self, kind: str, where: Any, detail: str,
                     time: float) -> None:
        self.metrics.inc("sanitize/violations")
        self.flight.note(time, "sanitize", kind, where=where, detail=detail)
        self.flight.dump(f"sanitize:{kind}", time, where=where)

    def on_stall(self, time: float, max_events: int) -> None:
        self.metrics.inc("engine/stalls")
        self.flight.note(time, "engine", "stall", max_events=max_events)
        self.flight.dump("engine-stall", time)

    # -- the scheduler's interval hook -------------------------------------
    def record(self, pe_rank: int, start: float, duration: float,
               kind: str) -> None:
        code = self._kind_code.get(kind)
        if code is None:
            code = self._kind_code[kind] = len(self._kinds)
            self._kinds.append(kind)
        self._tl_rank.append(pe_rank)
        self._tl_start.append(start)
        self._tl_duration.append(duration)
        self._tl_kind.append(code)
        if self.profile is not None:
            self.profile.record(pe_rank, start, duration, kind)

    def intervals(self) -> Iterator[tuple[int, float, float, str]]:
        """``(rank, start, duration, kind)`` per recorded interval, in
        record order."""
        kinds = self._kinds
        return zip(self._tl_rank, self._tl_start, self._tl_duration,
                   (kinds[code] for code in self._tl_kind))

    @property
    def timeline(self) -> dict[int, list[tuple[float, float, str]]]:
        """pe rank -> [(start, duration, kind), ...] busy/idle intervals,
        ranks in the order they first recorded (a view built on read)."""
        out: dict[int, list[tuple[float, float, str]]] = {}
        for rank, start, duration, kind in self.intervals():
            out.setdefault(rank, []).append((start, duration, kind))
        return out

    # -- introspection -----------------------------------------------------
    def footprint(self) -> dict[str, int]:
        """What the record holds: spans, stage and timeline rows, and the
        bytes of every column (simulator self-metrics, never in a snapshot
        or a digest)."""
        held = self.tracer.footprint()
        timeline = (self._tl_rank, self._tl_start, self._tl_duration,
                    self._tl_kind)
        held["timeline_rows"] = len(self._tl_rank)
        held["column_bytes"] += sum(len(col) * col.itemsize
                                    for col in timeline)
        return held

    def snapshot(self) -> dict[str, Any]:
        return self.metrics.snapshot()

    def digest(self, exclude: Iterable[str] = ()) -> str:
        return self.metrics.digest(exclude=exclude)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Observer machine={self.machine!r} "
                f"metrics={len(self.metrics)} "
                f"spans={self.tracer.footprint()['spans']}>")
