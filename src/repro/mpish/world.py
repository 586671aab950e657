"""The MPI protocol engine: eager + rendezvous over the simulated NIC.

One :class:`MpiWorld` spans the job; ranks are PEs (one MPI process per
core, as on Hopper).  All calls take an ``at`` time (defaults to
``engine.now``) and return ``(request, cpu_seconds)`` — the caller charges
the CPU to whatever is executing (a raw benchmark process or a Charm PE).

Each protocol step is one call: :meth:`MpiWorld.isend` (post),
:meth:`~MpiWorld._arrive` (ordering plus the posted-queue match),
:meth:`~MpiWorld.iprobe` / :meth:`~MpiWorld.irecv` (the unexpected-queue
scans), :meth:`~MpiWorld._complete_match` (copy-out, or registration and
the rendezvous GET), :meth:`~MpiWorld._get_done` and :meth:`~MpiWorld._fin`
(the GET's completion and the FIN).  The cost arithmetic of
:class:`~repro.hardware.config.MachineConfig` (``t_memcpy``) is written
out where a step pays it, so the floats are the methods' own.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Hashable, Optional

from repro.errors import MpiError
from repro.hardware.machine import Machine
from repro.hardware.nic import BTE_GET, FMA_GET
from repro.hardware.node import Node
from repro.mpish.matching import ANY, Arrival, MatchEngine
from repro.mpish.request import MpiRequest
from repro.mpish.udreg import UdregCache

#: MPI envelope bytes on the wire (communicator, tag, seq, size fields)
MPI_HEADER = 32
#: control-message size for RTS / FIN
MPI_CONTROL = 64
#: small-message cutoff: sent inline through the SMSG-style path
MPI_SMALL = 1024

_fresh_keys = itertools.count()


class MpiWorld:
    """An MPI job over the whole machine."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.engine = engine = machine.engine
        #: what answers ``.now``: the engine's C core when it is bound (an
        #: attribute read, where ``Engine.now`` is a property frame)
        self._clock = engine._core if engine._core is not None else engine
        self.cfg = machine.config
        #: rank -> node (ranks are PEs), bounds-checked by every call
        self._pe_node = machine._pe_node
        self._match: dict[int, MatchEngine] = {}
        self._udreg: dict[int, UdregCache] = {}
        # non-overtaking order per (src, dst), keyed src * n_ranks + dst
        self._send_seq: dict[int, int] = {}
        self._recv_seq: dict[int, int] = {}
        self._reorder: dict[int, dict[int, Arrival]] = {}
        self.reordered = 0
        #: hook called when an arrival lands with no posted match (the
        #: Charm-on-MPI progress engine's Iprobe discovery path): one
        #: default for every rank, and per-rank overrides
        self.on_unexpected_default: Optional[Callable[[Arrival], None]] = None
        self.on_unexpected: dict[int, Callable[[Arrival], None]] = {}
        # counters
        self.sends = 0

    # -- per-rank state ----------------------------------------------------------
    def match_engine(self, rank: int) -> MatchEngine:
        eng = self._match.get(rank)
        if eng is None:
            eng = MatchEngine(rank)
            self._match[rank] = eng
        return eng

    def udreg(self, rank: int) -> UdregCache:
        c = self._udreg.get(rank)
        if c is None:
            c = UdregCache(self.cfg)
            self._udreg[rank] = c
        return c

    # ------------------------------------------------------------------ #
    # Send side
    # ------------------------------------------------------------------ #
    def isend(
        self,
        src: int,
        dst: int,
        tag: int,
        nbytes: int,
        payload: Any = None,
        buf_key: Optional[Hashable] = None,
        at: Optional[float] = None,
    ) -> tuple[MpiRequest, float]:
        """MPI_Isend.  ``buf_key`` identifies the user buffer for uDREG:
        a stable key models buffer reuse, ``None`` models a fresh buffer."""
        if nbytes < 0:
            raise MpiError(f"negative message size {nbytes}")
        pe_node = self._pe_node
        n = len(pe_node)
        if not 0 <= src < n:
            self.machine.node_of_pe(src)  # raises TopologyError
        if not 0 <= dst < n:
            self.machine.node_of_pe(dst)
        if at is None:
            at = self._clock.now
        cfg = self.cfg
        self.sends += 1
        req = MpiRequest("send", src, dst, tag, nbytes, payload)
        key = src * n + dst
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        src_node = pe_node[src]
        dst_node = pe_node[dst]

        if nbytes <= cfg.mpi_eager_threshold:
            # EAGER: copy into internal buffers (t_memcpy); the sender
            # completes locally
            cpu = cfg.mpi_request_cpu + (cfg.memcpy_base
                                         + nbytes / cfg.memcpy_bandwidth)
            arr = Arrival(src, dst, tag, nbytes, payload, 0.0, "eager", None,
                          seq)
            if src_node is dst_node:
                # double-copy shared-memory path
                t_arr = at + cpu + cfg.pxshm_sync_cpu
                self.engine.call_at(t_arr, self._arrive, t_arr, arr)
            else:
                wire = nbytes + MPI_HEADER
                if nbytes <= MPI_SMALL:
                    src_node.nic.smsg_send(dst_node, wire, self._arrive, arr,
                                           at=at + cpu)
                else:
                    kind = src_node.nic.best_kind(wire, put=True)
                    src_node.nic.post_transfer(kind, dst_node.coord, wire,
                                               on_remote_data=self._arrive,
                                               remote_args=(arr,),
                                               at=at + cpu)
            # buffered send: complete when posted, before anyone can wait
            req.value = (at + cpu, 0.0)
            return req, cpu

        # RENDEZVOUS: an RTS carrying the send request, which the FIN
        # completes
        if buf_key is None:
            buf_key = ("fresh", next(_fresh_keys))
        cpu = cfg.mpi_request_cpu + cfg.mpi_rndv_cpu
        if src_node is not dst_node:
            udreg = self._udreg.get(src)
            if udreg is None:
                udreg = self.udreg(src)
            cpu += udreg.lookup(buf_key, nbytes)
        arr = Arrival(src, dst, tag, nbytes, payload, 0.0, "rts", req, seq)
        if src_node is dst_node:
            t_arr = at + cpu + cfg.pxshm_sync_cpu
            self.engine.call_at(t_arr, self._arrive, t_arr, arr)
        else:
            src_node.nic.smsg_send(dst_node, MPI_CONTROL, self._arrive, arr,
                                   at=at + cpu)
        return req, cpu

    # ------------------------------------------------------------------ #
    # Receive side: the unexpected-queue scans
    # ------------------------------------------------------------------ #
    def irecv(
        self,
        rank: int,
        src: int = ANY,
        tag: int = ANY,
        buf_key: Optional[Hashable] = None,
        at: Optional[float] = None,
    ) -> tuple[MpiRequest, float]:
        """MPI_Irecv: match the oldest unexpected arrival now, or post."""
        n = len(self._pe_node)
        if not 0 <= rank < n:
            self.machine.node_of_pe(rank)  # raises TopologyError
        if src != ANY and not 0 <= src < n:
            self.machine.node_of_pe(src)
        if at is None:
            at = self._clock.now
        cfg = self.cfg
        eng = self._match.get(rank)
        if eng is None:
            eng = self.match_engine(rank)
        # the recv-buffer identity rides as the payload, for uDREG
        req = MpiRequest("recv", src, rank, tag, 0, buf_key)
        unexpected = eng.unexpected
        for i, arr in enumerate(unexpected):
            if (src == ANY or src == arr.src) and (tag == ANY or tag == arr.tag):
                del unexpected[i]
                eng.total_matches += 1
                cpu = cfg.mpi_request_cpu + (
                    cfg.mpi_match_base_cpu + (i + 1) * cfg.mpi_match_per_entry_cpu)
                req.matched = arr
                self._complete_match(req, arr, at + cpu, 0.0)
                return req, cpu
        eng.posted.append(req)
        return req, cfg.mpi_request_cpu + (
            cfg.mpi_match_base_cpu
            + len(unexpected) * cfg.mpi_match_per_entry_cpu)

    def iprobe(self, rank: int,
               tag: int = ANY) -> tuple[Optional[Arrival], float]:
        """MPI_Iprobe from any source: peek at the oldest unexpected
        arrival with ``tag``; the cost is the queue scan plus the
        connection scan.

        The probe walks per-peer mailboxes and returns at the first one
        with data, so the expected connection scan is the connection count
        divided by how many messages are waiting: sparse traffic (one
        pending message among hundreds of peers — the N-Queens spray in
        steady state) pays the full scan, bursty traffic (a deep
        unexpected queue) finds data quickly.
        """
        if not 0 <= rank < len(self._pe_node):
            self.machine.node_of_pe(rank)  # raises TopologyError
        cfg = self.cfg
        eng = self._match.get(rank)
        if eng is None:
            eng = self.match_engine(rank)
        unexpected = eng.unexpected
        for i, arr in enumerate(unexpected):
            if tag == ANY or tag == arr.tag:
                scan_cpu = (cfg.mpi_match_base_cpu
                            + (i + 1) * cfg.mpi_match_per_entry_cpu)
                break
        else:
            arr = None
            scan_cpu = (cfg.mpi_match_base_cpu
                        + len(unexpected) * cfg.mpi_match_per_entry_cpu)
        expected_scan = len(eng.known_sources) / (1 + len(unexpected))
        return arr, (cfg.mpi_iprobe_cpu + scan_cpu
                     + expected_scan * cfg.mpi_iprobe_per_conn_cpu)

    # ------------------------------------------------------------------ #
    # Arrival processing (progress engine)
    # ------------------------------------------------------------------ #
    def _arrive(self, t: float, arr: Arrival) -> None:
        """Enforce per-(src,dst) ordering, then match each in-order arrival
        against the posted receives, else queue it as unexpected (the
        NIC's ``on_remote_data(t, *args)`` shape, so a send makes no
        closure)."""
        arr.time = t
        key = arr.src * len(self._pe_node) + arr.dst
        recv_seq = self._recv_seq
        expect = recv_seq.get(key, 0)
        if arr.seq != expect:
            self.reordered += 1
            self._reorder.setdefault(key, {})[arr.seq] = arr
            return
        recv_seq[key] = expect + 1
        cfg = self.cfg
        eng = self._match.get(arr.dst)
        if eng is None:
            eng = self.match_engine(arr.dst)
        while True:
            src, tag = arr.src, arr.tag
            eng.known_sources.add(src)
            # the posted-queue scan (empty on Charm-on-MPI, which never
            # pre-posts a receive)
            posted = eng.posted
            for i, req in enumerate(posted):
                if (req.src == ANY or req.src == src) and (
                        req.tag == ANY or req.tag == tag):
                    del posted[i]
                    eng.total_matches += 1
                    req.matched = arr
                    self._complete_match(
                        req, arr, arr.time,
                        cfg.mpi_match_base_cpu
                        + (i + 1) * cfg.mpi_match_per_entry_cpu)
                    break
            else:
                unexpected = eng.unexpected
                unexpected.append(arr)
                if len(unexpected) > eng.max_unexpected:
                    eng.max_unexpected = len(unexpected)
                hook = self.on_unexpected.get(arr.dst,
                                              self.on_unexpected_default)
                if hook is not None:
                    hook(arr)
            # the buffered successors, in order
            buf = self._reorder.get(key)
            if not buf:
                return
            nxt = recv_seq[key]
            arr = buf.pop(nxt, None)
            if arr is None:
                return
            recv_seq[key] = nxt + 1
            arr.time = max(arr.time, t)

    # ------------------------------------------------------------------ #
    # Completion
    # ------------------------------------------------------------------ #
    def _complete_match(self, req: MpiRequest, arr: Arrival,
                        t: float, pre_cpu: float) -> None:
        """A receive has matched an arrival at time ``t``."""
        cfg = self.cfg
        nbytes = req.nbytes = arr.nbytes
        if arr.protocol == "eager":
            # copy-out (t_memcpy); _complete_at, written out
            extra = pre_cpu + (cfg.memcpy_base + nbytes / cfg.memcpy_bandwidth)
            t += extra
            if t <= self._clock.now:
                req.complete(t, extra)
            else:
                self.engine.call_at(t, req.complete, t, extra)
            return

        send_req: MpiRequest = arr.rndv
        pe_node = self._pe_node
        src_node = pe_node[arr.src]
        dst_node = pe_node[req.dst]
        if src_node is dst_node:
            # single-copy kernel-assisted path (XPMEM): sync + one
            # receiver copy
            extra = pre_cpu + cfg.xpmem_sync_cpu + (
                cfg.memcpy_base + nbytes / cfg.memcpy_bandwidth)
            tc = t + extra
            self._complete_at(req, tc, extra)
            self._complete_at(send_req, tc, 0.0)
            return

        # network rendezvous: register recv buffer, BTE/FMA GET, FIN
        recv_key = req.payload if req.payload is not None else ("fresh", next(_fresh_keys))
        udreg = self._udreg.get(req.dst)
        if udreg is None:
            udreg = self.udreg(req.dst)
        reg_cpu = udreg.lookup(recv_key, nbytes)
        if nbytes + MPI_HEADER <= cfg.mpi_rndv_fma_max:
            kind = FMA_GET
        else:
            kind = BTE_GET
        post_cpu = dst_node.nic.post_transfer(
            kind, src_node.coord, nbytes + MPI_HEADER,
            on_local_cq=self._get_done, at=t + pre_cpu + reg_cpu,
            local_args=(req, send_req, src_node))
        req.extra_cpu = pre_cpu + reg_cpu + post_cpu

    def _get_done(self, tc: float, req: MpiRequest, send_req: MpiRequest,
                  src_node: Node) -> None:
        """The rendezvous GET has landed (this is its completion event, at
        ``tc``): the receive completes, and the FIN goes back to the
        sender."""
        req.complete(tc, req.extra_cpu)
        self._pe_node[req.dst].nic.smsg_send(src_node, MPI_CONTROL, self._fin,
                                             send_req, at=tc)

    def _fin(self, tf: float, send_req: MpiRequest) -> None:
        """The FIN has reached the sender: its request completes."""
        cpu = self.cfg.mpi_request_cpu
        self._complete_at(send_req, tf + cpu, cpu)

    def _complete_at(self, req: MpiRequest, t: float, extra: float) -> None:
        """Complete ``req`` at ``t`` (which already includes ``extra``).

        ``extra`` is reported so a PE-based caller can attribute that part
        of the elapsed interval to CPU overhead rather than waiting.
        """
        if t <= self._clock.now:
            req.complete(t, extra)
        else:
            self.engine.call_at(t, req.complete, t, extra)
