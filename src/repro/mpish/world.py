"""The MPI protocol engine: eager + rendezvous over the simulated NIC.

One :class:`MpiWorld` spans the job; ranks are PEs (one MPI process per
core, as on Hopper).  All calls take an ``at`` time (defaults to
``engine.now``) and return ``(request, cpu_seconds)`` — the caller charges
the CPU to whatever is executing (a raw benchmark process or a Charm PE).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Hashable, Optional

from repro.errors import MpiError
from repro.hardware.machine import Machine
from repro.hardware.nic import TransferKind
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


class _RndvInfo:
    """Sender-side info carried by an RTS (addr/handle/size in real GNI)."""

    __slots__ = ("kind", "src_node", "nbytes", "send_req", "src_rank")

    def __init__(self, kind: str, src_node: int, nbytes: int,
                 send_req: MpiRequest, src_rank: int):
        self.kind = kind  # "net" or "xpmem"
        self.src_node = src_node
        self.nbytes = nbytes
        self.send_req = send_req
        self.src_rank = src_rank


class MpiWorld:
    """An MPI job over the whole machine."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.engine = machine.engine
        self.cfg = machine.config
        self._match: dict[int, MatchEngine] = {}
        self._udreg: dict[int, UdregCache] = {}
        # non-overtaking order per (src, dst)
        self._send_seq: dict[tuple[int, int], int] = {}
        self._recv_seq: dict[tuple[int, int], int] = {}
        self._reorder: dict[tuple[int, int], dict[int, Arrival]] = {}
        self.reordered = 0
        #: hook called when an arrival lands with no posted match (the
        #: Charm-on-MPI progress engine's Iprobe discovery path): one
        #: default for every rank, and per-rank overrides
        self.on_unexpected_default: Optional[Callable[[Arrival], None]] = None
        self.on_unexpected: dict[int, Callable[[Arrival], None]] = {}
        # counters
        self.sends = 0
        self.recvs_completed = 0

    # -- per-rank state ----------------------------------------------------------
    def match_engine(self, rank: int) -> MatchEngine:
        eng = self._match.get(rank)
        if eng is None:
            eng = MatchEngine(rank, self.cfg)
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
        at = self.engine.now if at is None else at
        cfg = self.cfg
        self.sends += 1
        req = MpiRequest("send", src, dst, tag, nbytes, payload)
        key = (src, dst)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        src_node = self.machine.node_of_pe(src)
        dst_node = self.machine.node_of_pe(dst)
        same_node = src_node.node_id == dst_node.node_id

        if nbytes <= cfg.mpi_eager_threshold:
            # EAGER: copy into internal buffers; sender completes locally
            cpu = cfg.mpi_request_cpu + cfg.t_memcpy(nbytes)
            arr = Arrival(src, dst, tag, nbytes, payload, 0.0,
                          protocol="eager", seq=seq)
            if same_node:
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
            req.complete(at + cpu)  # buffered send
            return req, cpu

        # RENDEZVOUS
        if buf_key is None:
            buf_key = ("fresh", next(_fresh_keys))
        cpu = cfg.mpi_request_cpu + cfg.mpi_rndv_cpu
        if not same_node:
            cpu += self.udreg(src).lookup(buf_key, nbytes)
        info = _RndvInfo("xpmem" if same_node else "net",
                         src_node.node_id, nbytes, req, src)
        arr = Arrival(src, dst, tag, nbytes, payload, 0.0,
                      protocol="rts", rndv=info, seq=seq)
        if same_node:
            t_arr = at + cpu + cfg.pxshm_sync_cpu
            self.engine.call_at(t_arr, self._arrive, t_arr, arr)
        else:
            src_node.nic.smsg_send(dst_node, MPI_CONTROL, self._arrive, arr,
                                   at=at + cpu)
        return req, cpu

    # ------------------------------------------------------------------ #
    # Receive side
    # ------------------------------------------------------------------ #
    def irecv(
        self,
        rank: int,
        src: int = ANY,
        tag: int = ANY,
        buf_key: Optional[Hashable] = None,
        at: Optional[float] = None,
    ) -> tuple[MpiRequest, float]:
        """MPI_Irecv: match unexpected now, or post for later."""
        at = self.engine.now if at is None else at
        cfg = self.cfg
        eng = self._match.get(rank)
        if eng is None:
            eng = self.match_engine(rank)
        req = MpiRequest("recv", src, rank, tag, 0)
        req.payload = buf_key  # stash the recv-buffer identity for uDREG
        arr, match_cpu = eng.match_unexpected(src, tag, pop=True)
        cpu = cfg.mpi_request_cpu + match_cpu
        if arr is None:
            eng.post(req)
            return req, cpu
        req.matched = arr
        self._complete_match(req, arr, at + cpu, pre_cpu=0.0)
        return req, cpu

    def iprobe(
        self,
        rank: int,
        src: int = ANY,
        tag: int = ANY,
    ) -> tuple[Optional[Arrival], float]:
        """MPI_Iprobe: peek; cost includes the unexpected-queue scan and,
        for wildcard-source probes, the per-connection mailbox scan."""
        eng = self._match.get(rank)
        if eng is None:
            eng = self.match_engine(rank)
        arr, scan_cpu = eng.match_unexpected(src, tag, pop=False)
        cpu = self.cfg.mpi_iprobe_cpu + scan_cpu
        if src == ANY:
            cpu += eng.probe_scan_cost()
        return arr, cpu

    # ------------------------------------------------------------------ #
    # Arrival processing (progress engine)
    # ------------------------------------------------------------------ #
    def _arrive(self, t: float, arr: Arrival) -> None:
        """Enforce per-(src,dst) ordering, then match (the NIC's
        ``on_remote_data(t, *args)`` shape, so a send makes no closure)."""
        arr.time = t
        key = (arr.src, arr.dst)
        expect = self._recv_seq.get(key, 0)
        if arr.seq != expect:
            self.reordered += 1
            self._reorder.setdefault(key, {})[arr.seq] = arr
            return
        self._recv_seq[key] = expect + 1
        self._process(arr)
        # drain any buffered successors
        buf = self._reorder.get(key)
        while buf:
            nxt = self._recv_seq[key]
            arr2 = buf.pop(nxt, None)
            if arr2 is None:
                break
            self._recv_seq[key] = nxt + 1
            arr2.time = max(arr2.time, t)
            self._process(arr2)

    def _process(self, arr: Arrival) -> None:
        eng = self._match.get(arr.dst)
        if eng is None:
            eng = self.match_engine(arr.dst)
        eng.known_sources.add(arr.src)
        req, match_cpu = eng.match_posted(arr)
        if req is None:
            eng.add_unexpected(arr)
            hook = self.on_unexpected.get(arr.dst, self.on_unexpected_default)
            if hook is not None:
                hook(arr)
            return
        req.matched = arr
        self._complete_match(req, arr, arr.time, pre_cpu=match_cpu)

    # ------------------------------------------------------------------ #
    # Completion
    # ------------------------------------------------------------------ #
    def _complete_match(self, req: MpiRequest, arr: Arrival,
                        t: float, pre_cpu: float) -> None:
        """A receive has matched an arrival at time ``t``."""
        cfg = self.cfg
        self.recvs_completed += 1
        req.nbytes = arr.nbytes
        if arr.protocol == "eager":
            extra = pre_cpu + cfg.t_memcpy(arr.nbytes)  # copy-out
            self._complete_at(req, t + extra, extra)
            return

        info: _RndvInfo = arr.rndv
        if info.kind == "xpmem":
            # single-copy kernel-assisted path: sync + one receiver copy
            extra = pre_cpu + cfg.xpmem_sync_cpu + cfg.t_memcpy(arr.nbytes)
            tc = t + extra
            self._complete_at(req, tc, extra)
            self._complete_at(info.send_req, tc, 0.0)
            return

        # network rendezvous: register recv buffer, BTE/FMA GET, FIN
        recv_key = req.payload if req.payload is not None else ("fresh", next(_fresh_keys))
        reg_cpu = self.udreg(req.dst).lookup(recv_key, arr.nbytes)
        dst_node = self.machine.node_of_pe(req.dst)
        src_node = self.machine.nodes[info.src_node]
        start = t + pre_cpu + reg_cpu
        if arr.nbytes + MPI_HEADER <= cfg.mpi_rndv_fma_max:
            kind = TransferKind.FMA_GET
        else:
            kind = TransferKind.BTE_GET
        post_cpu = None

        def on_done(tc: float) -> None:
            self._complete_at(req, tc, pre_cpu + reg_cpu + post_cpu)
            # FIN back to the sender

            def on_fin(tf: float) -> None:
                self._complete_at(info.send_req, tf + cfg.mpi_request_cpu,
                                  cfg.mpi_request_cpu)

            dst_node.nic.smsg_send(src_node, MPI_CONTROL, on_fin, at=tc)

        post_cpu = dst_node.nic.post_transfer(
            kind, src_node.coord, arr.nbytes + MPI_HEADER,
            on_local_cq=on_done, at=start)

    def _complete_at(self, req: MpiRequest, t: float, extra: float) -> None:
        """Complete ``req`` at ``t`` (which already includes ``extra``).

        ``extra`` is reported so a PE-based caller can attribute that part
        of the elapsed interval to CPU overhead rather than waiting.
        """
        if t <= self.engine.now:
            req.complete(t, extra)
        else:
            self.engine.call_at(t, req.complete, t, extra)
