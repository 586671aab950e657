"""Charm++ over MPI: the portable baseline the paper measures against.

The inefficiencies the paper attributes to this layer, all reproduced here
because they fall out of the substrate's behaviour rather than being
scripted:

* every receive allocates a fresh Charm++ message buffer (``Tmalloc``) and,
  for eager-size messages, pays MPI's internal copy-out — the "extra
  memory copy between Charm++ and MPI memory space" (§I);
* fresh buffers mean the uDREG cache misses on every rendezvous, so large
  messages pay registration each time (the "MPI different send/recv
  buffers" curve of Fig. 9a);
* the progress engine polls ``MPI_Iprobe`` (whose cost grows with the
  unexpected queue) and then calls **blocking** ``MPI_Recv`` — for
  rendezvous messages the PE is stuck until the transfer finishes, unable
  to process other work (the kNeighbor result, §V.B);
* MPI's ordering/matching machinery taxes every message with work the
  message-driven model doesn't need (§I).
"""

from __future__ import annotations

from typing import Any

from repro.converse.scheduler import ConverseRuntime, Message, PE
from repro.hardware.machine import Machine
from repro.lrts.gpu_transport import GpuTransportMixin
from repro.lrts.interface import LrtsLayer
from repro.lrts.messages import LRTS_ENVELOPE
from repro.mpish.matching import Arrival
from repro.mpish.world import MpiWorld

#: MPI tag carrying Charm++ messages
CHARM_TAG = 77


class MpiMachineLayer(GpuTransportMixin, LrtsLayer):
    """LRTS over :class:`repro.mpish.MpiWorld`."""

    name = "mpi"

    def __init__(self, machine: Machine):
        super().__init__()
        self.machine = machine
        self.cfg = machine.config
        self.world = MpiWorld(machine)
        self.blocking_recvs = 0
        self.sent = 0

    def _setup(self) -> None:
        assert self.conv is not None
        self._proto_hid = self.conv.register_handler(self._proto_handler)
        self.world.on_unexpected_default = self._on_unexpected

    # ------------------------------------------------------------------ #
    # Send
    # ------------------------------------------------------------------ #
    def sync_send(self, src_pe: PE, dst_rank: int, msg: Message) -> None:
        if msg.device:
            self._gpu_send(src_pe, dst_rank, msg)
            return
        total = msg.nbytes + LRTS_ENVELOPE
        self.sent += 1
        obs = self._obs
        if obs is not None:
            # eager vs rendezvous is the receiver's call (Iprobe + Recv);
            # classify by the same threshold the progress engine will use
            path = ("eager" if total <= self.cfg.mpi_eager_threshold
                    else "rendezvous")
            obs.on_lrts("mpi", path, msg, self.machine.engine.now)
        # fresh buffer identity per message: the runtime allocated it, so
        # uDREG can never hit (the paper's different-buffers case)
        _req, cpu = self.world.isend(src_pe.rank, dst_rank, CHARM_TAG, total,
                                     payload=msg, buf_key=None, at=src_pe.vtime)
        src_pe.charge(cpu, "overhead")

    # ------------------------------------------------------------------ #
    # Receive: progress engine driven by arrivals
    # ------------------------------------------------------------------ #
    def _on_unexpected(self, arr: Arrival) -> None:
        """An arrival the progress engine will discover via Iprobe."""
        pe = self.conv.pes[arr.dst]
        pe.enqueue(
            Message(handler=self._proto_hid, src_pe=arr.src, dst_pe=arr.dst,
                    nbytes=0, payload=arr),
            recv_cpu=0.0,
        )

    def _proto_handler(self, pe: PE, message: Message) -> None:
        arr: Arrival = message.payload
        # The progress engine's ANY_SOURCE Iprobe that found the message:
        # scans the unexpected queue plus one mailbox per connected peer
        _probe, probe_cpu = self.world.iprobe(pe.rank, tag=arr.tag)
        # plus the polls that came up empty while this message was in flight
        pe.charge(probe_cpu + self.cfg.mpi_charm_poll_cpu, "overhead")
        # allocate the Charm++ message buffer for the incoming message
        pe.charge(self.cfg.t_malloc(arr.nbytes), "overhead")
        # blocking MPI_Recv
        req, cpu = self.world.irecv(pe.rank, src=arr.src, tag=arr.tag,
                                    buf_key=None, at=pe.vtime)
        pe.charge(cpu, "overhead")
        if req.completed:
            # eager: data was already in MPI's buffers; copy-out happened
            t, extra = req.value
            pe.charge(max(0.0, extra), "overhead")
            self._deliver_matched(pe, req)
            return
        # rendezvous: the progress engine sits in MPI_Recv until done
        self.blocking_recvs += 1
        pe.begin_blocking()

        def on_done(value) -> None:
            t, _extra = value
            pe.end_blocking(t)
            self._deliver_matched(pe, req)

        req.on_complete(on_done)

    def _deliver_matched(self, pe: PE, req) -> None:
        msg: Message = req.matched.payload
        self.deliver(pe.rank, msg, recv_cpu=0.0)

    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        s = super().stats()
        s.update(
            sent=self.sent,
            blocking_recvs=self.blocking_recvs,
            udreg_hit_rates={r: c.hit_rate for r, c in self.world._udreg.items()},
            max_unexpected={r: e.max_unexpected
                            for r, e in self.world._match.items()},
        )
        if self.cfg.gpus_per_node > 0:
            s.update(self.gpu_stats())
        return s
