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

from repro.converse.scheduler import Message, PE
from repro.errors import SimulationError
from repro.hardware.machine import Machine
from repro.lrts.gpu_transport import GpuTransportMixin
from repro.lrts.interface import LrtsLayer
from repro.lrts.messages import LRTS_ENVELOPE
from repro.mpish.matching import Arrival
from repro.mpish.request import MpiRequest
from repro.mpish.world import MpiWorld
from repro.units import PAGE_SIZE

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
        start = src_pe.vtime
        _req, cpu = self.world.isend(src_pe.rank, dst_rank, CHARM_TAG, total,
                                     payload=msg, buf_key=None, at=start)
        # src_pe.charge(cpu, "overhead"), inlined
        if cpu < 0:
            raise SimulationError(f"negative charge {cpu}")
        if cpu != 0.0:
            src_pe.vtime = start + cpu
            src_pe.overhead_time += cpu
            tracer = src_pe._tracer
            if tracer is not None:
                tracer.record(src_pe.rank, start, cpu, "overhead")

    # ------------------------------------------------------------------ #
    # Receive: progress engine driven by arrivals, one call per step:
    # arrival -> Iprobe + Recv (the protocol handler) -> completion
    # ------------------------------------------------------------------ #
    def _on_unexpected(self, arr: Arrival) -> None:
        """An arrival the progress engine will discover via Iprobe."""
        self._pes[arr.dst].enqueue(
            Message(self._proto_hid, arr.src, arr.dst, 0, arr), 0.0,
            arr.payload)

    def _proto_handler(self, pe: PE, message: Message) -> None:
        arr: Arrival = message.payload
        world = self.world
        cfg = self.cfg
        rank = pe.rank
        nbytes = arr.nbytes
        # The progress engine's ANY_SOURCE Iprobe that found the message:
        # scans the unexpected queue plus one mailbox per connected peer,
        # with the polls that came up empty while the message was in flight
        probe_cpu = world.iprobe(rank, arr.tag)[1] + cfg.mpi_charm_poll_cpu
        # allocate the Charm++ message buffer for it (t_malloc)
        malloc_cpu = (cfg.malloc_base
                      + (-(-nbytes // PAGE_SIZE) if nbytes > 0 else 1)
                      * cfg.malloc_per_page)
        # blocking MPI_Recv, called once those two have run
        start = pe.vtime
        req, recv_cpu = world.irecv(rank, arr.src, arr.tag,
                                    at=start + probe_cpu + malloc_cpu)
        # pe.charge(dt, "overhead") for the three, written out: one
        # addition each, in order, each with its interval
        tracer = pe._tracer
        vt = start
        for dt in (probe_cpu, malloc_cpu, recv_cpu):
            if dt < 0:
                raise SimulationError(f"negative charge {dt}")
            if dt != 0.0:
                if tracer is not None:
                    tracer.record(rank, vt, dt, "overhead")
                pe.overhead_time += dt
                vt += dt
        pe.vtime = vt
        value = req.value
        if value is not None:
            # eager: data was already in MPI's buffers; copy-out happened
            pe.charge(max(0.0, value[1]), "overhead")
            msg = req.matched.payload
            pe.enqueue(msg, 0.0, msg)
            return
        # the progress engine sits in MPI_Recv until the data is in: "once
        # a MPI_IProbe returns true, the progress engine calls blocking
        # MPI_Recv [...] which prevents the progress engine from doing any
        # other work" (§V.B) — no message runs on this PE until
        # ``_recv_done`` calls ``pe.end_blocking``
        self.blocking_recvs += 1
        pe._blocked = True
        req.then = self._recv_done

    def _recv_done(self, req: MpiRequest) -> None:
        """The blocking MPI_Recv has returned: unblock, deliver.

        A PE whose node crashed while it waited stays blocked: the data
        lands in dead memory, charged to nobody, and is ``dropped_dead``.
        """
        pe = self._pes[req.dst]
        if not pe.halted:
            pe.end_blocking(req.value[0])
        msg = req.matched.payload
        pe.enqueue(msg, 0.0, msg)

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
