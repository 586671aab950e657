"""Intra-node delivery (paper §IV.C, Fig. 8c).

Shared by the uGNI and RDMA layers (both mix it in).  The RDMA layer
always uses double-copy pxshm; the uGNI layer selects one of three modes
through :attr:`UgniLayerConfig.intranode`:

* ``"pxshm_single"`` — sender-side copy into POSIX shared memory; the
  receiver hands the in-region message straight to the application.  The
  paper's optimized scheme, possible only because the Charm++ runtime owns
  message buffers.
* ``"pxshm_double"`` — the initial pxshm scheme: copy in, copy out.
* ``"ugni"`` — route intra-node traffic through the NIC like any other
  message.  Fine in an isolated ping-pong, but it contends with inter-node
  traffic on the NIC ("one should not use uGNI for intra-node
  communication since this interferes with uGNI handling inter-node
  communication").
"""

from __future__ import annotations

from repro.converse.scheduler import Message, PE
from repro.lrts.messages import LRTS_ENVELOPE
from repro.memory.pxshm import PxshmMessage


class IntranodeMixin:
    """pxshm delivery for any layer that owns a ``self.pxshm`` fabric.

    A layer's ``sync_send`` takes this path only for a message (envelope
    included) that fits :attr:`MachineConfig.pxshm_region_bytes`; a larger
    one goes through the NIC like inter-node traffic, the size test of the
    real layer's ``CmiValidPxshm``.
    """

    def _send_intranode(self, src_pe: PE, dst_rank: int, msg: Message) -> None:
        total = msg.nbytes + LRTS_ENVELOPE

        def deliver(px: PxshmMessage, t: float, recv_cpu: float) -> None:
            self.deliver(dst_rank, px.payload, recv_cpu=recv_cpu)

        cpu = self.pxshm.send(src_pe.rank, dst_rank, total, msg, deliver,
                              at=src_pe.vtime)
        src_pe.charge(cpu, "overhead")

    def _scan_intranode(self, san) -> None:
        """The pxshm part of a layer's quiescence scan: only a release
        drains a backlog, so one still waiting at drain never leaves."""
        for (src, dst), ch in self.pxshm._channels.items():
            if ch.backlog:
                san.report(
                    "undelivered-message", f"pxshm[{src}->{dst}]",
                    f"{len(ch.backlog)} send(s) still waiting for region "
                    f"space ({ch.used}/{ch.capacity} B in use)")
