"""Device-payload send paths shared by every machine layer.

Choi et al. (arXiv:2102.12416) show that GPU-aware communication in a
message-driven runtime comes down to one protocol decision per message:
*stage through host memory* (a d2h copy, the normal host wire, an h2d
copy on the far side — cheap setup, two extra copies) or go *GPUDirect*
(the NIC reads/writes device memory directly — zero copies, but an
expensive peer-mapping setup and a wire rate capped by the PCIe peer
path).  The right answer flips with message size, exactly like the
inline/eager/rendezvous crossover one layer down
(:meth:`MachineConfig.gpu_path_for`).

The mixin is layer-agnostic on purpose: like the RDMA fabric it drives
``machine.network.transfer`` directly, charges post CPU to the sending
PE, and hands the finished message to :meth:`LrtsLayer.deliver` — the
only pieces of layer machinery it touches.  The uGNI, MPI and RDMA
layers all route ``msg.device`` sends here, so staged-vs-direct timing
(and the sanitizer's device-buffer shadowing) is identical across
substrates and application digests cannot depend on the layer.

Device-buffer lifecycle per internode send: the destination GPU's
*landing buffer* is allocated at post time and freed by an engine event
when delivery completes — a real allocate/free pair on the real device
allocator, which is what makes use-after-free and leak hazards
detectable rather than notional.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import LrtsError
from repro.hardware.gpu import DeviceBuffer
from repro.lrts.messages import LRTS_ENVELOPE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.converse.scheduler import Message, PE


class GpuTransportMixin:
    """GPU send paths for an :class:`~repro.lrts.interface.LrtsLayer`.

    Host classes call :meth:`_gpu_send` as the first branch of
    ``sync_send`` whenever ``msg.device`` is truthy, and fold
    :meth:`gpu_stats` into ``stats()`` when the machine has GPUs.
    """

    gpu_staged_sent = 0
    gpu_direct_sent = 0
    gpu_d2d_sent = 0

    def _gpu_send(self, src_pe: "PE", dst_rank: int, msg: "Message") -> None:
        machine = self.conv.machine
        cfg = machine.config
        obs = self._obs
        total = msg.nbytes + LRTS_ENVELOPE
        src_gpu = machine.gpu_of_pe(src_pe.rank)
        san = machine.sanitizer
        if san is not None and isinstance(msg.device, DeviceBuffer):
            # app-owned source buffer: posting it after a free is the
            # canonical device-use-after-free
            san.on_device_use(
                msg.device,
                f"{self.name} gpu send pe{src_pe.rank}->pe{dst_rank}")

        if machine.same_node(src_pe.rank, dst_rank):
            self._gpu_send_d2d(src_pe, dst_rank, msg, total, src_gpu,
                               machine, cfg, obs)
            return

        dst_gpu = machine.gpu_of_pe(dst_rank)
        #: runtime-managed landing buffer on the destination device; a
        #: real allocation, freed by the completion event below
        landing = dst_gpu.alloc(total)
        path = cfg.gpu_transport
        if path == "auto":
            path = cfg.gpu_path_for(msg.nbytes)
        src_coord = machine.node_of_pe(src_pe.rank).coord
        dst_coord = machine.node_of_pe(dst_rank).coord

        if path == "staged":
            self.gpu_staged_sent += 1
            if obs is not None:
                obs.on_lrts(self.name, "gpu_staged", msg, machine.engine.now)
            src_pe.charge(cfg.gpu_copy_post_cpu, "overhead")
            t0 = src_pe.vtime
            if obs is not None:
                obs.on_gpu("d2h", msg, total, t0,
                           where=f"gpu{src_gpu.gpu_id}")
            t1 = src_gpu.d2h.submit(t0, total)
            timing = machine.network.transfer(
                t1 + cfg.nic_latency, src_coord, dst_coord, total)
            t2 = timing.arrival + cfg.nic_latency
            if obs is not None:
                obs.on_gpu("h2d", msg, total, t2,
                           where=f"gpu{dst_gpu.gpu_id}")
            done = dst_gpu.h2d.submit(t2, total)
            recv_cpu = cfg.gpu_copy_post_cpu + cfg.cq_event_cpu
        elif path == "direct":
            self.gpu_direct_sent += 1
            if obs is not None:
                obs.on_lrts(self.name, "gpu_direct", msg, machine.engine.now)
            src_pe.charge(cfg.gpu_direct_post_cpu, "overhead")
            t0 = src_pe.vtime + cfg.gpu_direct_base
            if obs is not None:
                obs.on_gpu("direct", msg, total, t0,
                           where=f"gpu{src_gpu.gpu_id}")
            timing = machine.network.transfer(
                t0 + cfg.nic_latency, src_coord, dst_coord, total,
                bandwidth_cap=cfg.gpu_direct_bandwidth)
            done = timing.arrival + cfg.nic_latency
            recv_cpu = cfg.cq_event_cpu
        else:
            raise LrtsError(
                f"unknown gpu_transport {cfg.gpu_transport!r} "
                f"(want 'auto', 'staged', or 'direct')")

        self.deliver(dst_rank, msg, recv_cpu, at=done)
        # retire the landing buffer once the payload has been handed up;
        # routed by node so ShardedEngine tags it with the GPU's shard
        machine.engine.call_at_node(dst_gpu.node_id, done,
                                    dst_gpu.free, landing)

    def _gpu_send_d2d(self, src_pe: "PE", dst_rank: int, msg: "Message",
                      total: int, src_gpu: Any, machine: Any, cfg: Any,
                      obs: Any) -> None:
        """Intra-node device payload: one peer DMA hop, no NIC."""
        self.gpu_d2d_sent += 1
        if obs is not None:
            obs.on_lrts(self.name, "gpu_d2d", msg, machine.engine.now)
        dst_gpu = machine.gpu_of_pe(dst_rank)
        landing = dst_gpu.alloc(total)
        src_pe.charge(cfg.gpu_copy_post_cpu, "overhead")
        t0 = src_pe.vtime
        if obs is not None:
            obs.on_gpu("d2d", msg, total, t0, where=f"gpu{src_gpu.gpu_id}")
        # the copy leaves through the source device's d2h engine (the
        # CUDA P2P convention: the source device drives the transfer)
        done = src_gpu.d2h.submit(t0, total)
        self.deliver(dst_rank, msg, cfg.cq_event_cpu, at=done)
        machine.engine.call_at_node(dst_gpu.node_id, done,
                                    dst_gpu.free, landing)

    def gpu_stats(self) -> dict[str, Any]:
        """Device-path counters, folded into the host layer's stats()
        only on machines with GPUs (keeps pre-GPU digests identical)."""
        return {
            "gpu_staged_sent": self.gpu_staged_sent,
            "gpu_direct_sent": self.gpu_direct_sent,
            "gpu_d2d_sent": self.gpu_d2d_sent,
        }
