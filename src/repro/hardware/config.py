"""Machine calibration constants.

Every timing constant used anywhere in the stack lives here, with the
``hopper()`` preset fitted against the numbers the paper reports for NERSC
Hopper (Cray XE6, Gemini):

* pure-uGNI 8-byte one-way SMSG latency ≈ 1.2 us (paper §V.A);
* uGNI-based Charm++ adds ≈ 0.4 us of runtime overhead (1.6 us total);
* FMA↔BTE crossover between 2 KB and 8 KB (paper §II.A);
* peak point-to-point bandwidth just under 6 GB/s (paper Fig. 9b);
* SMSG maximum message size 1024 B, shrinking with job size (paper §III.C);
* memory registration is the expensive operation the memory pool removes
  (paper §IV.B, Eq. 1).

The class is a frozen dataclass: experiments that want to ablate a constant
use :func:`dataclasses.replace` so accidental shared-state mutation across
experiments is impossible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.units import GBps, KB, MB, ns, pages, us


@dataclass(frozen=True)
class MachineConfig:
    """All hardware / system-software timing constants (seconds, bytes)."""

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    cores_per_node: int = 24
    #: bytes of main memory per node (Hopper: 32 GB)
    node_memory_bytes: int = 32 * 1024 * MB

    # ------------------------------------------------------------------ #
    # Interconnect topology
    # ------------------------------------------------------------------ #
    #: which fabric geometry the machine is wired as: ``"torus3d"`` (the
    #: Gemini 3D torus, default — every pre-existing result is on it) or
    #: ``"dragonfly"`` (the Slingshot-class geometry for the rdma layer)
    topology: str = "torus3d"
    #: dragonfly shape; groups=0 derives a balanced shape from the node
    #: count (see :meth:`Dragonfly.for_nodes`)
    dragonfly_groups: int = 0
    dragonfly_routers_per_group: int = 4
    dragonfly_terminals_per_router: int = 2
    #: global (optical) ports per router
    dragonfly_global_links: int = 2
    #: per-hop latency of inter-group optical links (longer than the
    #: electrical intra-group hops)
    dragonfly_global_latency: float = 0.35 * us

    # ------------------------------------------------------------------ #
    # Torus network
    # ------------------------------------------------------------------ #
    #: per-hop router traversal latency
    hop_latency: float = 0.105 * us
    #: per-direction link bandwidth (Gemini ~ 9.4 GB/s raw; ~8 effective)
    link_bandwidth: float = 8.0 * GBps
    #: NIC injection/ejection latency (HyperTransport + NIC pipeline), each side
    nic_latency: float = 0.30 * us
    #: minimum serialization gap per message at the NIC TX (message-rate cap)
    nic_msg_gap: float = 0.04 * us
    #: concurrent transfer lanes on the NIC injection/ejection ports (FMA
    #: descriptor lanes + BTE virtual channels over the HT3 attach)
    nic_port_lanes: int = 4
    #: use adaptive (least-loaded minimal) routing instead of dimension-order
    adaptive_routing: bool = True

    # ------------------------------------------------------------------ #
    # FMA unit (CPU-driven: occupies the issuing core for the transfer)
    # ------------------------------------------------------------------ #
    fma_put_base: float = 0.80 * us
    fma_get_base: float = 1.40 * us
    fma_put_bandwidth: float = 1.40 * GBps
    fma_get_bandwidth: float = 1.20 * GBps
    #: largest transaction FMA accepts (hardware window limit, 1 MB)
    fma_max_bytes: int = 1 * MB
    #: CPU time to issue an FMA descriptor (stores through the FMA window
    #: are charged separately via the bandwidth above)
    fma_issue_cpu: float = 0.20 * us

    # ------------------------------------------------------------------ #
    # BTE engine (offloaded: serialized per NIC, CPU is free)
    # ------------------------------------------------------------------ #
    bte_put_base: float = 3.20 * us
    bte_get_base: float = 3.60 * us
    bte_put_bandwidth: float = 5.90 * GBps
    bte_get_bandwidth: float = 5.70 * GBps
    #: CPU time to post a descriptor to the RDMA queue
    bte_post_cpu: float = 0.30 * us
    #: message size at/above which the runtime prefers BTE over FMA
    fma_bte_crossover: int = 4 * KB

    # ------------------------------------------------------------------ #
    # SMSG (small-message mailboxes)
    # ------------------------------------------------------------------ #
    #: per-peer mailbox size at small job sizes
    smsg_mailbox_bytes: int = 64 * KB
    #: CPU time to send one SMSG (build header + FMA store of payload)
    smsg_send_cpu: float = 0.25 * us
    #: CPU time for the receiver to poll the RX CQ and copy the payload out
    smsg_recv_cpu: float = 0.15 * us
    #: per-byte copy-out on the receive side uses :attr:`memcpy_bandwidth`
    #: default maximum SMSG payload (1024 B, per paper §III.C)
    smsg_max_default: int = 1024

    # ------------------------------------------------------------------ #
    # MSGQ (per-node shared queue — the scalable alternative)
    # ------------------------------------------------------------------ #
    msgq_send_cpu: float = 0.55 * us
    msgq_recv_cpu: float = 0.45 * us
    msgq_max_bytes: int = 128
    #: per-node MSGQ backing memory
    msgq_node_bytes: int = 2 * MB

    # ------------------------------------------------------------------ #
    # Completion events
    # ------------------------------------------------------------------ #
    cq_event_cpu: float = 0.05 * us

    # ------------------------------------------------------------------ #
    # Host memory operations
    # ------------------------------------------------------------------ #
    #: system malloc: base + first-touch per page
    malloc_base: float = 0.60 * us
    malloc_per_page: float = 0.040 * us
    free_base: float = 0.30 * us
    #: GNI_MemRegister: base + per-page pinning/IOMMU cost.  This is the
    #: dominant term Eq. 1 attributes to the unoptimized large-message path.
    mem_register_base: float = 3.00 * us
    mem_register_per_page: float = 0.40 * us
    mem_deregister_base: float = 1.50 * us
    mem_deregister_per_page: float = 0.10 * us
    #: intra-node copy bandwidth (single-stream memcpy on Magny-Cours)
    memcpy_bandwidth: float = 3.2 * GBps
    memcpy_base: float = 0.05 * us

    # ------------------------------------------------------------------ #
    # Memory pool (paper §IV.B)
    # ------------------------------------------------------------------ #
    mempool_alloc_cpu: float = 0.25 * us
    mempool_free_cpu: float = 0.15 * us
    #: initial pool size per PE; expands on overflow
    mempool_initial_bytes: int = 32 * MB
    mempool_expand_bytes: int = 16 * MB

    # ------------------------------------------------------------------ #
    # Intra-node (pxshm / XPMEM) — paper §IV.C
    # ------------------------------------------------------------------ #
    #: lock/fence cost on the shared-memory queue, per message per side
    pxshm_sync_cpu: float = 0.15 * us
    #: size of each pairwise pxshm data region
    pxshm_region_bytes: int = 1 * MB
    #: XPMEM single-copy setup/synchronization overhead (Cray MPI large msgs)
    xpmem_sync_cpu: float = 6.00 * us
    #: NIC-loopback path bandwidth for intra-node traffic sent through uGNI
    nic_loopback_bandwidth: float = 4.2 * GBps

    # ------------------------------------------------------------------ #
    # Converse / Charm++ runtime costs
    # ------------------------------------------------------------------ #
    #: scheduler dequeue + handler dispatch per message
    sched_dispatch_cpu: float = 0.18 * us
    #: envelope construction / send-side bookkeeping per message
    converse_send_cpu: float = 0.20 * us

    # ------------------------------------------------------------------ #
    # MPI layer (Cray-MPI-like, built on uGNI) — the baseline substrate
    # ------------------------------------------------------------------ #
    #: request allocation + bookkeeping per send/recv call
    mpi_request_cpu: float = 0.15 * us
    #: tag-matching: base plus per-entry scan of the relevant queue.  The
    #: per-entry term is what makes fine-grain many-to-many traffic (the
    #: N-Queens spray) expensive — matching cost grows with the unexpected
    #: queue, reproducing the paper's "prolonged MPI_Iprobe" observation.
    mpi_match_base_cpu: float = 0.12 * us
    mpi_match_per_entry_cpu: float = 0.05 * us
    #: one MPI_Iprobe poll, base cost
    mpi_iprobe_cpu: float = 0.30 * us
    #: per-connected-peer cost of an ANY_SOURCE probe.  Cray MPI's SMSG
    #: transport keeps a mailbox per peer connection, so probing for "any"
    #: message scans every active connection — the documented "prolonged
    #: MPI_Iprobe" behaviour ([Mei et al. 2011], paper §I) that grows with
    #: how many peers a rank has heard from.  Irrelevant at 2 ranks
    #: (ping-pong), decisive for the many-to-many N-Queens spray.
    mpi_iprobe_per_conn_cpu: float = 0.50 * us
    #: eager protocol: messages ≤ this are copied through internal buffers
    mpi_eager_threshold: int = 8 * KB
    #: rendezvous setup cost on top of control messages
    mpi_rndv_cpu: float = 0.40 * us
    #: rendezvous GETs up to this size use FMA (receiver-CPU-driven, one
    #: engine per core); bigger ones use the node-shared BTE.  Cray MPI
    #: keeps mid-size transfers off the BTE precisely because 24 blocking
    #: receivers convoying on one DMA engine would be ruinous.
    mpi_rndv_fma_max: int = 64 * KB
    #: the machine layer's progress engine burns polls (failed Iprobes,
    #: MPI_Test on pending sends) between useful probes; charged per
    #: delivered message on the MPI-based Charm++ layer
    mpi_charm_poll_cpu: float = 0.60 * us
    #: Cray MPI pipelines very large rendezvous transfers in chunks,
    #: overlapping registration of chunk k with the transfer of k-1 — so
    #: per-message registration cost is bounded by one chunk
    mpi_pipeline_chunk: int = 1 * MB
    #: uDREG registration-cache capacity (entries)
    udreg_capacity: int = 1024
    udreg_lookup_cpu: float = 0.25 * us

    # ------------------------------------------------------------------ #
    # RDMA fabric (Slingshot/InfiniBand-class NIC) — repro.lrts.rdma_layer
    # ------------------------------------------------------------------ #
    #: largest payload carried inline in the work request itself (no
    #: buffer touch on the send side; IB-style inline data)
    rdma_inline_max: int = 220
    #: eager/rendezvous crossover — deliberately distinct from both the
    #: uGNI SMSG limit (1 KB) and Cray MPI's eager threshold (8 KB):
    #: modern NICs run eager through pre-posted receive buffers well into
    #: the tens of kilobytes
    rdma_eager_max: int = 16 * KB
    #: CPU to build a WQE and ring the doorbell (send or RDMA post)
    rdma_post_cpu: float = 0.12 * us
    #: CPU to poll a completion and hand the payload up
    rdma_recv_cpu: float = 0.10 * us
    #: per-channel wire ceiling for two-sided sends
    rdma_send_bandwidth: float = 7.0 * GBps
    #: one-sided RDMA write / read ceilings (the memory-channel path)
    rdma_write_bandwidth: float = 7.5 * GBps
    rdma_read_bandwidth: float = 7.0 * GBps
    #: extra fabric setup on the first byte of an RDMA read (request
    #: round-trip is modelled explicitly; this is end-point processing)
    rdma_read_base: float = 0.60 * us
    #: delay before the initiator's completion after the last byte lands
    rdma_completion_latency: float = 0.25 * us
    #: pin-down cache: registered buffers are recycled (lazy
    #: deregistration, MPICH2-over-IB style) up to this many bytes/node
    rdma_pin_cache_bytes: int = 16 * MB
    #: CPU for a pin-down-cache lookup that hits
    rdma_pin_lookup_cpu: float = 0.08 * us

    # ------------------------------------------------------------------ #
    # GPU (device memory, copy engines, kernel occupancy) — the Choi /
    # Rengasamy accelerator extension of the message-driven model.  All
    # GPU machinery is off (and absent) at the default gpus_per_node=0,
    # so configurations that predate this section behave identically.
    # ------------------------------------------------------------------ #
    #: accelerators per node; 0 disables the whole GPU model
    gpus_per_node: int = 0
    #: device memory per GPU (Fermi-class X2090: 6 GB)
    gpu_memory_bytes: int = 6 * 1024 * MB
    #: driver cost of cudaMalloc / cudaFree charged to the launching PE
    gpu_malloc_cpu: float = 2.00 * us
    gpu_free_cpu: float = 1.00 * us
    #: host↔device DMA engines: fixed start cost per copy, then the
    #: direction's bandwidth; each direction is one serialized engine
    gpu_copy_base: float = 1.00 * us
    gpu_h2d_bandwidth: float = 5.2 * GBps
    gpu_d2h_bandwidth: float = 4.8 * GBps
    #: CPU to enqueue one async copy (cudaMemcpyAsync + stream bookkeep)
    gpu_copy_post_cpu: float = 0.30 * us
    #: outstanding-copy credits per engine (queue occupancy cap; the
    #: sanitizer audits that every credit taken is retired)
    gpu_copy_queue_depth: int = 16
    #: concurrent-kernel slots (Fermi-style limited concurrency)
    gpu_kernel_slots: int = 2
    #: CPU to launch a kernel (driver + stream submit)
    gpu_kernel_launch_cpu: float = 4.00 * us
    #: GPUDirect-style NIC↔device path: expensive setup (peer mapping,
    #: doorbell through the IOMMU) but zero host copies, capped below the
    #: host link rate by the PCIe peer path
    gpu_direct_base: float = 8.00 * us
    gpu_direct_post_cpu: float = 0.35 * us
    gpu_direct_bandwidth: float = 6.0 * GBps
    #: staged-through-host vs GPUDirect crossover (payload bytes); below
    #: this the two copy hops cost less than the direct path's setup
    gpu_staged_crossover: int = 16 * KB
    #: transport policy: "auto" (size crossover), "staged", or "direct"
    gpu_transport: str = "auto"

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    #: install the lifecycle sanitizer (:mod:`repro.sanitize`) on machines
    #: built with this config.  Observer-only: simulated timings and all
    #: benchmark checksums are bit-identical with it on or off.  Also
    #: enabled process-wide by ``REPRO_SANITIZE=1``.
    sanitize: bool = False
    #: install the observability hub (:mod:`repro.observe`) on machines
    #: built with this config: metrics registry, causal message tracing,
    #: flight recorder.  Observer-only, same contract as ``sanitize``:
    #: simulated results are bit-identical with it on or off.  Also
    #: enabled process-wide by ``REPRO_OBSERVE=1``.
    observe: bool = False

    def __post_init__(self) -> None:
        # Every float field is a bandwidth or a duration (a CPU cost, a
        # latency, a gap).  Costs divide by the first and charge the
        # second, so a code path that charges a constant straight off the
        # config may skip the sign test ``PE.charge`` makes.
        for f in dataclasses.fields(self):
            if f.type not in ("float", float):  # a string: lazy annotations
                continue
            value = getattr(self, f.name)
            if f.name.endswith("_bandwidth"):
                if not value > 0:
                    raise ValueError(
                        f"{f.name} must be positive, got {value!r}")
            elif not value >= 0:
                raise ValueError(
                    f"{f.name} must not be negative, got {value!r}")

    # ------------------------------------------------------------------ #
    # Derived cost helpers
    # ------------------------------------------------------------------ #
    def t_malloc(self, nbytes: int) -> float:
        """System malloc cost (base + first-touch pages)."""
        return self.malloc_base + pages(nbytes) * self.malloc_per_page

    def t_free(self, nbytes: int) -> float:
        return self.free_base

    def t_register(self, nbytes: int) -> float:
        """GNI_MemRegister cost."""
        return self.mem_register_base + pages(nbytes) * self.mem_register_per_page

    def t_deregister(self, nbytes: int) -> float:
        return self.mem_deregister_base + pages(nbytes) * self.mem_deregister_per_page

    def t_memcpy(self, nbytes: int) -> float:
        """One intra-node copy of ``nbytes``."""
        return self.memcpy_base + nbytes / self.memcpy_bandwidth

    def smsg_max_size(self, n_nodes: int) -> int:
        """Maximum SMSG payload for a job of ``n_nodes`` nodes.

        The paper (§III.C): default 1024 B, decreasing as the job grows to
        bound per-connection mailbox memory.  We model the real layer's
        step-down policy.
        """
        if n_nodes <= 512:
            return self.smsg_max_default
        if n_nodes <= 4096:
            return 512
        return 128

    def smsg_mailbox_footprint(self, n_nodes: int) -> int:
        """Per-connection mailbox memory (both ends, one peer)."""
        # mailbox sized to hold a fixed number of max-size messages
        return 8 * self.smsg_max_size(n_nodes) + 2048

    def rdma_kind_for(self, nbytes: int) -> str:
        """Which hardware unit a size-aware runtime picks: 'fma' or 'bte'."""
        return "fma" if nbytes < self.fma_bte_crossover else "bte"

    def rdma_path_for(self, nbytes: int) -> str:
        """The rdma layer's protocol for a total wire size:
        'inline', 'eager', or 'rendezvous'."""
        if nbytes <= self.rdma_inline_max:
            return "inline"
        if nbytes <= self.rdma_eager_max:
            return "eager"
        return "rendezvous"

    def gpu_path_for(self, nbytes: int) -> str:
        """Device-payload transport under ``gpu_transport="auto"``:
        'staged' (d2h copy → host wire → h2d copy) below the crossover,
        'direct' (GPUDirect zero-copy) at or above it.  Mirrors
        :meth:`rdma_path_for` — the same size-crossover idiom one layer
        up the memory hierarchy."""
        return "staged" if nbytes < self.gpu_staged_crossover else "direct"

    def replace(self, **kw) -> "MachineConfig":
        """Convenience wrapper over :func:`dataclasses.replace`."""
        return dataclasses.replace(self, **kw)


def hopper() -> MachineConfig:
    """The NERSC Hopper preset used by all paper-reproduction benchmarks."""
    return MachineConfig()


def tiny(cores_per_node: int = 4) -> MachineConfig:
    """A small-node preset for fast unit tests (identical timing model)."""
    return MachineConfig(
        cores_per_node=cores_per_node,
        node_memory_bytes=256 * MB,
        mempool_initial_bytes=4 * MB,
        mempool_expand_bytes=2 * MB,
    )
