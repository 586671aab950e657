"""Microbenchmark experiments: Figs. 1, 4, 6, 8(a-c), 9(a-c), 10."""

from __future__ import annotations

from repro.apps.kneighbor import kneighbor
from repro.apps.onetoall import one_to_all
from repro.apps.pingpong import charm_pingpong
from repro.apps.raw import fma_bte_latency, mpi_pingpong, ugni_pingpong
from repro.bench.harness import ExperimentResult, Series, geometric_sizes, paper_scale
from repro.hardware.config import MachineConfig
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.lrts.ugni_layer.config import initial_design
from repro.parallel import SweepPoint, run_sweep
from repro.units import KB, MB, us


def _sizes(lo: int, hi: int) -> list[int]:
    sizes = geometric_sizes(lo, hi)
    if not paper_scale():
        sizes = sizes[::2] + ([sizes[-1]] if sizes[-1] not in sizes[::2] else [])
    return sizes


# --------------------------------------------------------------------- #
# module-level sweep-point functions: the process-pool sweep runner
# (repro.parallel.sweep) requires points that worker processes can
# import, so the per-size simulations the figures fan out live here
# rather than as comprehensions inside each figure
# --------------------------------------------------------------------- #
def _charm_latency(size: int, layer: str, config: MachineConfig) -> float:
    return charm_pingpong(size, layer=layer, config=config).one_way_latency


def _charm_bandwidth(size: int, layer: str, config: MachineConfig) -> float:
    return charm_pingpong(size, layer=layer, config=config).bandwidth


def _mpi_latency(size: int, same_buffer: bool, config: MachineConfig) -> float:
    return mpi_pingpong(size, config, same_buffer=same_buffer)


def _one_to_all_latency(size: int, layer: str, n_nodes: int,
                        config: MachineConfig) -> float:
    return one_to_all(size, layer=layer, n_nodes=n_nodes,
                      config=config).latency


def _kneighbor_time(size: int, layer: str, config: MachineConfig) -> float:
    return kneighbor(size, layer=layer, config=config).iteration_time


def _curves(specs: list[tuple], sizes: list[int]) -> list[list[float]]:
    """Fan out ``[(fn, *extra_args), ...]`` x sizes as one sweep.

    All curves of a figure go into a single :func:`run_sweep` call so a
    parallel run load-balances across the whole figure; results come
    back in submission order and are sliced back into per-curve lists —
    identical to evaluating each comprehension sequentially.
    """
    points = [SweepPoint(spec[0], (s, *spec[1:])) for spec in specs
              for s in sizes]
    flat = run_sweep(points)
    n = len(sizes)
    return [flat[i * n:(i + 1) * n] for i in range(len(specs))]


# --------------------------------------------------------------------- #
# Fig. 1 — layer overhead: uGNI < MPI < MPI-based Charm++
# --------------------------------------------------------------------- #
def fig1(config: MachineConfig = MachineConfig()) -> ExperimentResult:
    res = ExperimentResult(
        "fig1", "Ping-pong one-way latency in uGNI, MPI and MPI-based Charm++",
        paper_says="each software layer adds latency: uGNI < MPI < "
                   "MPI-based Charm++, across 32B-64KB",
        x_label="message bytes",
    )
    sizes = _sizes(32, 64 * KB)
    ugni = [ugni_pingpong(s, config) for s in sizes]
    mpi = [mpi_pingpong(s, config, same_buffer=True) for s in sizes]
    mpi_charm = [_charm_latency(s, "mpi", config) for s in sizes]
    res.series = [
        Series("uGNI", sizes, ugni),
        Series("pure MPI", sizes, mpi),
        Series("MPI-based CHARM++", sizes, mpi_charm),
    ]
    res.claim("uGNI below MPI at every size",
              all(u < m for u, m in zip(ugni, mpi)))
    res.claim("MPI below MPI-based Charm++ at every size",
              all(m < c for m, c in zip(mpi, mpi_charm)))
    res.claim("layering cost largest in relative terms for small messages",
              (mpi_charm[0] / ugni[0]) > (mpi_charm[-1] / ugni[-1]),
              f"8-32B ratio {mpi_charm[0] / ugni[0]:.2f} vs large "
              f"{mpi_charm[-1] / ugni[-1]:.2f}")
    return res


# --------------------------------------------------------------------- #
# Fig. 4 — FMA/BTE PUT/GET latencies and their crossover
# --------------------------------------------------------------------- #
def fig4(config: MachineConfig = MachineConfig()) -> ExperimentResult:
    res = ExperimentResult(
        "fig4", "One-way latency using FMA/RDMA Put/Get",
        paper_says="FMA lowest latency for small messages; BTE best beyond "
                   "a crossover between 2KB and 8KB (paper SII.A)",
        x_label="message bytes",
    )
    sizes = _sizes(8, 4 * MB)
    curves = {k: [fma_bte_latency(k, s, config) for s in sizes]
              for k in ("fma_put", "fma_get", "bte_put", "bte_get")}
    res.series = [Series(k, sizes, v) for k, v in curves.items()]
    res.claim("FMA Put beats BTE Put for 8B",
              curves["fma_put"][0] < curves["bte_put"][0])
    res.claim("BTE Put beats FMA Put for 64KB+",
              all(b < f for s, b, f
                  in zip(sizes, curves["bte_put"], curves["fma_put"])
                  if s >= 64 * KB))
    # locate the put crossover
    cross = None
    for i in range(len(sizes) - 1):
        if (curves["fma_put"][i] <= curves["bte_put"][i]
                and curves["fma_put"][i + 1] > curves["bte_put"][i + 1]):
            cross = sizes[i + 1]
            break
    res.claim("PUT crossover falls in the 2KB-8KB band",
              cross is not None and 2 * KB <= cross <= 8 * KB,
              f"measured crossover at {cross}")
    res.claim("GET costs more than PUT at small sizes (extra request trip)",
              curves["fma_get"][0] > curves["fma_put"][0])
    return res


# --------------------------------------------------------------------- #
# Fig. 6 — the unoptimized uGNI layer: great small, bad large
# --------------------------------------------------------------------- #
def fig6(config: MachineConfig = MachineConfig()) -> ExperimentResult:
    res = ExperimentResult(
        "fig6", "Initial uGNI-based Charm++ vs MPI-based Charm++ vs pure uGNI",
        paper_says="the initial design wins for SMSG-size messages but loses "
                   "to MPI-based Charm++ for large ones (malloc+registration "
                   "per message, Eq. 1)",
        x_label="message bytes",
    )
    sizes = _sizes(32, 1 * MB)
    pure = [ugni_pingpong(s, config) for s in sizes]
    initial = [charm_pingpong(s, layer="ugni", layer_config=initial_design(),
                              config=config).one_way_latency
               for s in sizes]
    mpi_charm = [_charm_latency(s, "mpi", config) for s in sizes]
    res.series = [
        Series("pure uGNI", sizes, pure),
        Series("initial uGNI-CHARM++", sizes, initial),
        Series("MPI-based CHARM++", sizes, mpi_charm),
    ]
    small = [i for i, s in enumerate(sizes) if s <= 512]
    large = [i for i, s in enumerate(sizes) if s >= 64 * KB]
    res.claim("initial design close to pure uGNI for small messages (<1us gap)",
              all(initial[i] - pure[i] < 1.0 * us for i in small))
    res.claim("initial design beats MPI-based Charm++ for small messages",
              all(initial[i] < mpi_charm[i] for i in small))
    res.claim("initial design LOSES to MPI-based Charm++ for large messages",
              all(initial[i] > mpi_charm[i] for i in large),
              "the motivation for the memory pool (SIV.B)")
    return res


# --------------------------------------------------------------------- #
# Fig. 8a — persistent messages
# --------------------------------------------------------------------- #
def fig8a(config: MachineConfig = MachineConfig()) -> ExperimentResult:
    res = ExperimentResult(
        "fig8a", "Large-message latency with and without persistent messages",
        paper_says="persistent messages greatly reduce large-message latency "
                   "(Tcost = Trdma + Tsmsg)",
        x_label="message bytes",
    )
    sizes = _sizes(1 * KB, 512 * KB)
    wo = [_charm_latency(s, "ugni", config) for s in sizes]
    w = [charm_pingpong(s, layer="ugni", config=config,
                        persistent=True).one_way_latency for s in sizes]
    pure = [ugni_pingpong(s, config) for s in sizes]
    res.series = [
        Series("w/o persistent", sizes, wo),
        Series("w/ persistent", sizes, w),
        Series("pure uGNI", sizes, pure),
    ]
    big = [i for i, s in enumerate(sizes) if s >= 4 * KB]
    res.claim("persistent faster than the rendezvous path for all large sizes",
              all(w[i] < wo[i] for i in big))
    res.claim("persistent within 2x of pure uGNI for 64KB+",
              all(w[i] < 2 * pure[i] for i, s in enumerate(sizes)
                  if s >= 64 * KB))
    return res


# --------------------------------------------------------------------- #
# Fig. 8b — memory pool
# --------------------------------------------------------------------- #
def fig8b(config: MachineConfig = MachineConfig()) -> ExperimentResult:
    res = ExperimentResult(
        "fig8b", "Large-message latency with and without the memory pool",
        paper_says="the memory pool cuts latency by ~50%; with it, latency "
                   "approaches pure uGNI as sizes grow (gap ~2.5us for "
                   "smaller large messages)",
        x_label="message bytes",
    )
    sizes = _sizes(1 * KB, 512 * KB)
    wo = [charm_pingpong(s, layer="ugni",
                         layer_config=UgniLayerConfig(use_mempool=False),
                         config=config).one_way_latency for s in sizes]
    w = [_charm_latency(s, "ugni", config) for s in sizes]
    pure = [ugni_pingpong(s, config) for s in sizes]
    res.series = [
        Series("w/o memory pool", sizes, wo),
        Series("w/ memory pool", sizes, w),
        Series("pure uGNI", sizes, pure),
    ]
    big = [i for i, s in enumerate(sizes) if s >= 16 * KB]
    reduction = [1 - w[i] / wo[i] for i in big]
    res.claim("pool cuts large-message latency by >=35% (paper: ~50%)",
              all(r >= 0.35 for r in reduction),
              f"reductions: {[f'{r:.0%}' for r in reduction]}")
    gap_idx = sizes.index(4 * KB) if 4 * KB in sizes else big[0]
    res.claim("pooled latency within ~5us of pure uGNI at small-large sizes",
              w[gap_idx] - pure[gap_idx] < 5 * us,
              f"gap {1e6 * (w[gap_idx] - pure[gap_idx]):.2f}us "
              "(paper: around 2.5us)")
    res.claim("pooled latency converges toward pure uGNI as size grows",
              (w[-1] / pure[-1]) < (w[0] / pure[0]))
    return res


# --------------------------------------------------------------------- #
# Fig. 8c — intra-node communication
# --------------------------------------------------------------------- #
def fig8c(config: MachineConfig = MachineConfig()) -> ExperimentResult:
    res = ExperimentResult(
        "fig8c", "Intra-node latency: pxshm double/single copy vs pure MPI "
                 "vs NIC loopback",
        paper_says="double copy tracks MPI below ~16KB but loses beyond; "
                   "sender-side single copy beats MPI overall",
        x_label="message bytes",
    )
    sizes = _sizes(1 * KB, 512 * KB)
    double = [charm_pingpong(s, layer="ugni", intranode=True, config=config,
                             layer_config=UgniLayerConfig(intranode="pxshm_double"))
              .one_way_latency for s in sizes]
    single = [charm_pingpong(s, layer="ugni", intranode=True,
                             config=config).one_way_latency for s in sizes]
    pure_mpi = [mpi_pingpong(s, config, intranode=True) for s in sizes]
    loopback = [charm_pingpong(s, layer="ugni", intranode=True, config=config,
                               layer_config=UgniLayerConfig(intranode="ugni"))
                .one_way_latency for s in sizes]
    res.series = [
        Series("pxshm double copy", sizes, double),
        Series("pxshm single copy", sizes, single),
        Series("pure MPI", sizes, pure_mpi),
        Series("uGNI loopback", sizes, loopback),
    ]
    res.claim("single copy beats double copy for every large size",
              all(s_ < d for s_, d in zip(single, double)))
    res.claim("double copy within 1.6x of MPI below 16KB (paper: 'very close')",
              all(double[i] < 1.6 * pure_mpi[i]
                  for i, s in enumerate(sizes) if s < 16 * KB))
    res.claim("double copy loses to MPI at 512KB (MPI's XPMEM single copy)",
              double[-1] > pure_mpi[-1])
    res.claim("single copy beats MPI at 64KB+",
              all(single[i] < pure_mpi[i]
                  for i, s in enumerate(sizes) if s >= 64 * KB))
    return res


# --------------------------------------------------------------------- #
# Fig. 9a — the five-way latency comparison
# --------------------------------------------------------------------- #
def fig9a(config: MachineConfig = MachineConfig()) -> ExperimentResult:
    res = ExperimentResult(
        "fig9a", "One-way latency: uGNI-Charm++, MPI-Charm++, MPI same/diff "
                 "buffers, pure uGNI",
        paper_says="uGNI-Charm++ reaches 1.6us at 8B (pure uGNI 1.2us) and "
                   "beats MPI-based Charm++ everywhere; beyond 8KB MPI with "
                   "re-used buffers is much faster than with fresh buffers",
        x_label="message bytes",
    )
    sizes = _sizes(8, 1 * MB)
    pure, ugni_charm, mpi_same, mpi_diff, mpi_charm = _curves([
        (ugni_pingpong, config),
        (_charm_latency, "ugni", config),
        (_mpi_latency, True, config),
        (_mpi_latency, False, config),
        (_charm_latency, "mpi", config),
    ], sizes)
    res.series = [
        Series("uGNI-CHARM++", sizes, ugni_charm),
        Series("MPI-CHARM++", sizes, mpi_charm),
        Series("MPI same buffer", sizes, mpi_same),
        Series("MPI diff buffer", sizes, mpi_diff),
        Series("pure uGNI", sizes, pure),
    ]
    res.claim("pure uGNI 8B latency ~1.2us",
              1.0 * us < pure[0] < 1.5 * us, f"{pure[0] * 1e6:.2f}us")
    res.claim("uGNI-Charm++ 8B latency ~1.6us (paper's headline number)",
              1.3 * us < ugni_charm[0] < 2.1 * us,
              f"{ugni_charm[0] * 1e6:.2f}us")
    res.claim("uGNI-Charm++ beats MPI-based Charm++ at every size",
              all(u < m for u, m in zip(ugni_charm, mpi_charm)))
    res.claim("MPI same-buffer beats different-buffer beyond 8KB "
              "(uDREG cache hits)",
              all(mpi_same[i] < mpi_diff[i]
                  for i, s in enumerate(sizes) if s > 8 * KB))
    res.claim("MPI-based Charm++ tracks the different-buffer MPI case for "
              "large messages (fresh runtime buffers)",
              abs(mpi_charm[-1] / mpi_diff[-1] - 1) < 0.5,
              f"ratio {mpi_charm[-1] / mpi_diff[-1]:.2f}")
    return res


# --------------------------------------------------------------------- #
# Fig. 9b — bandwidth
# --------------------------------------------------------------------- #
def fig9b(config: MachineConfig = MachineConfig()) -> ExperimentResult:
    res = ExperimentResult(
        "fig9b", "Bandwidth, uGNI-based vs MPI-based Charm++",
        paper_says="uGNI-based bandwidth leads below 1MB (MPI-layer "
                   "overhead); the two converge for multi-MB messages "
                   "near 6GB/s",
        x_label="message bytes",
        y_kind="bandwidth",
    )
    sizes = _sizes(16 * KB, 4 * MB)
    ugni_bw, mpi_bw = _curves([
        (_charm_bandwidth, "ugni", config),
        (_charm_bandwidth, "mpi", config),
    ], sizes)
    res.series = [
        Series("uGNI-based CHARM++", sizes, ugni_bw),
        Series("MPI-based CHARM++", sizes, mpi_bw),
    ]
    res.claim("uGNI-based bandwidth higher below 1MB",
              all(u > m for u, m, s in zip(ugni_bw, mpi_bw, sizes)
                  if s < 1 * MB))
    res.claim("gap narrows at 4MB (<35%)",
              ugni_bw[-1] / mpi_bw[-1] < 1.35,
              f"ratio {ugni_bw[-1] / mpi_bw[-1]:.2f}")
    res.claim("peak bandwidth approaches the BTE limit (>4GB/s)",
              ugni_bw[-1] > 4e9, f"{ugni_bw[-1] / 1e9:.2f}GB/s")
    return res


# --------------------------------------------------------------------- #
# Fig. 9c — one-to-all
# --------------------------------------------------------------------- #
def fig9c(config: MachineConfig = MachineConfig()) -> ExperimentResult:
    n_nodes = 16 if paper_scale() else 8
    res = ExperimentResult(
        "fig9c", f"One-to-all latency on {n_nodes} nodes",
        paper_says="uGNI-based Charm++ outperforms MPI-based by a large "
                   "margin for small messages (CPU-time difference); the "
                   "gap closes as sizes grow",
        x_label="message bytes",
    )
    sizes = _sizes(32, 1 * MB)
    ugni, mpi = _curves([
        (_one_to_all_latency, "ugni", n_nodes, config),
        (_one_to_all_latency, "mpi", n_nodes, config),
    ], sizes)
    res.series = [
        Series("uGNI-based CHARM++", sizes, ugni),
        Series("MPI-based CHARM++", sizes, mpi),
    ]
    ratio_small = mpi[0] / ugni[0]
    ratio_large = mpi[-1] / ugni[-1]
    res.claim("large margin for small messages (>=1.7x)",
              ratio_small >= 1.7, f"{ratio_small:.2f}x at {sizes[0]}B")
    res.claim("gap closes for large messages",
              ratio_large < ratio_small,
              f"{ratio_large:.2f}x at 1MB vs {ratio_small:.2f}x small")
    return res


# --------------------------------------------------------------------- #
# Fig. 10 — kNeighbor
# --------------------------------------------------------------------- #
def fig10(config: MachineConfig = MachineConfig()) -> ExperimentResult:
    res = ExperimentResult(
        "fig10", "kNeighbor (3 cores on 3 nodes, k=1)",
        paper_says="uGNI-based iteration latency is about half the "
                   "MPI-based one even at 1MB — the blocking MPI_Recv "
                   "prevents the progress engine from overlapping transfers",
        x_label="message bytes",
    )
    sizes = _sizes(32, 1 * MB)
    ugni, mpi = _curves([
        (_kneighbor_time, "ugni", config),
        (_kneighbor_time, "mpi", config),
    ], sizes)
    res.series = [
        Series("uGNI-based CHARM++", sizes, ugni),
        Series("MPI-based CHARM++", sizes, mpi),
    ]
    big = [i for i, s in enumerate(sizes) if s >= 64 * KB]
    ratios = [mpi[i] / ugni[i] for i in big]
    res.claim("MPI-based at least 1.5x slower for 64KB+ "
              "(paper: about 2x even at 1MB)",
              all(r >= 1.5 for r in ratios),
              f"ratios {[f'{r:.2f}' for r in ratios]}")
    res.claim("uGNI-based faster at every size",
              all(u < m for u, m in zip(ugni, mpi)))
    return res
