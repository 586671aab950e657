"""Ablations beyond the paper's figures: design choices DESIGN.md calls out.

* ``ablation_put_get`` — GET- vs PUT-based rendezvous (§III.C's argument).
* ``ablation_msgq`` — SMSG vs MSGQ: the latency/memory trade-off (§II.B).
* ``ablation_routing`` — adaptive vs dimension-ordered torus routing.
* ``ablation_smp_pools`` — per-PE vs node-shared memory pools (§VII's
  future-work direction).
"""

from __future__ import annotations

from repro.apps.pingpong import charm_pingpong
from repro.bench.harness import ExperimentResult, Series, paper_scale
from repro.hardware.config import MachineConfig
from repro.lrts.factory import make_runtime
from repro.lrts.ugni_layer import UgniLayerConfig
from repro.units import KB, MB


def ablation_put_get(config: MachineConfig = MachineConfig()) -> ExperimentResult:
    res = ExperimentResult(
        "ablation_put_get", "GET-based vs PUT-based rendezvous",
        paper_says="§III.C: 'the advantage of the GET-based scheme over the "
                   "PUT-based scheme is that the PUT-based scheme requires "
                   "one extra rendezvous message'",
        x_label="message bytes",
    )
    sizes = [4 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB]
    get = [charm_pingpong(s, layer="ugni", config=config).one_way_latency
           for s in sizes]
    put = [charm_pingpong(s, layer="ugni", config=config,
                          layer_config=UgniLayerConfig(rendezvous="put"))
           .one_way_latency for s in sizes]
    res.series = [Series("GET rendezvous", sizes, get),
                  Series("PUT rendezvous", sizes, put)]
    mid = [i for i, s in enumerate(sizes) if s <= 256 * KB]
    res.claim("GET wins up to 256KB (PUT's extra rendezvous message)",
              all(get[i] < put[i] for i in mid),
              f"deltas {[f'{(put[i] - get[i]) * 1e6:.2f}us' for i in mid]}")
    res.claim("the PUT penalty in that range is about one control-message "
              "latency", all(0 < put[i] - get[i] < 5e-6 for i in mid))
    res.claim("at multi-MB sizes the hardware's higher PUT bandwidth can "
              "offset the extra message (why the trade-off is size-dependent)",
              put[-1] - get[-1] < 1e-6,
              f"1MB delta {(put[-1] - get[-1]) * 1e6:.2f}us")
    return res


def ablation_msgq(config: MachineConfig = MachineConfig()) -> ExperimentResult:
    res = ExperimentResult(
        "ablation_msgq", "SMSG vs MSGQ small-message transport",
        paper_says="§II.B: SMSG fastest but per-peer mailbox memory grows "
                   "linearly with connections; MSGQ memory scales per node "
                   "at the price of latency",
        x_label="transport",
        y_kind="raw",
    )
    import numpy as np

    from repro.converse.scheduler import Message

    stats = {}
    n_pes = 96 if paper_scale() else 48
    for path in ("smsg", "msgq"):
        conv, layer = make_runtime(
            n_pes=n_pes, layer="ugni", config=config,
            layer_config=UgniLayerConfig(small_path=path))
        got = []

        def sink(pe, msg):
            got.append(msg.payload)

        h_sink = conv.register_handler(sink)

        def spray(pe, msg):
            rng = np.random.default_rng(7)
            for i in range(400):
                dst = int(rng.integers(0, n_pes))
                if dst == pe.rank:
                    continue
                conv.send(pe, dst, Message(h_sink, pe.rank, dst, 40,
                                           payload=i))

        h_spray = conv.register_handler(spray)
        conv.broadcast_from_outside(
            lambda src: Message(h_spray, src, src, 0),
            ranks=range(0, n_pes, 8))
        conv.run(max_events=10**7)
        s = layer.stats()
        stats[path] = {
            "delivered": s["delivered"],
            "fabric_memory": (s["smsg_mailbox_memory"] if path == "smsg"
                              else s["msgq_memory"]),
            "finish_time": conv.engine.now,
        }
    labels = ["smsg", "msgq"]
    res.series = [
        Series("messages delivered", labels,
               [stats[p]["delivered"] for p in labels]),
        Series("fabric memory (bytes)", labels,
               [stats[p]["fabric_memory"] for p in labels]),
        Series("finish time (s)", labels,
               [stats[p]["finish_time"] for p in labels]),
    ]
    res.claim("both transports deliver everything",
              stats["smsg"]["delivered"] == stats["msgq"]["delivered"])
    res.claim("MSGQ uses less fabric memory under many-to-many traffic",
              stats["msgq"]["fabric_memory"] < stats["smsg"]["fabric_memory"],
              f"{stats['msgq']['fabric_memory']} vs "
              f"{stats['smsg']['fabric_memory']} bytes")
    res.claim("SMSG finishes faster (lower latency path)",
              stats["smsg"]["finish_time"] < stats["msgq"]["finish_time"])
    return res


def ablation_routing(config: MachineConfig = MachineConfig()) -> ExperimentResult:
    res = ExperimentResult(
        "ablation_routing", "Adaptive vs dimension-ordered torus routing",
        paper_says="Gemini routes packet-by-packet to fully utilize links "
                   "in the direction of traffic (§II.A)",
        x_label="routing",
        y_kind="raw",
    )
    from repro.apps.kneighbor import kneighbor

    times = {}
    for adaptive in (True, False):
        times[adaptive] = kneighbor(
            256 * KB, layer="ugni", k=2, n_cores=8,
            config=config.replace(adaptive_routing=adaptive)).iteration_time
    labels = ["adaptive", "dimension-ordered"]
    res.series = [Series("kNeighbor iteration (s)", labels,
                         [times[True], times[False]])]
    res.claim("adaptive routing not slower under neighbor contention",
              times[True] <= times[False] * 1.02,
              f"{times[True] * 1e6:.1f}us vs {times[False] * 1e6:.1f}us")
    return res


def ablation_smp_pools(config: MachineConfig = MachineConfig()) -> ExperimentResult:
    res = ExperimentResult(
        "ablation_smp_pools", "Per-PE vs node-shared (SMP-mode) memory pools",
        paper_says="§VII future work: SMP mode to further optimize "
                   "intra-node behaviour; node-level pools trade per-PE "
                   "isolation for a smaller registered footprint",
        x_label="pool mode",
        y_kind="raw",
    )
    results = {}
    for smp in (False, True):
        conv, layer = make_runtime(
            n_nodes=2, layer="ugni", config=config,
            layer_config=UgniLayerConfig(smp_pools=smp))
        from repro.converse.scheduler import Message

        got = []
        h_sink = conv.register_handler(lambda pe, msg: got.append(1))

        def spray(pe, msg):
            for dst in range(conv.machine.config.cores_per_node,
                             conv.machine.config.cores_per_node + 8):
                conv.send(pe, dst, Message(h_sink, pe.rank, dst, 64 * KB))

        h_spray = conv.register_handler(spray)
        conv.broadcast_from_outside(
            lambda src: Message(h_spray, src, src, 0), ranks=range(8))
        conv.run(max_events=10**6)
        # the footprint during the spray: once it has drained, every
        # emptied expansion arena is back and only the initial ones remain
        results[smp] = {
            "pool_bytes": sum(p.peak_registered_bytes
                              for p in layer._pools.values()),
            "pools": len(layer._pools),
            "delivered": len(got),
        }
    labels = ["per-PE", "node-shared"]
    res.series = [
        Series("peak registered pool bytes", labels,
               [results[False]["pool_bytes"], results[True]["pool_bytes"]]),
        Series("pool instances", labels,
               [results[False]["pools"], results[True]["pools"]]),
    ]
    res.claim("both modes deliver all messages",
              results[False]["delivered"] == results[True]["delivered"])
    res.claim("node-shared pools register less memory",
              results[True]["pool_bytes"] < results[False]["pool_bytes"],
              f"{results[True]['pool_bytes']} vs {results[False]['pool_bytes']}")
    return res


def ablation_faults(config: MachineConfig = MachineConfig()) -> ExperimentResult:
    """Fault-injection ablation: what recovery costs as error rates climb."""
    from repro.faults import FaultConfig

    res = ExperimentResult(
        "ablation_faults", "Latency/bandwidth degradation vs injected error rate",
        paper_says="beyond the paper: Gemini surfaces link and transaction "
                   "faults as error CQ events; sequence-numbered "
                   "retransmission and post retry (UgniLayerConfig."
                   "reliability) trade latency for delivery guarantees",
        x_label="error rate",
        y_kind="raw",
    )
    rel = UgniLayerConfig(reliability=True)

    # SMSG drop sweep: latency under retransmission; lost = sent - delivered
    drop_rates = [0.0, 0.02, 0.05, 0.1, 0.2]
    lat, rexmit, failed = [], [], []
    for rate in drop_rates:
        try:
            r = charm_pingpong(64, layer="ugni", layer_config=rel,
                               config=config,
                               faults=FaultConfig(smsg_drop_rate=rate))
        except AssertionError:  # a lost message stalls the ping-pong
            for column in (lat, rexmit, failed):
                column.append(float("nan"))
            continue
        lat.append(r.one_way_latency)
        rexmit.append(r.stats["rel_retransmits"])
        failed.append(r.stats["small_sent"] - r.stats["delivered"])

    # transaction-error sweep: rendezvous bandwidth under post retry
    err_rates = [0.0, 0.05, 0.1, 0.2]
    bw, retries = [], []
    for rate in err_rates:
        r = charm_pingpong(64 * KB, layer="ugni", layer_config=rel,
                           config=config,
                           faults=FaultConfig(rdma_error_rate=rate))
        bw.append(r.bandwidth)
        retries.append(r.stats["post_retries"])

    # same layer config, no injector at all: the zero-rate reference
    baseline = charm_pingpong(64, layer="ugni", layer_config=rel,
                              config=config)

    res.series = [
        Series("SMSG 64B latency (s)", drop_rates, lat),
        Series("retransmits", drop_rates, [float(x) for x in rexmit]),
        Series("rendezvous 64KB bandwidth (B/s)", err_rates, bw),
        Series("post retries", err_rates, [float(x) for x in retries]),
    ]
    res.claim("a zero-rate injector perturbs nothing (bit-identical latency "
              "vs no injector)", lat[0] == baseline.one_way_latency,
              f"{lat[0]!r} vs {baseline.one_way_latency!r}")
    res.claim("latency degrades monotonically with the SMSG drop rate",
              all(lat[i] <= lat[i + 1] for i in range(len(lat) - 1)),
              " -> ".join(f"{v * 1e6:.2f}us" for v in lat))
    res.claim("every dropped delivery was recovered by retransmission",
              all(x > 0 for x in rexmit[1:]) and not any(failed),
              f"retransmits {rexmit}, failures {failed}")
    res.claim("rendezvous bandwidth is nonincreasing in the transaction "
              "error rate",
              all(bw[i + 1] <= bw[i] for i in range(len(bw) - 1)),
              " -> ".join(f"{v / 1e9:.3f}GB/s" for v in bw))
    res.claim("post retries occur at nonzero error rates",
              all(x > 0 for x in retries[1:]), f"retries {retries}")
    return res
