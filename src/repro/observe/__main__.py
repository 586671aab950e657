"""CLI: run a benchmark under the observer and export its telemetry.

Example (the README quickstart)::

    PYTHONPATH=src python -m repro.observe kneighbor --size 65536 \\
        --layer ugni --trace kneighbor_trace.json --metrics metrics.jsonl

``kneighbor_trace.json`` loads directly in https://ui.perfetto.dev;
``metrics.jsonl`` holds the flat metrics snapshot plus its sha256 digest.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.observe import core as observe_core
from repro.observe.export import (
    format_timeline,
    write_chrome_trace,
    write_metrics_jsonl,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observe",
        description="Run a benchmark with observability on and export "
                    "Perfetto trace + metrics artifacts.")
    parser.add_argument("app", choices=["kneighbor", "pingpong"],
                        help="which benchmark to run")
    parser.add_argument("--size", type=int, default=65536,
                        help="message payload bytes (default 64 KiB)")
    parser.add_argument("--layer", default="ugni",
                        choices=["ugni", "mpi", "rdma"])
    parser.add_argument("--iters", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", metavar="PATH",
                        help="write Chrome trace-event JSON here")
    parser.add_argument("--metrics", metavar="PATH",
                        help="write the metrics snapshot (JSONL) here")
    parser.add_argument("--timeline", action="store_true",
                        help="print the per-PE utilization summary")
    args = parser.parse_args(argv)

    from repro.hardware.config import MachineConfig
    config = MachineConfig(observe=True)
    observe_core.clear_registry()

    if args.app == "kneighbor":
        from repro.apps.kneighbor import kneighbor
        result = kneighbor(args.size, layer=args.layer, config=config,
                           iters=args.iters, seed=args.seed)
        headline = (f"kneighbor[{args.layer}] size={args.size}: "
                    f"{result.iteration_time * 1e6:.2f} us/iter")
    else:
        from repro.apps.pingpong import charm_pingpong
        result = charm_pingpong(args.size, layer=args.layer, config=config,
                                iters=args.iters, seed=args.seed)
        headline = (f"pingpong[{args.layer}] size={args.size}: "
                    f"{result.one_way_latency * 1e6:.2f} us one-way")

    observers = observe_core.active_observers()
    if not observers:
        print("no observer was installed — nothing to export",
              file=sys.stderr)
        return 1
    obs = observers[0]
    print(headline)
    print(f"traced {obs.tracer.minted()} messages, "
          f"{obs.tracer.delivered()} delivered spans, "
          f"{len(obs.flight.dumps)} flight dump(s)")

    if args.trace:
        write_chrome_trace(obs, args.trace)
        print(f"wrote Perfetto trace: {args.trace} "
              f"(open in https://ui.perfetto.dev)")
    if args.metrics:
        snapshot = observe_core.collect_snapshot()
        with open(args.metrics, "w") as fh:
            write_metrics_jsonl([{
                "app": args.app, "layer": args.layer, "size": args.size,
                "metrics_digest": observe_core.metrics_digest(
                    snapshot=snapshot),
                "metrics": snapshot,
            }], fh)
        print(f"wrote metrics snapshot: {args.metrics}")
    if args.timeline:
        print(format_timeline(obs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
