"""One measurement in a fresh process; ``bench.py`` is the only caller.

``preflight`` loads (building if need be) the C engine core, untimed
``run``     set-up, then one timed workload call with tracing off
``trace``   the per-layer ledger of one workload: a traced run at 1/5
            size, an untraced run of the same size (their ratio is the
            hook's overhead) and an untraced full-size run for counters
``layers``  the layer probes of ``layers.py``

The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: the traced run does 1/TRACE_DIV of the timed run's iterations
TRACE_DIV = 5


def core_status() -> dict:
    """C-core state; a silent pure-Python run is refused, not measured."""
    from repro._env import env_flag
    from repro.sim import Engine, _speed

    pure = env_flag("REPRO_PURE_ENGINE")
    if _speed.core is None and not pure:
        raise SystemExit(
            "perf: the C engine core is unavailable and REPRO_PURE_ENGINE "
            f"is not set - refusing a silent pure-Python run "
            f"({_speed.build_error})")
    return {"c_core_bound": getattr(Engine(), "_core", None) is not None}


_SMALL = tuple(range(256))


class _Cell:
    __slots__ = ("total", "recent")

    def __init__(self) -> None:
        self.total = 0
        self.recent: list = []

    def step(self, v: int) -> int:
        self.total = (self.total + v) & 255
        recent = self.recent
        recent.append(v)
        if len(recent) > 16:
            recent.clear()
        return self.total


def calibration_slice(rounds: int = 400) -> float:
    """CPU seconds (~10 ms) of a fixed interpreter-bound loop: method
    calls, slot, list and dict traffic - the simulator's own diet - and no
    repo code.  It tells how fast the box is *right now*; a busy
    neighbour slows this loop and the simulator by about the same factor.
    Only cached small ints flow through it, so the state the workload
    leaves the allocator in does not."""
    cell, table = _Cell(), {}
    t0 = time.process_time()
    for _ in range(rounds):
        for v in _SMALL:
            table[v] = cell.step(v)
    return time.process_time() - t0


class SpeedSampler:
    """Takes a calibration slice every 0.1 s (wall clock),
    from a signal handler, *while* the measured code runs.

    The box changes speed on a scale of seconds, so a calibration taken
    before or after a 2 s call says little about the call; slices spread
    through it do (offline, 40 ``knb_small`` calls: quartile spread 9.6 %
    raw, 6.7 % with calibrations at the edges, 3.1 % with these).  The
    handler runs between two bytecodes of the main thread; its own CPU
    time is accounted in ``cpu_s`` so callers can subtract it.
    """

    PERIOD_S = 0.1

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.cpu_s = 0.0

    def _tick(self, _signum: int = 0, _frame: object = None) -> None:
        t0 = time.process_time()
        self.slices.append(calibration_slice())
        self.cpu_s += time.process_time() - t0

    def start(self) -> None:
        self._tick()  # lets the interpreter specialise the loop:
        self.slices.clear()  # accounted for, not kept
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def take(self) -> tuple[float, float]:
        """(mean slice, CPU spent slicing) since the last take; resets."""
        mean = sum(self.slices) / len(self.slices)
        cpu_s, self.slices, self.cpu_s = self.cpu_s, [], 0.0
        return mean, cpu_s


def _timed(workload, inputs, seed: int, div: int):
    """One workload call -> (outcome, CPU seconds, wall seconds)."""
    gc.collect()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    out = workload.run(inputs, seed, div)
    return out, time.process_time() - cpu0, time.perf_counter() - wall0


def mode_run(args) -> dict:
    sampler = SpeedSampler()
    sampler.start()
    core = core_status()
    import workloads as W

    workload = W.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    workload.construct(args.div)
    setup_cal_s, slicing_s = sampler.take()
    setup_s = time.process_time() - slicing_s  # CPU since the interpreter started
    setup_wall_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned
    out, host_s, wall_s = _timed(workload, inputs, args.seed, args.div)
    sampler.stop()
    host_cal_s, slicing_s = sampler.take()
    return {
        "host_s": host_s - slicing_s,
        "wall_s": wall_s - slicing_s,
        "host_cal_s": host_cal_s,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "setup_cal_s": setup_cal_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "app_msgs": workload.app_msgs(args.div),
        "checks": W.generic_checks(workload, out, args.div),
        "sim_checksum": W.sim_checksum(out.sim),
        **core,
    }


def _regcache_hit_rate(stats: list[dict]) -> float:
    """hits / lookups over the registration caches the run consulted.

    mpi reports a hit rate per rank (``UdregCache``), rdma reports hit and
    miss totals (``PinDownCache``); the ugni layer registers through its
    memory pool and consults no cache, which reads as 0 lookups -> 0.0.
    """
    rates = []
    for s in stats:
        per_rank = s.get("udreg_hit_rates")
        if per_rank:
            rates.append(sum(per_rank.values()) / len(per_rank))
        lookups = s.get("pin_hits", 0) + s.get("pin_misses", 0)
        if lookups:
            rates.append(s["pin_hits"] / lookups)
    return sum(rates) / len(rates) if rates else 0.0


def traced_run(workload, inputs, seed: int, checks: dict) -> dict:
    """Source 1: traced vs untraced at the same reduced size."""
    import trace as T
    import workloads as W

    def check(tag: str, out) -> None:
        checks.update({f"{tag}.{k}": ok for k, ok in
                       W.generic_checks(workload, out, TRACE_DIV).items()})

    plain, plain_s, _wall = _timed(workload, inputs, seed, TRACE_DIV)
    check("untraced", plain)
    tracer = T.Tracer()
    gc.collect()
    cpu0 = time.process_time()
    traced = tracer.run(workload.run, inputs, seed, TRACE_DIV)
    traced_s = time.process_time() - cpu0
    check("traced", traced)
    checks["tracing_leaves_sim_unchanged"] = (
        W.sim_checksum(traced.sim) == W.sim_checksum(plain.sim))

    msgs = workload.app_msgs(TRACE_DIV)
    metrics = {f"{layer}.{key}": value
               for layer, values in tracer.per_layer(msgs).items()
               for key, value in values.items()}
    self_sum = sum(v for k, v in metrics.items()
                   if k.endswith(".self_us_per_msg"))
    metrics["total.calls_per_msg"] = sum(tracer.calls) / msgs
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    traced_us_per_msg = tracer.total_s * 1e6 / msgs
    path = os.path.join(HERE, "out", f"trace_{workload.name}.json")
    tracer.write_chrome_trace(path, {
        "workload": workload.name, "seed": seed, "div": TRACE_DIV,
        "app_msgs": msgs, "traced_us_per_msg": traced_us_per_msg})
    return {"metrics": metrics, "traced_us_per_msg": traced_us_per_msg,
            "self_us_per_msg_sum": self_sum,
            "trace_file": os.path.relpath(path)}


def counters(workload, inputs, seed: int, checks: dict) -> dict[str, float]:
    """Source 2: exact counters read after an untraced full-size run."""
    import workloads as W

    out = workload.run(inputs, seed, 1)
    checks.update({f"counters.{k}": ok for k, ok in
                   W.generic_checks(workload, out, 1).items()})
    if not out.machines:
        raise SystemExit("perf: no machine reached engine.bind_machine - "
                         "see workloads.recording_engine")
    msgs = workload.app_msgs(1)
    stats, machines = out.stats, out.machines

    def total(*keys: str) -> int:
        return sum(s.get(k, 0) for s in stats for k in keys)

    delivered = total("delivered")
    return {
        "sim.events_per_msg": sum(
            m.engine.events_executed for m in machines) / msgs,
        # inline/eager/mpi sends are the small path of their fabrics
        "lrts.small_share": total("small_sent", "inline_sent", "eager_sent",
                                  "sent") / delivered,
        "lrts.rendezvous_share": total("rendezvous_sent") / delivered,
        "lrts.intranode_share": total("intranode_sent") / delivered,
        "lrts.retransmits": float(total("rel_retransmits", "rc_retransmits",
                                        "rdma_retransmits")),
        "lrts.post_retries": float(total("post_retries")),
        "memory.pool_expansions": float(total("pool_expansions")),
        "memory.regcache_hit_rate": _regcache_hit_rate(stats),
        "hardware.transfers_per_msg": sum(
            m.network.messages_routed for m in machines) / msgs,
        "hardware.link_bytes_per_msg": sum(
            m.network.total_bytes_carried() for m in machines) / msgs,
    }


def mode_trace(args) -> dict:
    core = core_status()
    import workloads as W

    workload = W.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    checks: dict[str, bool] = {}
    result = traced_run(workload, inputs, args.seed, checks)
    result["metrics"].update(counters(workload, inputs, args.seed, checks))
    result["metrics"]["sim.c_core_bound"] = float(core["c_core_bound"])
    return {**result, "checks": checks, **core}


def mode_layers(args) -> dict:
    core = core_status()
    import layers

    return {"metrics": layers.run_probes(args.window), **core}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("mode", choices=("preflight", "run", "trace", "layers"))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--div", type=int, default=1)
    ap.add_argument("--window", type=float, default=0.5,
                    help="seconds each timed layer probe loops for")
    ap.add_argument("--spawned", type=float,
                    default=time.clock_gettime(time.CLOCK_MONOTONIC),
                    help="parent's CLOCK_MONOTONIC just before the spawn")
    args = ap.parse_args()
    mode = {"preflight": lambda _args: core_status(), "run": mode_run,
            "trace": mode_trace, "layers": mode_layers}
    print(json.dumps(mode[args.mode](args)))


if __name__ == "__main__":
    main()
