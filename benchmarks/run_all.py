#!/usr/bin/env python
"""Determinism gate: nine sha256-pinned simulated-metric checksums.

Runs the headline workloads — fig-9 ping-pong (latency + bandwidth),
fig-10 kNeighbor, two engine kernels, the window-audited kNeighbor, the
cross-layer comparison, crash recovery and the two GPU benchmarks — and
emits a ``BENCH_<label>.json`` holding, per benchmark, the **simulated
metrics** and their sha256 **checksum**.  The simulation is
deterministic, so the checksum must be byte-identical across rounds,
``--jobs`` fan-out, engine backends, machines and optimization PRs; any
drift fails the run.  Nothing here is timed: host speed is measured by
``python3 perf/bench.py`` (``perf/README.md``), which is the only
instrument a speed claim may cite.

``--check BASELINE`` compares against a committed baseline JSON:
checksums must match exactly.  Exit status is non-zero on any drift,
which is what CI's one ``run_all.py`` step keys off
(``tests/test_determinism_gate.py`` runs the same check in the suite).
A benchmark present in the current run but absent from the baseline
fails with a message telling you to ``--rebase`` (rewrite the baseline
in place from this run).

``--observe`` runs every benchmark under the observability layer; the
report gains a ``metrics_digest`` per benchmark, gated exactly like the
checksum (a baseline entry without one fails the check).  ``--rebase``
requires ``--observe`` so a rewritten baseline never loses its digests.

``--jobs N`` (or ``REPRO_BENCH_JOBS=N``) fans the rounds out across
worker processes via :mod:`repro.parallel.sweep`.  Each (benchmark,
round) pair is an independent task; results merge in submission order,
so the report is byte-identical to ``--jobs 1``.

Reports always land in the ``benchmarks/`` directory next to this
script, regardless of the working directory — ``--out`` takes a file
name, not a path.

Usage::

    python benchmarks/run_all.py --label local
    python benchmarks/run_all.py --jobs 4 --check benchmarks/BENCH_baseline.json
    python benchmarks/run_all.py --observe --rebase benchmarks/BENCH_baseline.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.apps.collectives_app import run_alltoallv
from repro.apps.gpu_apps import gpu_kneighbor, gpu_pingpong
from repro.apps.kneighbor import kneighbor
from repro.apps.pingpong import charm_pingpong
from repro.hardware.config import MachineConfig
from repro.observe import lane_report
from repro.parallel import ShardedEngine, SweepPoint, resolve_jobs, run_sweep
from repro.sim import Engine
from repro.units import KB, MB

#: bump when the benchmark set or the JSON layout changes incompatibly
SCHEMA = "repro-bench-v1"

#: reports always land here, next to this script
BENCH_DIR = pathlib.Path(__file__).resolve().parent


# --------------------------------------------------------------------- #
# the benchmarks: each returns {metric_name: simulated_value}
# --------------------------------------------------------------------- #
def bench_pingpong() -> dict[str, float]:
    """Fig-9 ping-pong: small/rendezvous latency and large bandwidth."""
    small = charm_pingpong(64, layer="ugni", iters=400)
    rndv = charm_pingpong(64 * KB, layer="ugni", iters=400)
    big = charm_pingpong(1 * MB, layer="ugni", iters=200)
    return {
        "latency_64B_s": small.one_way_latency,
        "latency_64KB_s": rndv.one_way_latency,
        "bandwidth_1MB_Bps": big.bandwidth,
    }


def bench_kneighbor() -> dict[str, float]:
    """Fig-10 kNeighbor iteration time at an SMSG and a rendezvous size."""
    sm = kneighbor(2 * KB, layer="ugni", iters=60)
    lg = kneighbor(256 * KB, layer="ugni", iters=60)
    return {
        "iteration_2KB_s": sm.iteration_time,
        "iteration_256KB_s": lg.iteration_time,
    }


def bench_engine_events(n: int = 200_000) -> dict[str, float]:
    """Raw event-kernel throughput: schedule/execute plus the
    armed-and-cancelled timeout pattern every reliable SMSG produces."""
    eng = Engine()
    count = [0]

    def tick() -> None:
        count[0] += 1
        eng.call_after(1e-6, _noop).cancel()  # timer churn (pool + compaction)
        if count[0] < n:
            eng.call_after(1e-9, tick)

    eng.call_after(1e-9, tick)
    eng.run()
    return {
        "events_executed": float(eng.events_executed),
        "final_now_s": eng.now,
        "ticks": float(n),
    }


def _noop() -> None:
    pass


def _cancel_all(handles: list) -> None:
    for h in handles:
        h.cancel()


def bench_engine_events_mixed(waves: int = 300, width: int = 256) -> dict[str, float]:
    """Mixed engine kernel: batch-armed timer waves plus cancel churn.

    Each wave batch-arms ``width`` homogeneous timers through
    ``call_after_batch``, then arms ``width`` individually cancellable
    timers and cancels two thirds of them — one third immediately and
    one third from a later event (both lazy: the parked cancels drive
    compaction).  This keeps the slab paths the plain
    ``engine_events`` loop never touches — ``post_many``, handle cancel,
    compaction — on the checksum gate.
    """
    eng = Engine()
    state = [0]

    def batch_tick() -> None:
        state[0] += 1

    def wave() -> None:
        eng.call_after_batch([1e-7 + i * 1e-9 for i in range(width)],
                             batch_tick)
        handles = [eng.call_after(2e-7 + i * 1e-9, _noop)
                   for i in range(width)]
        for i in range(0, width, 3):
            handles[i].cancel()
        eng.call_after(1.75e-7, _cancel_all,
                       [handles[i] for i in range(1, width, 3)])
        wave.count += 1
        if wave.count < waves:
            eng.call_after(3e-7, wave)

    wave.count = 0
    eng.call_after(1e-9, wave)
    eng.run()
    return {
        "events_executed": float(eng.events_executed),
        "final_now_s": eng.now,
        "batch_fired": float(state[0]),
        "waves": float(wave.count),
    }


def bench_sharded_kneighbor() -> dict[str, float]:
    """Fig-10 kNeighbor on the sharded engine, diffed against sequential.

    Runs the same config on the sequential engine and a 3-shard
    :class:`ShardedEngine` and requires bit-identical metrics — the
    determinism contract is re-verified on every benchmark run, not just
    in the unit suite.  The emitted metrics fold in the shard counters so
    a change in windowing behaviour shows up as checksum drift.
    """
    seq = kneighbor(2 * KB, layer="ugni", iters=60)
    eng = ShardedEngine(n_shards=3)
    shd = kneighbor(2 * KB, layer="ugni", iters=60, engine=eng)
    if repr(seq.iteration_time) != repr(shd.iteration_time):
        raise RuntimeError(
            f"sharded engine diverged from sequential: "
            f"{seq.iteration_time!r} vs {shd.iteration_time!r}")
    stats = eng.shard_stats()
    if stats["sequential"]:
        raise RuntimeError(
            f"sharded engine fell back to sequential execution "
            f"({stats['fallback_reason']}) — the benchmark measured nothing")
    return {
        "iteration_2KB_s": shd.iteration_time,
        "windows": float(stats["windows"]),
        "exchanged_events": float(stats["exchanged_events"]),
        "lookahead_violations": float(stats["lookahead_violations"]),
    }


def bench_crosslayer() -> dict:
    """Cross-fabric comparison: the same workloads on ugni, mpi, and rdma.

    Ping-pong latency/bandwidth plus the persistent alltoallv on each
    registered layer (rdma runs on a dragonfly machine).  The alltoallv
    content digest must be bit-identical across layers — swapping the
    fabric may only change timing, never results — and is folded into the
    metrics so cross-layer drift shows up as checksum drift.
    """
    fabrics = {
        "ugni": None,
        "mpi": None,
        "rdma": MachineConfig(topology="dragonfly"),
    }
    out: dict = {}
    digests: dict[str, str] = {}
    for layer, cfg in fabrics.items():
        small = charm_pingpong(64, layer=layer, config=cfg, iters=200)
        big = charm_pingpong(512 * KB, layer=layer, config=cfg, iters=100)
        a2a = run_alltoallv(n_pes=8, layer=layer, algorithm="persistent",
                            config=cfg)
        out[f"{layer}_latency_64B_s"] = small.one_way_latency
        out[f"{layer}_bandwidth_512KB_Bps"] = big.bandwidth
        out[f"{layer}_alltoallv_8pe_s"] = a2a.time
        digests[layer] = a2a.digest
    if len(set(digests.values())) != 1:
        raise RuntimeError(
            f"alltoallv results differ across machine layers: {digests}")
    out["alltoallv_digest"] = digests["ugni"]
    return out


def bench_recovery() -> dict:
    """Time-to-recover: the resilience loop under a crash schedule.

    Runs the reference phased app (``repro.resilience``) crash-free and
    under a two-crash :class:`NodeCrash` schedule.  The recovered run's
    result digest must be bit-identical to the crash-free one — that
    digest is folded into the metrics, so any placement- or
    replay-dependence in the recovery path shows up as checksum drift.
    The simulated costs (lost work, restart overhead, checkpoint count)
    are metrics too: a change to the checkpoint cadence or restart model
    is a deliberate, visible baseline change.
    """
    from repro.faults import NodeCrash
    from repro.hardware.config import tiny
    from repro.resilience import PhasedSum, RecoveryPolicy, ResilienceManager

    def run(schedule):
        app = PhasedSum(n_elements=32, rounds=40)
        mgr = ResilienceManager(
            app, n_nodes=8, layer="ugni", config=tiny(cores_per_node=1),
            seed=11, policy=RecoveryPolicy(checkpoint_interval=60e-6),
            crash_schedule=schedule)
        return mgr.run()

    clean = run([])
    crashed = run([NodeCrash(at=150e-6, node_id=3),
                   NodeCrash(at=700e-6, node_id=1),
                   NodeCrash(at=1500e-6, node_id=4)])
    if crashed.result["digest"] != clean.result["digest"]:
        raise RuntimeError(
            f"recovered run diverged from crash-free run: "
            f"{crashed.result['digest']} vs {clean.result['digest']}")
    return {
        "result_digest": crashed.result["digest"],
        "sim_time_clean_s": clean.sim_time_s,
        "sim_time_crashed_s": crashed.sim_time_s,
        "lost_work_s": crashed.lost_work_s,
        "restart_cost_s": crashed.restart_cost_s,
        "checkpoints": float(crashed.checkpoints),
        "restarts": float(crashed.restarts),
        "n_pes_final": float(crashed.n_pes_final),
    }


def bench_gpu_crossover() -> dict:
    """Choi-style staged-vs-GPUDirect latency sweep across the crossover.

    Runs the GPU ping-pong at sizes straddling ``gpu_staged_crossover``
    on every transport and enforces the protocol-selection contract:
    staged must win below the crossover, direct above, ``auto`` must
    match the winner exactly, and the receive-side content digest must
    be bit-identical across transports — the protocol choice may change
    timing only.  Any violation raises, failing the benchmark run.
    """
    crossover = MachineConfig().gpu_staged_crossover
    sizes = {"2KB": 2 * KB, "8KB": 8 * KB,
             "128KB": 128 * KB, "512KB": 512 * KB}
    out: dict = {}
    for tag, size in sizes.items():
        lat: dict[str, float] = {}
        digests: dict[str, str] = {}
        for transport in ("staged", "direct", "auto"):
            r = gpu_pingpong(size, layer="ugni", transport=transport,
                             iters=20)
            lat[transport] = r.one_way_latency
            digests[transport] = r.digest
        if len(set(digests.values())) != 1:
            raise RuntimeError(
                f"gpu ping-pong results differ across transports at "
                f"{tag}: {digests}")
        winner = "staged" if lat["staged"] < lat["direct"] else "direct"
        expected = "staged" if size < crossover else "direct"
        if winner != expected:
            raise RuntimeError(
                f"gpu crossover inverted at {tag}: {expected} should win "
                f"below/above {crossover}B but timings say {winner} "
                f"({lat})")
        if repr(lat["auto"]) != repr(lat[winner]):
            raise RuntimeError(
                f"auto transport did not match the winning protocol at "
                f"{tag}: auto={lat['auto']!r} {winner}={lat[winner]!r}")
        out[f"staged_{tag}_s"] = lat["staged"]
        out[f"direct_{tag}_s"] = lat["direct"]
        out[f"digest_{tag}"] = digests["auto"]
    return out


def bench_gpu_kneighbor() -> dict:
    """GPU kNeighbor: device payloads with kernel/communication overlap.

    The staged run's content digest must match the auto run's — same
    transport-invariance contract as the crossover sweep, exercised on
    a many-to-many pattern with the kernel-occupancy model engaged.
    """
    sm = gpu_kneighbor(2 * KB, layer="ugni", transport="auto", iters=30)
    lg = gpu_kneighbor(256 * KB, layer="ugni", transport="auto", iters=30)
    staged = gpu_kneighbor(256 * KB, layer="ugni", transport="staged",
                           iters=30)
    if staged.digest != lg.digest:
        raise RuntimeError(
            f"gpu kNeighbor results differ across transports: "
            f"staged {staged.digest} vs auto {lg.digest}")
    return {
        "iteration_2KB_s": sm.iteration_time,
        "iteration_256KB_s": lg.iteration_time,
        "iteration_256KB_staged_s": staged.iteration_time,
        "result_digest": lg.digest,
    }


BENCHMARKS = {
    "pingpong": bench_pingpong,
    "kneighbor": bench_kneighbor,
    "engine_events": bench_engine_events,
    "engine_events_mixed": bench_engine_events_mixed,
    "sharded_kneighbor": bench_sharded_kneighbor,
    "crosslayer": bench_crosslayer,
    "recovery": bench_recovery,
    "gpu_crossover": bench_gpu_crossover,
    "gpu_kneighbor": bench_gpu_kneighbor,
}


# --------------------------------------------------------------------- #
# run machinery
# --------------------------------------------------------------------- #
def checksum(sim: dict[str, float]) -> str:
    """sha256 over the full-precision reprs, order-independent."""
    blob = ";".join(f"{k}={v!r}" for k, v in sorted(sim.items()))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def _run_round(name: str) -> dict:
    """One round of one benchmark — the parallel work unit.

    Under ``--sanitize`` / ``REPRO_SANITIZE=1`` every machine the round
    builds carries a lifecycle sanitizer; this runs in each worker
    process, so the audit also covers ``--jobs N`` fan-out.

    Under ``--observe`` / ``REPRO_OBSERVE=1`` every machine also carries
    an observer; the round returns the merged metrics snapshot and its
    sha256 digest, which must be identical across rounds, ``--jobs``
    fan-out, and sequential-vs-sharded execution.
    """
    from repro import observe, sanitize

    sanitize.clear_registry()  # audit only this round
    observing = observe.observe_requested()
    if observing:
        observe.clear_registry()  # meter only this round
    sim = BENCHMARKS[name]()
    if sanitize.sanitize_requested():
        sanitize.assert_clean(f"benchmark {name}")
        sanitize.clear_registry()
    out = {"sim": sim, "checksum": checksum(sim)}
    if observing:
        snap = observe.collect_snapshot()
        out["metrics_digest"] = observe.metrics_digest(snapshot=snap)
        out["metrics"] = snap
        observe.clear_registry()
    return out


def _aggregate(name: str, round_results: list[dict]) -> dict:
    sums = {r["checksum"] for r in round_results}
    if len(sums) != 1:
        raise RuntimeError(
            f"{name}: simulated metrics differed across rounds — the "
            f"simulation is no longer deterministic: {sorted(sums)}")
    entry = {"sim": round_results[-1]["sim"], "checksum": sums.pop()}
    digests = {r["metrics_digest"] for r in round_results
               if "metrics_digest" in r}
    if len(digests) > 1:
        raise RuntimeError(
            f"{name}: observer metrics digest differed across rounds — "
            f"the metrics are no longer deterministic: {sorted(digests)}")
    if digests:
        entry["metrics_digest"] = digests.pop()
        entry["metrics"] = round_results[-1]["metrics"]
    return entry


def run_benchmark(name: str, rounds: int) -> dict:
    """Sequential rounds of one benchmark (the ``--jobs 1`` work loop)."""
    return _aggregate(name, [_run_round(name) for _ in range(rounds)])


def run_all(rounds: int, label: str, jobs: int | None = None) -> dict:
    n_jobs = resolve_jobs(jobs)
    report: dict = {
        "schema": SCHEMA,
        "label": label,
        "rounds": rounds,
        "jobs": n_jobs,
        "benchmarks": {},
    }
    # every (benchmark, round) pair is one task; run_sweep returns them
    # in submission order, so slicing by benchmark reassembles exactly
    # the sequence a --jobs 1 run produces
    points = [SweepPoint(_run_round, (name,), label=f"{name}[{i}]")
              for name in BENCHMARKS for i in range(rounds)]
    print(f"[bench] {lane_report()}")
    print(f"[bench] {len(points)} rounds across {len(BENCHMARKS)} benchmarks "
          f"(jobs={n_jobs}) ...", flush=True)
    results = run_sweep(points, jobs=n_jobs)
    # a nondeterministic benchmark must not hide drift in the ones after
    # it: aggregate them all, then fail once listing every offender
    drifted: list[str] = []
    for bi, name in enumerate(BENCHMARKS):
        try:
            entry = _aggregate(name, results[bi * rounds:(bi + 1) * rounds])
        except RuntimeError as exc:
            drifted.append(str(exc))
            print(f"[bench] {name}: NONDETERMINISTIC", flush=True)
            continue
        report["benchmarks"][name] = entry
        print(f"[bench] {name}: {entry['checksum'][:23]}", flush=True)
    if drifted:
        raise RuntimeError(
            "simulation no longer deterministic in "
            f"{len(drifted)} benchmark(s):\n  " + "\n  ".join(drifted))
    return report


# --------------------------------------------------------------------- #
# parity check against a committed baseline
# --------------------------------------------------------------------- #
def compare(report: dict, baseline: dict) -> list[str]:
    """Return a list of human-readable failures (empty = pass)."""
    failures = []
    if baseline.get("schema") != report["schema"]:
        failures.append(
            f"schema mismatch: baseline {baseline.get('schema')!r} vs "
            f"current {report['schema']!r} — regenerate the baseline")
        return failures
    base_benchmarks = baseline.get("benchmarks", {})
    for name in sorted(set(base_benchmarks) | set(report["benchmarks"])):
        base = base_benchmarks.get(name)
        cur = report["benchmarks"].get(name)
        if base is None:
            failures.append(
                f"{name}: missing from baseline — run with --rebase to "
                f"record it")
            continue
        if cur is None:
            failures.append(f"{name}: benchmark missing from current run")
            continue
        if cur["checksum"] != base.get("checksum"):
            failures.append(
                f"{name}: simulated-metric checksum drifted "
                f"({str(base.get('checksum'))[:23]}… -> {cur['checksum'][:23]}…) — "
                f"an optimization changed simulation results")
        # only an --observe run carries a digest, and then the baseline
        # must pin it: an unrecorded digest is a gate that checks nothing
        base_digest = base.get("metrics_digest")
        cur_digest = cur.get("metrics_digest")
        if cur_digest is None or cur_digest == base_digest:
            continue
        if base_digest is None:
            failures.append(
                f"{name}: baseline has no metrics_digest — run with "
                f"--observe --rebase to record it")
        else:
            failures.append(
                f"{name}: observer metrics digest drifted "
                f"({base_digest[:12]}… -> {cur_digest[:12]}…) — a change "
                f"altered what the observability layer measures")
    return failures


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", default=None, metavar="NAME",
                   help="report file name (default: BENCH_<label>.json); "
                        "always written into the benchmarks/ directory")
    p.add_argument("--label", default="local", help="report label")
    p.add_argument("--rounds", type=int, default=2,
                   help="rounds per benchmark; two is what the "
                        "across-round determinism check needs "
                        "(default: %(default)s)")
    p.add_argument("--check", metavar="BASELINE",
                   help="baseline JSON to compare against; exit 1 on "
                        "checksum or metrics-digest drift")
    p.add_argument("--rebase", metavar="BASELINE",
                   help="write this run as the new baseline JSON "
                        "(requires --observe, so no digest is lost)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for the rounds "
                        "(default: $REPRO_BENCH_JOBS or 1; 0 = all cores)")
    p.add_argument("--sanitize", action="store_true",
                   help="run every benchmark under the lifecycle sanitizer "
                        "(sets REPRO_SANITIZE=1; fails on any violation)")
    p.add_argument("--observe", action="store_true",
                   help="run every benchmark under the observability layer "
                        "(sets REPRO_OBSERVE=1): the report gains a "
                        "metrics_digest per benchmark and an "
                        "OBSERVE_<label>.jsonl artifact holds the full "
                        "metrics snapshots. Simulated checksums are "
                        "unaffected.")
    args = p.parse_args(argv)

    if args.sanitize:
        os.environ["REPRO_SANITIZE"] = "1"
    if args.observe:
        os.environ["REPRO_OBSERVE"] = "1"

    if args.rebase and not args.observe:
        raise SystemExit(
            "--rebase without --observe would drop every metrics_digest "
            "from the baseline; rebase with --observe")
    report = run_all(args.rounds, args.label, jobs=args.jobs)

    # full metrics snapshots go to the JSONL artifact, not the report —
    # the report (and any baseline rebased from it) keeps only the digest
    observe_rows = []
    for name, entry in report["benchmarks"].items():
        metrics = entry.pop("metrics", None)
        if metrics is not None:
            observe_rows.append({
                "benchmark": name,
                "label": args.label,
                "metrics_digest": entry["metrics_digest"],
                "metrics": metrics,
            })
    # artifacts land in benchmarks/ no matter where the harness was
    # invoked from — a bare --out NAME must not scatter reports around
    # the tree (a stray report at the repo root is how this rule got here)
    out_name = args.out if args.out else f"BENCH_{args.label}.json"
    out_path = BENCH_DIR / pathlib.Path(out_name).name
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench] wrote {out_path}")
    if observe_rows:
        from repro.observe import write_metrics_jsonl
        obs_path = out_path.with_name(f"OBSERVE_{args.label}.jsonl")
        with open(obs_path, "w") as fh:
            write_metrics_jsonl(observe_rows, fh)
        print(f"[bench] wrote {obs_path}")

    if args.rebase:
        pathlib.Path(args.rebase).write_text(
            json.dumps(report, indent=2) + "\n")
        print(f"[bench] rebased baseline {args.rebase}")

    if args.check:
        baseline = json.loads(pathlib.Path(args.check).read_text())
        failures = compare(report, baseline)
        if failures:
            print(f"[bench] PARITY FAILED vs {args.check}:")
            for f in failures:
                print(f"  - {f}")
            return 1
        print(f"[bench] parity OK vs {args.check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
