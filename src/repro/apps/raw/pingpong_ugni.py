"""Pure-uGNI ping-pong: the best case any runtime can approach.

Written the way the paper's native benchmark would be: both sides
pre-allocate and pre-register their buffers once (outside the timed loop),
small messages go through SMSG, large messages are a single best-kind PUT
into the peer's known registered buffer with a remote-data CQ event — no
control messages, no allocation, no runtime.

Each rank is a callback chain: a send, a sleep through its CPU cost, then
a wait for the peer's reply, which the arrival resumes.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SimulationError
from repro.hardware.config import MachineConfig
from repro.hardware.machine import Machine
from repro.ugni.api import GniJob


def ugni_pingpong(
    size: int,
    config: Optional[MachineConfig] = None,
    iters: int = 50,
    warmup: int = 10,
) -> float:
    """One-way pure-uGNI latency between two nodes (seconds)."""
    cfg = (config or MachineConfig()).replace(cores_per_node=1)
    m = Machine(n_nodes=2, config=cfg)
    gni = GniJob(m)
    engine = m.engine
    rounds = warmup + iters

    use_smsg = size <= gni.smsg.max_size
    if not use_smsg:
        # pre-register both buffers (outside the measurement, as the
        # benchmark reuses one buffer per side)
        gni.registrations.malloc_registered(0, size)
        gni.registrations.malloc_registered(1, size)

    results: list[float] = []
    #: per PE, the continuation waiting for the next arrival (or None)
    waiting: list[Optional[Callable[[], None]]] = [None, None]

    def wait_arrival(pe: int, k: Callable[[], None]) -> None:
        waiting[pe] = k

    def arrive(pe: int) -> None:
        k = waiting[pe]
        if k is None:
            raise SimulationError(
                f"pure-uGNI ping-pong: an arrival at PE {pe} found no waiter")
        waiting[pe] = None
        k()

    def send(pe_from: int, pe_to: int, k: Callable[[], None]) -> None:
        """Issue one transfer, then run ``k`` once its CPU cost is paid."""
        if use_smsg:
            cpu = gni.smsg.send(pe_from, pe_to, tag=0, nbytes=size,
                                at=engine.now)
        else:
            node = m.nodes[pe_from]
            kind = node.nic.best_kind(size, put=True)
            cpu = node.nic.post_transfer(
                kind, m.nodes[pe_to].coord, size,
                on_remote_data=lambda _t: arrive(pe_to), at=engine.now)
        engine.post_at(engine.now + cpu, k)

    if use_smsg:
        # every SMSG arrival: consume it and resume its receiver's waiter
        def on_rx(msg) -> None:
            gni.smsg.consume(msg)
            arrive(msg.dst_pe)

        gni.smsg.on_rx = on_rx

    t_start = 0.0
    done0 = 0  # round trips rank 0 has completed

    def rank0_round() -> None:
        nonlocal t_start
        if done0 == warmup:
            t_start = engine.now
        send(0, 1, lambda: wait_arrival(0, rank0_reply))

    def rank0_reply() -> None:
        nonlocal done0
        done0 += 1
        if done0 < rounds:
            rank0_round()
        else:
            results.append((engine.now - t_start) / (2 * iters))

    done1 = 0  # pings rank 1 has answered

    def rank1_wait() -> None:
        if done1 < rounds:
            wait_arrival(1, rank1_answer)

    def rank1_answer() -> None:
        nonlocal done1
        done1 += 1
        send(1, 0, rank1_wait)

    engine.post_at(0.0, rank0_round)
    engine.post_at(0.0, rank1_wait)
    engine.run(max_events=10_000_000)
    if not results:
        raise SimulationError("pure-uGNI ping-pong did not finish")
    return results[0]
