"""Pure-MPI ping-pong with the paper's two buffer regimes.

Fig. 9a plots *both* "MPI (same send/recv buffer)" and "MPI (different
send/recv buffer)" because the registration cache makes them diverge above
the rendezvous threshold; ``same_buffer=False`` passes a fresh uDREG key
per call, exactly the access pattern of the MPI-based Charm++ layer.

Each rank is a callback chain of blocking calls: post the request, sleep
through its CPU cost, then wait for its completion.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SimulationError
from repro.hardware.config import MachineConfig
from repro.hardware.machine import Machine
from repro.mpish import MpiRequest, MpiWorld


def mpi_pingpong(
    size: int,
    config: Optional[MachineConfig] = None,
    iters: int = 50,
    warmup: int = 10,
    same_buffer: bool = True,
    intranode: bool = False,
) -> float:
    """One-way pure-MPI latency (seconds)."""
    cfg = config or MachineConfig()
    if intranode:
        m = Machine(n_nodes=1, config=cfg)
    else:
        m = Machine(n_nodes=2, config=cfg.replace(cores_per_node=1))
    world = MpiWorld(m)
    engine = m.engine
    rounds = warmup + iters
    results: list[float] = []

    keys = ("buf0", "buf1") if same_buffer else (None, None)

    def block(posted: tuple[MpiRequest, float],
              k: Callable[[MpiRequest], None]) -> None:
        """MPI_Wait on a just-posted request: pay its CPU, then await it."""
        req, cpu = posted
        engine.post_at(engine.now + cpu, req.on_complete, k)

    def send(rank: int, dst: int, tag: int, k) -> None:
        block(world.isend(rank, dst, tag, size, buf_key=keys[rank]), k)

    def recv(rank: int, src: int, tag: int, k) -> None:
        block(world.irecv(rank, src=src, tag=tag, buf_key=keys[rank]), k)

    t_start = 0.0
    done0 = 0  # round trips rank 0 has completed

    def rank0_round() -> None:
        nonlocal t_start
        if done0 == warmup:
            t_start = engine.now
        send(0, 1, 0, lambda _req: recv(0, 1, 1, rank0_reply))

    def rank0_reply(_req) -> None:
        nonlocal done0
        done0 += 1
        if done0 < rounds:
            rank0_round()
        else:
            results.append((engine.now - t_start) / (2 * iters))

    done1 = 0  # pings rank 1 has answered

    def rank1_round(_req=None) -> None:
        nonlocal done1
        if done1 < rounds:
            done1 += 1
            recv(1, 0, 0, lambda _req: send(1, 0, 1, rank1_round))

    engine.post_at(0.0, rank0_round)
    engine.post_at(0.0, rank1_round)
    engine.run(max_events=10_000_000)
    if not results:
        raise SimulationError("pure-MPI ping-pong did not finish")
    return results[0]
