"""Collective benchmarks: alltoallv / allgather across machine layers.

Drives :class:`repro.converse.collectives.CollectiveEngine` end-to-end on
any registered layer.  Each run returns a content digest over the data
every rank received — the digest is *bit-identical* across layers and
algorithms (tree vs persistent), so the cross-layer benchmark can assert
that swapping the fabric or the transport changes timing only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.converse.collectives import CollectiveEngine
from repro.converse.scheduler import Message, PE
from repro.errors import CharmError
from repro.faults import FaultConfig
from repro.hardware.config import MachineConfig
from repro.lrts.factory import make_runtime


@dataclass
class CollectiveResult:
    op: str
    n_pes: int
    layer: str
    algorithm: str
    #: completion time of the slowest rank (simulated seconds)
    time: float
    #: sha256 over every rank's received items — layer/algorithm invariant
    digest: str
    #: ranks that finished (== n_pes unless faults killed some)
    completed: int
    stats: dict[str, Any] = field(default_factory=dict)


#: the smallest contribution; the others are two and three times it
BASE_BYTES = 2048


def _part(src: int, dst: int) -> tuple[int, str]:
    """A genuinely 'v' (variable-size) contribution from src to dst."""
    return BASE_BYTES * (1 + (src + 2 * dst) % 3), f"{src}->{dst}"


def _digest(results: dict[int, dict[int, tuple[int, Any]]]) -> str:
    canon = repr(sorted((rank, sorted(items.items()))
                        for rank, items in results.items()))
    return hashlib.sha256(canon.encode()).hexdigest()


def _run(op: str, n_pes: int, layer: str, algorithm: str,
         config: Optional[MachineConfig], seed: int = 0,
         faults: Optional[FaultConfig] = None) -> CollectiveResult:
    cfg = (config or MachineConfig()).replace(cores_per_node=1)
    conv, lrts = make_runtime(n_nodes=n_pes, layer=layer, config=cfg,
                              seed=seed, faults=faults)
    coll = CollectiveEngine(conv, algorithm=algorithm)
    results: dict[int, dict[int, tuple[int, Any]]] = {}
    done_at: dict[int, float] = {}

    def finish(pe: PE, items: dict[int, tuple[int, Any]]) -> None:
        results[pe.rank] = items
        done_at[pe.rank] = pe.vtime

    def start(pe: PE, _msg: Message) -> None:
        if op == "alltoallv":
            parts = {dst: _part(pe.rank, dst) for dst in range(n_pes)}
            coll.alltoallv(pe, "bench", parts, finish)
        else:
            nbytes = BASE_BYTES * (1 + pe.rank % 3)
            coll.allgather(pe, "bench", nbytes, f"from-{pe.rank}", finish)

    hid = conv.register_handler(start)
    conv.broadcast_from_outside(
        lambda rank: Message(handler=hid, src_pe=rank, dst_pe=rank, nbytes=0))
    conv.run(max_events=50_000_000)
    if conv.machine.faults is None and len(results) != n_pes:
        raise CharmError(
            f"{op} incomplete: {len(results)}/{n_pes} ranks finished")
    stats = lrts.stats()
    if conv.machine.faults is not None:
        stats["faults"] = conv.machine.faults.stats()
    return CollectiveResult(
        op=op, n_pes=n_pes, layer=layer, algorithm=algorithm,
        time=max(done_at.values()) if done_at else 0.0,
        digest=_digest(results), completed=len(results), stats=stats)


def run_alltoallv(
    n_pes: int = 8,
    layer: str = "ugni",
    algorithm: str = "tree",
    config: Optional[MachineConfig] = None,
    seed: int = 0,
    faults: Optional[FaultConfig] = None,
) -> CollectiveResult:
    """Every rank sends a variable-size part to every other rank."""
    return _run("alltoallv", n_pes, layer, algorithm, config, seed, faults)


def run_allgather(
    n_pes: int = 8,
    layer: str = "ugni",
    algorithm: str = "tree",
    config: Optional[MachineConfig] = None,
) -> CollectiveResult:
    """Every rank contributes one variable-size item; all ranks get all."""
    return _run("allgather", n_pes, layer, algorithm, config)
