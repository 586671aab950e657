"""FMA/BTE PUT/GET one-way latency (paper Fig. 4).

A single pre-registered transfer per measurement: the hardware curves the
runtime's size-based engine selection (paper §III.C) is derived from.
"""

from __future__ import annotations

from typing import Optional

from repro.hardware.config import MachineConfig
from repro.hardware.machine import Machine
from repro.hardware.nic import TransferKind
from repro.ugni.api import GniJob
from repro.ugni.cq import CompletionQueue
from repro.ugni.rdma import PostDescriptor
from repro.ugni.types import PostType

KINDS = {
    "fma_put": (TransferKind.FMA_PUT, PostType.PUT, True),
    "fma_get": (TransferKind.FMA_GET, PostType.GET, True),
    "bte_put": (TransferKind.BTE_PUT, PostType.PUT, False),
    "bte_get": (TransferKind.BTE_GET, PostType.GET, False),
}


def fma_bte_latency(kind: str, size: int,
                    config: Optional[MachineConfig] = None) -> float:
    """One-way latency of a single ``kind`` transfer of ``size`` bytes."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {sorted(KINDS)}, got {kind!r}")
    transfer_kind, post_type, fma = KINDS[kind]
    cfg = (config or MachineConfig()).replace(cores_per_node=1)
    m = Machine(n_nodes=2, config=cfg)
    gni = GniJob(m)
    blk0, h0, _ = gni.registrations.malloc_registered(0, size)
    blk1, h1, _ = gni.registrations.malloc_registered(1, size)
    done: list[float] = []

    if post_type is PostType.PUT:
        # latency = data landing at the remote side
        m.nodes[0].nic.post_transfer(
            transfer_kind, m.nodes[1].coord, size,
            on_remote_data=done.append, at=0.0)
    else:
        # latency = data landing locally (local CQ event)
        cq = CompletionQueue(m.engine)
        desc = PostDescriptor(post_type, local_mem=h0, remote_mem=h1,
                              length=size, src_cq=cq)
        cq.on_event = lambda q: done.append(q.get_event().time)
        gni.rdma.post(0, desc, fma=fma, at=0.0)
    m.engine.run()
    assert done, f"{kind} transfer never completed"
    return done[0]

