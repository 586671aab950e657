"""One-sided transactions: ``GNI_PostFma`` and ``GNI_PostRdma``.

A :class:`PostDescriptor` names registered memory on both sides (exactly
the information the paper's rendezvous control message carries: "memory
address, memory handler and size", §III.C).  The engine validates both
registrations, hands the transfer to the right NIC unit, and pushes one
completion event: a ``POST_DONE`` entry on the initiator's source CQ when
the transaction completes locally.  The target sees **no** event — for a
GET, the uGNI property that forces the paper's ACK_TAG message.

Completions are bound methods plus arguments handed to the NIC, never
closures: nothing a post schedules holds a cell that points back at its
descriptor, so a completed descriptor is freed by reference counting
(DESIGN §16, "the large-message path").
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.errors import UgniInvalidParam
from repro.faults.injector import RDMA_ERROR_PROGRESS
from repro.hardware.machine import Machine
from repro.hardware.nic import TransferKind
from repro.ugni.cq import CompletionQueue, CqEntry
from repro.ugni.memreg import MemHandle, RegistrationTable
from repro.ugni.types import CqEventKind, PostType

_desc_ids = itertools.count()


class PostDescriptor:
    """Everything GNI needs to execute one FMA/BTE transaction."""

    __slots__ = ("post_type", "local_mem", "remote_mem", "length",
                 "local_addr", "remote_addr", "src_cq", "context", "id")

    def __init__(self, post_type: PostType, local_mem: MemHandle,
                 remote_mem: MemHandle, length: int,
                 local_addr: Optional[int] = None,
                 remote_addr: Optional[int] = None,
                 src_cq: Optional[CompletionQueue] = None):
        self.id = next(_desc_ids)
        if length <= 0:
            raise UgniInvalidParam(f"post length must be positive, got {length}")
        self.post_type = post_type
        self.local_mem = local_mem
        self.remote_mem = remote_mem
        self.length = length
        #: both addresses default to the region start
        self.local_addr = local_mem.addr if local_addr is None else local_addr
        self.remote_addr = remote_mem.addr if remote_addr is None else remote_addr
        #: CQ for the local POST_DONE event
        self.src_cq = src_cq
        #: opaque poster context, set by the poster and handed back with
        #: the completion event's descriptor (``GNI_GetCompleted``); must
        #: not refer to the descriptor itself
        self.context = None

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<PostDescriptor #{self.id} {self.post_type.name} "
                f"{self.length} B node {self.local_mem.node_id}"
                f"->{self.remote_mem.node_id}>")


class RdmaEngine:
    """Executes post descriptors against the simulated NICs."""

    def __init__(self, machine: Machine, registrations: dict[int, RegistrationTable]):
        self.machine = machine
        #: node_id -> registration table (owned by the NIC handle layer)
        self.registrations = registrations
        self.posts_completed = 0
        #: posts that ended in a fault-injected ``ERROR`` completion
        self.posts_failed = 0

    def _validate(self, desc: PostDescriptor, initiator_node: int,
                  length: int) -> None:
        local, remote = desc.local_mem, desc.remote_mem
        if local.node_id != initiator_node:
            raise UgniInvalidParam(
                f"local_mem is on node {local.node_id}, "
                f"posted from node {initiator_node}"
            )
        registrations = self.registrations
        registrations[local.node_id].check(local, desc.local_addr, length)
        registrations[remote.node_id].check(remote, desc.remote_addr, length)

    def post(self, initiator_node: int, desc: PostDescriptor, fma: bool,
             at: Optional[float] = None) -> float:
        """``GNI_PostFma`` (``fma=True``) / ``GNI_PostRdma``.

        Returns initiator CPU seconds.
        """
        machine = self.machine
        san = machine.sanitizer
        if san is not None:
            # post-time use-after-free screen, recorded before the
            # registration table's own loud validation below
            san.on_rdma_check(desc, initiator_node)
        self._validate(desc, initiator_node, desc.length)
        node = machine.nodes[initiator_node]
        peer = machine.nodes[desc.remote_mem.node_id]
        put = desc.post_type is PostType.PUT

        if fma:
            kind = TransferKind.FMA_PUT if put else TransferKind.FMA_GET
        else:
            kind = TransferKind.BTE_PUT if put else TransferKind.BTE_GET

        faults = machine.faults
        if (faults is not None and peer.node_id != node.node_id
                and faults.rdma_fails(node.node_id, peer.node_id)):
            return self._post_failed(node, peer, desc, kind, at)

        token = (san.on_rdma_post(desc, initiator_node)
                 if san is not None else None)
        if peer.node_id == node.node_id:
            # local post: loopback path, still generates a local CQ event
            return node.nic.loopback_send(
                desc.length, self._complete, desc, CqEventKind.POST_DONE,
                token, at=at)
        return node.nic.post_transfer(
            kind, peer.coord, desc.length,
            on_local_cq=self._complete,
            local_args=(desc, CqEventKind.POST_DONE, token), at=at)

    # -- completions (engine context; bound methods, never closures) ----------
    def _complete(self, t: float, desc: PostDescriptor, kind: CqEventKind,
                  token: Optional[int]) -> None:
        """Local completion: retire the sanitizer's shadow transaction and
        push ``kind`` (``POST_DONE`` / ``ERROR``) on the source CQ."""
        if token is not None:
            self.machine.sanitizer.on_rdma_retire(token, t)
        if kind is CqEventKind.POST_DONE:
            self.posts_completed += 1
        cq = desc.src_cq
        if cq is not None:
            cq.push(CqEntry(kind, t, desc.id, desc, desc.local_mem.node_id))

    def _post_failed(self, node, peer, desc: PostDescriptor, kind,
                     at: Optional[float]) -> float:
        """Fault-injected transaction: error completion instead of data."""
        self.posts_failed += 1
        san = self.machine.sanitizer
        token = san.on_rdma_post(desc, node.node_id) if san is not None else None
        return node.nic.failed_transfer(
            kind, peer.coord, desc.length, self._complete,
            desc, CqEventKind.ERROR, token,
            frac=RDMA_ERROR_PROGRESS, at=at)

    def post_best(self, initiator_node: int, desc: PostDescriptor,
                  at: Optional[float] = None) -> float:
        """Post using the size-appropriate unit (paper §III.C policy)."""
        # cfg.rdma_kind_for(length) == "fma", inlined
        cfg = self.machine.config
        fma = (desc.length < cfg.fma_bte_crossover
               and desc.length <= cfg.fma_max_bytes)
        return self.post(initiator_node, desc, fma, at)
