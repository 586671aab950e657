"""One-sided transactions: ``GNI_PostFma`` and ``GNI_PostRdma``.

A :class:`PostDescriptor` names registered memory on both sides (exactly
the information the paper's rendezvous control message carries: "memory
address, memory handler and size", §III.C).  The engine validates both
registrations, hands the transfer to the right NIC unit, and reports one
completion when the transaction completes locally: the engine's one
consumer, :attr:`RdmaEngine.on_complete`, gets the descriptor back (the
``GNI_CqGetEvent`` + ``GNI_GetCompleted`` pair), with ``failed`` set for
a fault-injected transaction error.  The target sees **no** event — for a
GET, the uGNI property that forces the paper's ACK_TAG message.

Completions are bound methods plus arguments handed to the NIC, never
closures: nothing a post schedules holds a cell that points back at its
descriptor, so a completed descriptor is freed by reference counting
(DESIGN §16, "the large-message path").
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.errors import SimulationError, UgniInvalidParam
from repro.faults.injector import RDMA_ERROR_PROGRESS
from repro.hardware.machine import Machine
from repro.hardware.nic import BTE_GET, BTE_PUT, FMA_GET, FMA_PUT
from repro.ugni.memreg import MemHandle, RegistrationTable
from repro.ugni.types import PUT, PostType

_desc_ids = itertools.count()


class PostDescriptor:
    """Everything GNI needs to execute one FMA/BTE transaction."""

    __slots__ = ("post_type", "local_mem", "remote_mem", "length",
                 "local_addr", "remote_addr", "context", "id")

    def __init__(self, post_type: PostType, local_mem: MemHandle,
                 remote_mem: MemHandle, length: int,
                 local_addr: Optional[int] = None,
                 remote_addr: Optional[int] = None):
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
        #: opaque poster context, set by the poster and handed back with
        #: the descriptor at completion (``GNI_GetCompleted``); must not
        #: refer to the descriptor itself
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
        #: the one consumer of every local completion, ``(desc, t,
        #: failed)``: set once by its owner; the default refuses it
        self.on_complete: Callable[[PostDescriptor, float, bool], None] = (
            self._unconsumed)

    def post(self, initiator_node: int, desc: PostDescriptor,
             fma: Optional[bool] = None, at: Optional[float] = None) -> float:
        """``GNI_PostFma`` (``fma=True``) / ``GNI_PostRdma`` (``False``);
        ``None`` picks the unit by size, the paper's §III.C policy: FMA
        below ``fma_bte_crossover`` (and within ``fma_max_bytes``), BTE
        from there.

        Returns initiator CPU seconds.
        """
        machine = self.machine
        length = desc.length
        if fma is None:
            cfg = machine.config
            fma = length < cfg.fma_bte_crossover and length <= cfg.fma_max_bytes
        san = machine.sanitizer
        if san is not None:
            # post-time use-after-free screen, recorded before the
            # registration table's own loud validation below
            san.on_rdma_check(desc, initiator_node)
        local, remote = desc.local_mem, desc.remote_mem
        if local.node_id != initiator_node:
            raise UgniInvalidParam(
                f"local_mem is on node {local.node_id}, "
                f"posted from node {initiator_node}"
            )
        peer_id = remote.node_id
        registrations = self.registrations
        registrations[initiator_node].check(local, desc.local_addr, length)
        registrations[peer_id].check(remote, desc.remote_addr, length)
        node = machine.nodes[initiator_node]
        peer = machine.nodes[peer_id]
        put = desc.post_type is PUT

        if fma:
            kind = FMA_PUT if put else FMA_GET
        else:
            kind = BTE_PUT if put else BTE_GET

        faults = machine.faults
        if (faults is not None and peer_id != initiator_node
                and faults.rdma_fails(initiator_node, peer_id)):
            return self._post_failed(node, peer, desc, kind, at)

        token = (san.on_rdma_post(desc, initiator_node)
                 if san is not None else None)
        if peer_id == initiator_node:
            # local post: loopback path, still a local completion
            return node.nic.loopback_send(
                length, self._complete, desc, False, token, at=at)
        return node.nic.post_transfer(
            kind, peer.coord, length,
            on_local_cq=self._complete, local_args=(desc, False, token),
            at=at)

    # -- completions (engine context; bound methods, never closures) ----------
    def _complete(self, t: float, desc: PostDescriptor, failed: bool,
                  token: Optional[int]) -> None:
        """Local completion: retire the sanitizer's shadow transaction,
        mark the arrival for the observer, then hand the descriptor to
        the consumer."""
        machine = self.machine
        if token is not None:
            machine.sanitizer.on_rdma_retire(token, t)
        obs = machine.observer
        if obs is not None:
            obs.on_arrive(desc, "post", t)
        self.on_complete(desc, t, failed)

    def _unconsumed(self, desc: PostDescriptor, t: float,
                    failed: bool) -> None:
        raise SimulationError(
            f"post {desc.id} completed at t={t!r} and nothing consumes it "
            f"(set RdmaEngine.on_complete)")

    def _post_failed(self, node, peer, desc: PostDescriptor, kind,
                     at: Optional[float]) -> float:
        """Fault-injected transaction: error completion instead of data."""
        san = self.machine.sanitizer
        token = san.on_rdma_post(desc, node.node_id) if san is not None else None
        return node.nic.failed_transfer(
            kind, peer.coord, desc.length, self._complete, desc, True, token,
            frac=RDMA_ERROR_PROGRESS, at=at)
