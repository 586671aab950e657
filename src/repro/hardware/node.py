"""A compute node: cores, memory, and its Gemini NIC attachment."""

from __future__ import annotations

from functools import cached_property

from repro.hardware.config import MachineConfig
from repro.hardware.memory import NodeMemory
from repro.hardware.nic import GeminiNIC
from repro.hardware.topology import Coord


class Node:
    """One XE6 compute node (2× 12-core Magny-Cours on Hopper).

    ``memory`` and ``gpus`` are built by the first read
    and are plain attributes from then on: a node nobody allocates on
    keeps no allocator.
    """

    def __init__(
        self,
        node_id: int,
        coord: Coord,
        config: MachineConfig,
        nic: GeminiNIC,
    ):
        self.node_id = node_id
        self.coord = coord
        self.config = config
        self.nic = nic
        #: first PE (global rank) hosted on this node; set by Machine
        self.first_pe = 0
        #: number of PEs on this node
        self.n_pes = config.cores_per_node
        #: cleared by the fault injector when this node crashes; the
        #: runtime halts the node's PEs and peers see their traffic to it
        #: fail with transaction errors
        self.alive = True

    @cached_property
    def memory(self) -> NodeMemory:
        return NodeMemory(self.node_id, self.config.node_memory_bytes)

    @cached_property
    def gpus(self) -> list:
        """Accelerators attached to this node; populated by Machine when
        ``config.gpus_per_node > 0`` (empty list otherwise)."""
        return []

    def pes(self) -> range:
        """Global PE ranks hosted on this node."""
        return range(self.first_pe, self.first_pe + self.n_pes)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.node_id} at {self.coord} pes={self.first_pe}..{self.first_pe + self.n_pes - 1}>"
