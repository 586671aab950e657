"""The whole machine: engine + torus + nodes + PE mapping.

A :class:`Machine` is the root object every experiment builds first::

    from repro.hardware import Machine
    from repro.hardware.config import hopper

    m = Machine(n_nodes=16, config=hopper())
    pe = 37
    node = m.node_of_pe(pe)

PE numbering is block-contiguous per node (PE ``p`` lives on node
``p // cores_per_node``), matching Charm++'s default rank layout on Cray
systems.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TopologyError
from repro.hardware.config import MachineConfig
from repro.hardware.gpu import Gpu
from repro.hardware.nic import GeminiNIC
from repro.hardware.node import Node
from repro.hardware.router import DragonflyNetwork, TorusNetwork
from repro.hardware.topology import Dragonfly, Torus3D
from repro.observe import Observer, observe_requested
from repro.sanitize import Sanitizer, sanitize_requested
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry


class Machine:
    """Simulated Cray XE6: nodes on a 3D torus of Gemini NICs."""

    def __init__(
        self,
        n_nodes: int,
        config: Optional[MachineConfig] = None,
        engine: Optional[Engine] = None,
        seed: int = 0,
    ):
        if n_nodes < 1:
            raise TopologyError(f"need at least one node, got {n_nodes}")
        self.config = config or MachineConfig()
        self.engine = engine or Engine()
        self.rng = RngRegistry(seed)
        if self.config.topology == "dragonfly":
            self.topology = self._build_dragonfly(n_nodes)
            self.network = DragonflyNetwork(self.topology, self.config)
        elif self.config.topology == "torus3d":
            self.topology = Torus3D.for_nodes(n_nodes)
            self.network = TorusNetwork(self.topology, self.config)
        else:
            raise TopologyError(
                f"unknown topology {self.config.topology!r} "
                f"(want 'torus3d' or 'dragonfly')")
        if self.topology.volume < n_nodes:
            raise TopologyError(
                f"topology {self.topology.dims} too small for {n_nodes} nodes"
            )
        #: fault injector, installed by :func:`repro.faults.install_faults`;
        #: ``None`` (the default) keeps every layer on its exact fault-free
        #: fast path — no RNG draws, no timing changes
        self.faults = None
        #: observability hub (:mod:`repro.observe`); ``None`` (the default)
        #: keeps every hook site on its zero-cost fast path.  Installed
        #: before the sanitizer so sanitizer violations can reach the
        #: flight recorder.
        self.observer = None
        if self.config.observe or observe_requested():
            self.observer = Observer(self)
        #: lifecycle sanitizer (:mod:`repro.sanitize`); ``None`` (the
        #: default) keeps every hook site on its zero-cost fast path.
        #: Observer-only when installed: simulated results are unchanged.
        self.sanitizer = None
        if self.config.sanitize or sanitize_requested():
            self.sanitizer = Sanitizer(self)
        # completion queues reach the sanitizer and observer through the
        # engine (they have no machine reference); the network likewise
        # gets a direct observer reference for transfer-time hooks
        self.engine.sanitizer = self.sanitizer
        self.engine.observer = self.observer
        self.network.observer = self.observer
        self.nodes: list[Node] = []
        cpn = self.config.cores_per_node
        for node_id in range(n_nodes):
            coord = self.topology.coord_of(node_id)
            nic = GeminiNIC(self.engine, self.network, self.config, node_id, coord)
            node = Node(node_id, coord, self.config, nic)
            node.first_pe = node_id * cpn
            self.nodes.append(node)
        #: flat PE -> Node table (hot path: every SMSG send does two lookups)
        self._pe_node: list[Node] = [
            self.nodes[pe // cpn] for pe in range(n_nodes * cpn)
        ]
        #: all accelerators, node-major; empty unless gpus_per_node > 0,
        #: so pre-GPU configurations build byte-identical machines
        self.gpus: list[Gpu] = []
        if self.config.gpus_per_node > 0:
            for node in self.nodes:
                for g in range(self.config.gpus_per_node):
                    gpu = Gpu(self.engine, self.config, node.node_id,
                              len(self.gpus), sanitizer=self.sanitizer)
                    node.gpus.append(gpu)
                    self.gpus.append(gpu)
            if self.observer is not None:
                self.observer.register_gpu_source(self)
        # A shard-aware engine (repro.parallel.ShardedEngine) learns the
        # node partition and its conservative lookahead from the machine;
        # the sequential engine has no such hook and skips this.
        bind = getattr(self.engine, "bind_machine", None)
        if bind is not None:
            bind(self)

    def _build_dragonfly(self, n_nodes: int) -> Dragonfly:
        cfg = self.config
        if cfg.dragonfly_groups > 0:
            return Dragonfly(
                cfg.dragonfly_groups, cfg.dragonfly_routers_per_group,
                cfg.dragonfly_terminals_per_router,
                cfg.dragonfly_global_links)
        return Dragonfly.for_nodes(
            n_nodes, cfg.dragonfly_routers_per_group,
            cfg.dragonfly_terminals_per_router, cfg.dragonfly_global_links)

    # -- sizing ------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_pes(self) -> int:
        return len(self._pe_node)

    # -- PE mapping ----------------------------------------------------------
    def node_of_pe(self, pe: int) -> Node:
        if 0 <= pe < len(self._pe_node):
            return self._pe_node[pe]
        raise TopologyError(f"PE {pe} outside machine of {self.n_pes} PEs")

    def core_of_pe(self, pe: int) -> int:
        return pe % self.config.cores_per_node

    def same_node(self, pe_a: int, pe_b: int) -> bool:
        cpn = self.config.cores_per_node
        return pe_a // cpn == pe_b // cpn

    def gpu_of_pe(self, pe: int) -> Gpu:
        """The accelerator serving ``pe`` (cores round-robin over the
        node's GPUs, the standard process-per-GPU affinity map)."""
        node = self.node_of_pe(pe)
        if not node.gpus:
            raise TopologyError(
                f"PE {pe} posted a device buffer but node {node.node_id} "
                f"has no GPUs (gpus_per_node=0)")
        return node.gpus[self.core_of_pe(pe) % len(node.gpus)]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Machine nodes={self.n_nodes} torus={self.topology.dims} "
            f"pes={self.n_pes}>"
        )
