"""One-stop construction of a machine + runtime + machine layer.

Every experiment and example starts here::

    from repro.lrts.factory import make_runtime

    conv, layer = make_runtime(n_pes=48, layer="ugni")
    conv2, layer2 = make_runtime(n_pes=48, layer="mpi")
    conv3, layer3 = make_runtime(n_pes=48, layer="rdma")

The same application code runs on any layer — the transparency the
paper's LRTS interface exists to provide ("the flexibility provided by the
LRTS interface allows the application to change its underlying LRTS
implementation transparently", §V).

The shipped layers are the rows of :data:`LAYERS`.  A new layer needs no
entry here: build it on the machine and hand it to
:meth:`ConverseRuntime.attach_lrts`, as ``examples/custom_machine_layer.py``
does.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.converse.scheduler import ConverseRuntime
from repro.errors import LrtsError
from repro.faults import FaultConfig, install_faults
from repro.hardware.config import MachineConfig
from repro.hardware.machine import Machine
from repro.lrts.interface import LrtsLayer
from repro.lrts.mpi_layer import MpiMachineLayer
from repro.lrts.rdma_layer import RdmaLayerConfig, RdmaMachineLayer
from repro.lrts.ugni_layer import UgniLayerConfig, UgniMachineLayer

#: layer name -> (layer class, the config type it takes; None: takes none)
LAYERS: dict[str, tuple[type, Optional[type]]] = {
    "ugni": (UgniMachineLayer, UgniLayerConfig),
    "mpi": (MpiMachineLayer, None),
    "rdma": (RdmaMachineLayer, RdmaLayerConfig),
}


def make_machine(
    n_pes: Optional[int] = None,
    n_nodes: Optional[int] = None,
    config: Optional[MachineConfig] = None,
    seed: int = 0,
    engine: Optional[Any] = None,
) -> Machine:
    """Build a machine by PE count (whole nodes) or node count."""
    cfg = config or MachineConfig()
    if (n_pes is None) == (n_nodes is None):
        raise LrtsError("specify exactly one of n_pes / n_nodes")
    if n_nodes is None:
        n_nodes = -(-n_pes // cfg.cores_per_node)
    return Machine(n_nodes=n_nodes, config=cfg, engine=engine, seed=seed)


def make_layer(
    machine: Machine,
    layer: str = "ugni",
    layer_config: Optional[Any] = None,
) -> LrtsLayer:
    """Build one of :data:`LAYERS`; an unknown name lists the three."""
    try:
        cls, config_type = LAYERS[layer]
    except KeyError:
        names = ", ".join(repr(n) for n in sorted(LAYERS))
        raise LrtsError(
            f"unknown machine layer {layer!r} (available: {names})") from None
    if layer_config is None:
        return cls(machine)
    if config_type is None:
        raise LrtsError(f"the {layer} layer takes no layer_config")
    if not isinstance(layer_config, config_type):
        raise LrtsError(
            f"the {layer} layer takes {config_type.__name__}, "
            f"got {type(layer_config).__name__}")
    return cls(machine, layer_config)


def make_runtime(
    n_pes: Optional[int] = None,
    n_nodes: Optional[int] = None,
    layer: str = "ugni",
    config: Optional[MachineConfig] = None,
    layer_config: Optional[Any] = None,
    seed: int = 0,
    tracer: Any = None,
    machine: Optional[Machine] = None,
    engine: Optional[Any] = None,
    faults: Optional[FaultConfig] = None,
    fault_schedule: Iterable[Any] = (),
) -> tuple[ConverseRuntime, LrtsLayer]:
    """Machine + ConverseRuntime + machine layer, wired together.

    ``faults`` / ``fault_schedule`` install a :class:`FaultInjector`
    (bound to the runtime so node crashes halt PEs); both default to
    nothing, leaving ``machine.faults`` as ``None``.  ``engine`` swaps in
    an alternative event engine — e.g. a
    :class:`~repro.parallel.ShardedEngine` — for the machine to build on.
    The ``mpi`` layer's transport draws no SMSG or RDMA faults, so a
    nonzero rate for it is an :class:`LrtsError` rather than a run that
    quietly ignores the rate (node crashes still apply).
    """
    if layer == "mpi" and faults is not None:
        for name in ("smsg_drop_rate", "smsg_stall_rate", "rdma_error_rate"):
            rate = getattr(faults, name)
            if rate > 0.0:
                raise LrtsError(
                    f"the mpi layer does not inject FaultConfig.{name} "
                    f"({rate}): its transport has no SMSG or RDMA fault "
                    f"draws")
    if machine is None:
        machine = make_machine(n_pes=n_pes, n_nodes=n_nodes, config=config,
                               seed=seed, engine=engine)
    elif engine is not None:
        raise LrtsError("pass either a prebuilt machine or an engine, not both")
    conv = ConverseRuntime(machine, tracer=tracer, n_pes=n_pes)
    lrts = make_layer(machine, layer=layer, layer_config=layer_config)
    conv.attach_lrts(lrts)
    fault_schedule = tuple(fault_schedule)
    if faults is not None or fault_schedule:
        install_faults(machine, config=faults, schedule=fault_schedule,
                       conv=conv)
    return conv, lrts
