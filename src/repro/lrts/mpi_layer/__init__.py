"""The MPI-based Charm++ machine layer — the paper's baseline."""

from repro.lrts.mpi_layer.layer import MpiMachineLayer

__all__ = ["MpiMachineLayer"]
