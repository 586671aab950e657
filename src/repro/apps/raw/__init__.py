"""Benchmarks written directly on uGNI / mpish — the reference curves."""

from repro.apps.raw.fma_bte_sweep import fma_bte_latency
from repro.apps.raw.pingpong_mpi import mpi_pingpong
from repro.apps.raw.pingpong_ugni import ugni_pingpong

__all__ = ["ugni_pingpong", "mpi_pingpong", "fma_bte_latency"]
