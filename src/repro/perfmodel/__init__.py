"""Analytical GPU performance model for the tiled GEMM kernel.

This package is the stand-in for the paper's benchmark platform (an AMD R9
Nano).  Given a :class:`~repro.workloads.gemm.GemmShape` and a
:class:`~repro.kernels.params.KernelConfig`, it predicts kernel execution
time from first principles:

* **occupancy** — resident wavefronts per SIMD limited by register
  pressure, local memory and the device wave budget
  (:mod:`repro.perfmodel.occupancy`);
* **compute pipeline** — FMA issue rate degraded by loop overhead, limited
  instruction-level parallelism and insufficient latency hiding
  (:mod:`repro.perfmodel.compute`);
* **memory system** — DRAM traffic from work-group tiling with an L2
  reuse model, degraded by uncoalesced access patterns
  (:mod:`repro.perfmodel.memory`);
* **whole-kernel time** — roofline-style max of compute and memory time,
  tile-edge waste, wave quantisation, launch overhead, and deterministic
  alignment penalties (:mod:`repro.perfmodel.model`), per cell or for a
  whole shape row of configs as arrays (:mod:`repro.perfmodel.row`);
* **measurement noise** — reproducible lognormal jitter per
  (shape, config, iteration) from a splitmix64 counter hash
  (:mod:`repro.perfmodel.noise`).

The model is *not* calibrated to match the R9 Nano's absolute GFLOP/s; it
is calibrated to reproduce the **structure** of the paper's dataset — see
DESIGN.md section 5 for the calibration targets and
``tests/integration/test_dataset_structure.py`` for their enforcement.
"""

from repro.perfmodel.params import PerfModelParams
from repro.perfmodel.occupancy import OccupancyResult, occupancy_for
from repro.perfmodel.compute import (
    ComputeEfficiency,
    compute_efficiency,
    latency_hiding,
)
from repro.perfmodel.memory import MemoryTraffic, memory_traffic
from repro.perfmodel.transfer import (
    DataPlacement,
    TransferBreakdown,
    padded_operand_bytes,
    resolve_placement,
    transfer_copies,
    transfer_phases,
)
from repro.perfmodel.model import GemmPerfModel, ModelBreakdown
from repro.perfmodel.noise import measurement_noise_factor
from repro.perfmodel.sparse import SparseGemmPerfModel

__all__ = [
    "ComputeEfficiency",
    "DataPlacement",
    "GemmPerfModel",
    "MemoryTraffic",
    "ModelBreakdown",
    "OccupancyResult",
    "PerfModelParams",
    "SparseGemmPerfModel",
    "TransferBreakdown",
    "compute_efficiency",
    "latency_hiding",
    "measurement_noise_factor",
    "memory_traffic",
    "occupancy_for",
    "padded_operand_bytes",
    "resolve_placement",
    "transfer_copies",
    "transfer_phases",
]
