"""Array form of the GEMM model: one shape row over many configurations.

:meth:`GemmPerfModel.breakdown` evaluates one (shape, config) cell with
scalar arithmetic and keeps every intermediate term.  A benchmark sweep
only needs the times, for every config of a shape, so this module
evaluates the same closed-form model for a whole row at once: the
per-config static terms (macro tile, residency, instruction mix, ILP,
coalescing) are arrays over the canonical config space, built once per
model, and the shape, memory, occupancy and transfer terms broadcast
over them.  Each expression keeps the scalar model's operation order, so
a row reproduces ``breakdown(...).total_seconds`` to rounding (the
differential tests pin it within 1e-12 relative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from repro.kernels.params import KernelConfig, config_space
from repro.perfmodel.compute import ComputeEfficiency
from repro.perfmodel.occupancy import OccupancyResult
from repro.perfmodel.params import PerfModelParams
from repro.perfmodel.transfer import DataPlacement, resolve_placement
from repro.sycl.device import DeviceSpec
from repro.workloads.gemm import GemmShape

__all__ = ["ConfigArrays", "RowTimes", "row_times"]

_FP32 = 4


@dataclass(frozen=True)
class ConfigArrays:
    """Static per-config terms of the canonical config space, as arrays.

    Entry ``i`` describes ``config_space()[i]``.  Configs the device
    cannot launch keep placeholder terms and are listed in
    ``unsupported`` (index -> reason), so only rows that ask for them
    fail.
    """

    macro_m: np.ndarray
    macro_n: np.ndarray
    acc: np.ndarray
    wg_cols: np.ndarray
    waves_per_group: np.ndarray
    waves_per_simd: np.ndarray
    ilp: np.ndarray
    static_total: np.ndarray
    #: Coalescing efficiency of A loads and of B loads / C stores.
    eff_a: np.ndarray
    eff_bc: np.ndarray
    unsupported: Dict[int, str]

    @classmethod
    def build(
        cls,
        static: Callable[[KernelConfig], Tuple[OccupancyResult, ComputeEfficiency]],
        spec: DeviceSpec,
    ) -> "ConfigArrays":
        """Tabulate ``static(config)`` (occupancy, compute efficiency)."""
        rows = []
        unsupported: Dict[int, str] = {}
        line = spec.cacheline_bytes
        for index, config in enumerate(config_space()):
            try:
                occ, ceff = static(config)
                waves = (occ.waves_per_group, occ.waves_per_simd)
                ilp, static_total = ceff.ilp, ceff.static_total
            except ValueError as exc:
                unsupported[index] = str(exc)
                waves, ilp, static_total = (1, 1), 1.0, 1.0
            rows.append(
                (
                    *config.macro_tile,
                    config.acc,
                    config.wg_cols,
                    *waves,
                    ilp,
                    static_total,
                    min(1.0, (config.acc * _FP32 / line) ** 0.5),
                    min(1.0, config.wg_cols * config.cols * _FP32 / line),
                )
            )
        # One contiguous array per column; the first six are exact ints.
        columns = np.array(rows, dtype=np.float64).T.copy()
        ints = columns[:6].astype(np.int64)
        return cls(
            macro_m=ints[0],
            macro_n=ints[1],
            acc=ints[2],
            wg_cols=ints[3],
            waves_per_group=ints[4],
            waves_per_simd=ints[5],
            ilp=columns[6],
            static_total=columns[7],
            eff_a=columns[8],
            eff_bc=columns[9],
            unsupported=unsupported,
        )

    def check(self, indices: np.ndarray) -> None:
        """Raise ``ValueError`` when a requested config cannot launch."""
        if not self.unsupported:
            return
        for index in indices.tolist():
            if index in self.unsupported:
                raise ValueError(self.unsupported[index])


@dataclass(frozen=True)
class RowTimes:
    """The time terms of one shape row (arrays over the requested configs)."""

    compute_seconds: np.ndarray
    memory_seconds: np.ndarray
    overhead_seconds: float
    #: End-to-end time: the kernel, plus unhidden transfers when the
    #: operands are host-resident.
    total_seconds: np.ndarray


def row_times(
    shape: GemmShape,
    arrays: ConfigArrays,
    indices: np.ndarray,
    quirk: np.ndarray,
    spec: DeviceSpec,
    params: PerfModelParams,
) -> RowTimes:
    """Evaluate the model for ``shape`` over configs ``indices``.

    ``quirk`` holds the deterministic quirk multiplier of each requested
    config.  Mirrors :meth:`GemmPerfModel.breakdown` term by term.
    """
    arrays.check(indices)
    macro_m = arrays.macro_m[indices]
    macro_n = arrays.macro_n[indices]
    acc = arrays.acc[indices]
    m, k, n, batch = shape.m, shape.k, shape.n, shape.batch

    groups_m = -(-m // macro_m)
    groups_n = -(-n // macro_n)
    padded_m = groups_m * macro_m
    padded_n = groups_n * macro_n
    covered = padded_m * padded_n
    k_steps = -(-k // acc)
    launched_flops = 2.0 * covered * k_steps * acc * batch

    # Launch geometry, occupancy and latency hiding.
    total_waves = groups_m * groups_n * batch * arrays.waves_per_group[indices]
    waves_per_simd = arrays.waves_per_simd[indices]
    simds = spec.compute_units * spec.simds_per_cu
    capacity = simds * waves_per_simd
    simd_utilization = np.minimum(1.0, total_waves / simds)
    resident_waves = np.clip(total_waves / simds, 1.0, waves_per_simd)
    effective = resident_waves * (0.5 + 0.5 * arrays.ilp[indices])
    hiding = effective / (effective + params.latency_hiding_half_waves)
    full = float(spec.max_waves_per_simd)
    hiding /= full / (full + params.latency_hiding_half_waves)
    hiding = np.minimum(1.0, hiding)
    rounds = -(-total_waves // capacity)
    quantization = np.where(
        total_waves > capacity, rounds * capacity / total_waves, 1.0
    )

    peak = spec.peak_gflops * 1e9 * spec.sustained_compute_efficiency
    effective_rate = (
        peak * simd_utilization * arrays.static_total[indices] * hiding
    )
    compute = launched_flops / effective_rate * quantization * quirk

    # Memory traffic: slab volumes, L2 reuse, coalescing, channel camping.
    a_slab = macro_m * k * _FP32
    b_slab = k * macro_n * _FP32
    c_tile = macro_m * macro_n * _FP32
    l2_bytes = batch * (groups_m * groups_n * (a_slab + b_slab + c_tile))
    compulsory = batch * (m * k + k * n + m * n) * _FP32
    usable_l2 = params.l2_usable_fraction * spec.l2_bytes
    resident_fraction = min(1.0, usable_l2 / ((m * k + k * n) * _FP32))
    dram_bytes = compulsory + (l2_bytes - compulsory) * (1.0 - resident_fraction)
    a_share = a_slab / (a_slab + b_slab + c_tile)
    access = (
        a_share * arrays.eff_a[indices]
        + (1.0 - a_share) * arrays.eff_bc[indices]
    )
    access = np.maximum(params.min_coalescing_efficiency, access)
    if (n * _FP32) % 1024 == 0:
        access = np.where(
            arrays.wg_cols[indices] <= 2,
            access * (1.0 - params.channel_camping_penalty),
            access,
        )
    bandwidth = (
        spec.dram_bandwidth_gbps
        * 1e9
        * spec.sustained_bandwidth_efficiency
        * access
    )
    memory = dram_bytes / bandwidth * quirk

    overhead = spec.kernel_launch_overhead_us * 1e-6 + params.host_overhead_s
    kernel = (
        overhead
        + np.maximum(compute, memory)
        + 0.15 * np.minimum(compute, memory)
    )
    total = kernel
    if resolve_placement(shape) == DataPlacement.HOST.value:
        total = kernel + _visible_transfer(
            shape, groups_m, groups_n, padded_m, padded_n, params, kernel
        )
    return RowTimes(
        compute_seconds=compute,
        memory_seconds=memory,
        overhead_seconds=overhead,
        total_seconds=total,
    )


def _visible_transfer(
    shape: GemmShape,
    groups_m: np.ndarray,
    groups_n: np.ndarray,
    padded_m: np.ndarray,
    padded_n: np.ndarray,
    params: PerfModelParams,
    kernel_seconds: np.ndarray,
) -> np.ndarray:
    """Unhidden H2D + D2H seconds; mirrors :func:`transfer_phases`."""
    k, batch = shape.k, shape.batch
    h2d_bytes = _FP32 * batch * (padded_m * k + k * padded_n)
    d2h_bytes = _FP32 * batch * padded_m * padded_n
    h2d_stream = h2d_bytes / (params.h2d_bandwidth_gbps * 1e9)
    d2h_stream = d2h_bytes / (params.d2h_bandwidth_gbps * 1e9)
    budget = params.transfer_overlap * kernel_seconds
    h2d_hidden = np.minimum(h2d_stream, budget)
    budget = budget - h2d_hidden
    d2h_hidden = np.minimum(d2h_stream * (1.0 - 1.0 / batch), budget)
    h2d = batch * (groups_m + groups_n) * params.h2d_overhead_s + h2d_stream
    d2h = batch * groups_m * params.d2h_overhead_s + d2h_stream
    return h2d + d2h - (h2d_hidden + d2h_hidden)
