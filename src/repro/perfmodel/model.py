"""End-to-end kernel time model: :class:`GemmPerfModel`.

Combines occupancy, compute-pipeline and memory models into a
roofline-style time estimate with launch overheads, tile-edge waste, wave
quantisation and deterministic microarchitectural quirk terms.  Provides
both the deterministic expected time and noisy "measured" times, per
cell (:meth:`GemmPerfModel.breakdown`, the scalar reference) and per
shape row (:meth:`GemmPerfModel.measured_row_seconds`, the array form in
:mod:`repro.perfmodel.row` that benchmark sweeps use).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.kernels.params import KernelConfig, config_index
from repro.perfmodel.compute import (
    ComputeEfficiency,
    compute_efficiency,
    latency_hiding,
)
from repro.perfmodel.memory import MemoryTraffic, memory_traffic
from repro.perfmodel.noise import measurement_noise_factor, noise_factors, noise_row
from repro.perfmodel.occupancy import OccupancyResult, occupancy_for
from repro.perfmodel.params import PerfModelParams
from repro.perfmodel.row import ConfigArrays, RowTimes, row_times
from repro.perfmodel.transfer import (
    DataPlacement,
    resolve_placement,
    transfer_phases,
)
from repro.sycl.device import Device, DeviceSpec
from repro.utils.maths import ceil_div
from repro.utils.rng import derive_seed, derive_seeds
from repro.workloads.gemm import GemmShape

__all__ = ["GemmPerfModel", "ModelBreakdown"]


@dataclass(frozen=True)
class ModelBreakdown:
    """Every intermediate quantity behind one time estimate."""

    occupancy: OccupancyResult
    compute: ComputeEfficiency
    memory: MemoryTraffic
    #: Useful output elements over launched output elements (edge waste).
    tile_utilization: float
    #: Extra factor from the k-loop processing whole `acc` steps.
    k_tail_factor: float
    #: Waves actually resident per SIMD given the launch size.
    resident_waves: float
    #: Fraction of the device's SIMDs with any work.
    simd_utilization: float
    #: Launch-dependent latency-hiding efficiency.
    latency_hiding: float
    #: Tail-round stretch factor from whole-round wave scheduling (>= 1).
    quantization: float
    #: Deterministic quirk multiplier on time (around 1).
    quirk: float
    compute_seconds: float
    memory_seconds: float
    overhead_seconds: float
    total_seconds: float
    #: Operand placement the estimate assumes (a DataPlacement value).
    placement: str = DataPlacement.DEVICE.value
    #: Device-side execution time alone (equals ``total_seconds`` for
    #: device-resident operands).
    kernel_seconds: float = 0.0
    #: Full per-direction transfer times (zero when device-resident).
    h2d_seconds: float = 0.0
    d2h_seconds: float = 0.0
    #: Transfer time hidden behind compute by the overlap model.
    hidden_transfer_seconds: float = 0.0

    @property
    def visible_transfer_seconds(self) -> float:
        """Transfer time extending the launch past the kernel."""
        return self.h2d_seconds + self.d2h_seconds - self.hidden_transfer_seconds

    @property
    def bound(self) -> str:
        """The dominating phase: "compute", "memory" or "transfer"."""
        if self.visible_transfer_seconds > max(
            self.compute_seconds, self.memory_seconds
        ):
            return "transfer"
        return "compute" if self.compute_seconds >= self.memory_seconds else "memory"


class GemmPerfModel:
    """Analytical timing model for the tiled GEMM kernel on one device.

    Parameters
    ----------
    device:
        The simulated target (a :class:`~repro.sycl.device.Device` or its
        spec).
    params:
        Model constants; defaults are the GCN3 calibration.
    seed:
        Root seed of the measurement-noise counter hash.
    """

    def __init__(
        self,
        device: Device | DeviceSpec,
        *,
        params: Optional[PerfModelParams] = None,
        seed: int = 2020,
    ):
        self._spec = device.spec if isinstance(device, Device) else device
        self._params = params or PerfModelParams()
        self._seed = int(seed)
        # Occupancy and compute efficiency depend only on the config, so
        # memoise them: dataset generation evaluates 640 configs x many
        # shapes and this removes the dominant repeated work.
        self._static_cache: dict = {}
        # Row evaluation state, built on first use: the static terms of
        # the canonical config space as arrays, and the quirk term of
        # every config per quirk key (shapes sharing a log-size bucket or
        # an alignment residue share the row).
        self._arrays: Optional[ConfigArrays] = None
        self._quirk_rows: Dict[Tuple, np.ndarray] = {}

    @property
    def device_spec(self) -> DeviceSpec:
        return self._spec

    @property
    def params(self) -> PerfModelParams:
        return self._params

    @property
    def seed(self) -> int:
        return self._seed

    # -- static (shape-independent) components --------------------------

    def _static(self, config: KernelConfig):
        key = config
        hit = self._static_cache.get(key)
        if hit is not None:
            return hit
        occ = occupancy_for(config, self._spec)
        ceff = compute_efficiency(config, self._params)
        self._static_cache[key] = (occ, ceff)
        return occ, ceff

    # -- public API -------------------------------------------------------

    def supported(self, config: KernelConfig) -> bool:
        """Whether the configuration can launch on this device at all."""
        try:
            self._static(config)
            return True
        except ValueError:
            return False

    def breakdown(self, shape: GemmShape, config: KernelConfig) -> ModelBreakdown:
        """Full model evaluation with all intermediate terms."""
        spec, params = self._spec, self._params
        occ, ceff = self._static(config)
        mem = memory_traffic(shape, config, spec, params)

        macro_m, macro_n = config.macro_tile
        groups_m = ceil_div(shape.m, macro_m)
        groups_n = ceil_div(shape.n, macro_n)
        total_groups = groups_m * groups_n * shape.batch

        covered = (groups_m * macro_m) * (groups_n * macro_n)
        tile_utilization = (shape.m * shape.n) / covered

        k_steps = ceil_div(shape.k, config.acc)
        k_tail = (k_steps * config.acc) / shape.k

        # FLOPs actually issued (edge tiles and the k tail still execute).
        launched_flops = 2.0 * covered * k_steps * config.acc * shape.batch

        # Launch geometry: how the waves land on the device's SIMDs.
        total_waves = total_groups * occ.waves_per_group
        simds = spec.compute_units * spec.simds_per_cu
        capacity = simds * occ.waves_per_simd
        # Underfilled launch: idle SIMDs contribute no throughput, and each
        # busy SIMD holds fewer waves than the occupancy limit allows.
        simd_utilization = min(1.0, total_waves / simds)
        resident_waves = float(
            np.clip(total_waves / simds, 1.0, occ.waves_per_simd)
        )
        hiding = latency_hiding(
            resident_waves, ceff.ilp, params, max_waves=spec.max_waves_per_simd
        )
        # Tail rounds: once the device is saturated, work drains in whole
        # residency rounds; a 1.1-round launch takes 2 rounds' time.
        rounds = ceil_div(total_waves, capacity)
        quantization = (
            rounds * capacity / total_waves if total_waves > capacity else 1.0
        )

        # Deterministic quirk: bank conflicts / alignment interactions not
        # captured structurally.  Keyed on shape residues and the config so
        # it is a stable, learnable property of the (shape, config) pair.
        quirk = self._quirk(shape, config)

        peak = spec.peak_gflops * 1e9 * spec.sustained_compute_efficiency
        effective_rate = (
            peak * simd_utilization * ceff.static_total * hiding
        )
        compute_seconds = launched_flops / effective_rate * quantization * quirk

        bandwidth = (
            spec.dram_bandwidth_gbps
            * 1e9
            * spec.sustained_bandwidth_efficiency
            * mem.access_efficiency
        )
        memory_seconds = mem.dram_bytes / bandwidth * quirk

        overhead_seconds = (
            spec.kernel_launch_overhead_us * 1e-6 + params.host_overhead_s
        )

        # Imperfect overlap between the compute and memory pipelines.
        kernel_total = (
            overhead_seconds
            + max(compute_seconds, memory_seconds)
            + 0.15 * min(compute_seconds, memory_seconds)
        )

        # Host-resident operands add the H2D / D2H phases (partially
        # hidden behind the kernel); device-resident shapes keep the
        # transfer-free estimate bit-for-bit.
        placement = resolve_placement(shape)
        h2d_seconds = d2h_seconds = hidden_seconds = 0.0
        total = kernel_total
        if placement == DataPlacement.HOST.value:
            transfers = transfer_phases(
                shape, config, params, kernel_seconds=kernel_total
            )
            h2d_seconds = transfers.h2d_seconds
            d2h_seconds = transfers.d2h_seconds
            hidden_seconds = transfers.hidden_seconds
            total = kernel_total + transfers.visible_seconds

        return ModelBreakdown(
            occupancy=occ,
            compute=ceff,
            memory=mem,
            tile_utilization=tile_utilization,
            k_tail_factor=k_tail,
            resident_waves=resident_waves,
            simd_utilization=simd_utilization,
            latency_hiding=hiding,
            quantization=quantization,
            quirk=quirk,
            compute_seconds=compute_seconds,
            memory_seconds=memory_seconds,
            overhead_seconds=overhead_seconds,
            total_seconds=total,
            placement=placement,
            kernel_seconds=kernel_total,
            h2d_seconds=h2d_seconds,
            d2h_seconds=d2h_seconds,
            hidden_transfer_seconds=hidden_seconds,
        )

    def time_seconds(self, shape: GemmShape, config: KernelConfig) -> float:
        """Deterministic expected kernel time."""
        return self.breakdown(shape, config).total_seconds

    def gflops(self, shape: GemmShape, config: KernelConfig) -> float:
        """Deterministic achieved GFLOP/s (useful flops over model time)."""
        return shape.flops / self.time_seconds(shape, config) / 1e9

    def measured_time_seconds(
        self,
        shape: GemmShape,
        config: KernelConfig,
        *,
        iteration: int = 0,
    ) -> float:
        """One noisy timing measurement (reproducible per iteration)."""
        factor = measurement_noise_factor(
            self._seed, shape, config, iteration, sigma=self._params.noise_sigma
        )
        return self.time_seconds(shape, config) * factor

    def measured_times_seconds(
        self,
        shape: GemmShape,
        config: KernelConfig,
        *,
        iterations: int,
        start_iteration: int = 0,
    ) -> np.ndarray:
        """A block of consecutive noisy measurements (one stream draw)."""
        factors = noise_factors(
            self._seed,
            shape,
            config,
            iterations,
            sigma=self._params.noise_sigma,
            start_iteration=start_iteration,
        )
        return self.time_seconds(shape, config) * factors

    # -- row evaluation (one shape, many configs) --------------------------

    def time_row_seconds(
        self, shape: GemmShape, config_indices: Optional[npt.ArrayLike] = None
    ) -> np.ndarray:
        """Deterministic expected time of many configs for one shape.

        Entry ``j`` is ``time_seconds(shape, config_from_index(
        config_indices[j]))``; ``None`` means the whole canonical config
        space, in order.
        """
        return self.row(shape, config_indices).total_seconds

    def measured_row_seconds(
        self,
        shape: GemmShape,
        config_indices: Optional[npt.ArrayLike] = None,
        *,
        iterations: int,
        start_iteration: int = 0,
    ) -> np.ndarray:
        """Noisy measurements of many configs for one shape.

        A ``(n_configs, iterations)`` array: row ``j`` is the time of
        config ``config_indices[j]`` times the same noise factors
        :meth:`measured_times_seconds` applies to that cell.
        """
        indices = self._indices(config_indices)
        times = self.row(shape, indices).total_seconds
        factors = noise_row(
            self._seed,
            shape,
            indices,
            iterations,
            sigma=self._params.noise_sigma,
            start_iteration=start_iteration,
        )
        return times[:, None] * factors

    def row(
        self, shape: GemmShape, config_indices: Optional[npt.ArrayLike] = None
    ) -> RowTimes:
        """The time terms of one shape over canonical config indices."""
        indices = self._indices(config_indices)
        return row_times(
            shape,
            self.config_arrays(),
            indices,
            self._quirk_row(shape)[indices],
            self._spec,
            self._params,
        )

    def config_arrays(self) -> ConfigArrays:
        """Static per-config terms of the canonical space (built once)."""
        if self._arrays is None:
            self._arrays = ConfigArrays.build(self._static, self._spec)
        return self._arrays

    def measured_gflops(
        self,
        shape: GemmShape,
        config: KernelConfig,
        *,
        iterations: int = 1,
    ) -> float:
        """Benchmark-style measurement: mean of ``iterations`` noisy runs."""
        if iterations <= 0:
            raise ValueError(f"iterations must be positive, got {iterations}")
        times = self.measured_times_seconds(shape, config, iterations=iterations)
        return shape.flops / float(np.mean(times)) / 1e9

    # -- internals ----------------------------------------------------------

    def _indices(self, config_indices: Optional[npt.ArrayLike]) -> np.ndarray:
        n = self.config_arrays().macro_m.size
        if config_indices is None:
            return np.arange(n)
        indices = np.asarray(config_indices, dtype=np.intp)
        if indices.ndim != 1 or (
            indices.size and (indices.min() < 0 or indices.max() >= n)
        ):
            raise ValueError(
                f"config indices must be a 1-D array in [0, {n})"
            )
        return indices

    def _quirk_row(self, shape: GemmShape) -> np.ndarray:
        """:meth:`_quirk` of every canonical config, as one array."""
        amplitude = self._params.alignment_penalty
        if amplitude == 0:
            return np.ones(self.config_arrays().macro_m.size)
        step = self._params.quirk_coarse_log_step
        coarse = self._quirk_terms(
            "quirk-coarse",
            (
                int(np.log2(shape.m) / step),
                int(np.log2(shape.k) / step),
                int(np.log2(shape.n) / step),
            ),
        )
        fine = self._quirk_terms(
            "quirk-fine", (shape.k % 16, shape.n % 32, shape.m % 8)
        )
        w = self._params.quirk_coarse_weight
        return 1.0 + amplitude * (w * coarse + (1.0 - w) * fine)

    def _quirk_terms(self, channel: str, residues: Tuple[int, ...]) -> np.ndarray:
        """One quirk component for every config, memoised per key tuple."""
        key = (channel, residues)
        terms = self._quirk_rows.get(key)
        if terms is None:
            n = self.config_arrays().macro_m.size
            hashes = derive_seeds(self._seed, (channel,), range(n), residues)
            terms = self._quirk_rows[key] = np.array(
                [(h % 10_000) / 10_000.0 * 2.0 - 1.0 for h in hashes]
            )
        return terms

    def _quirk(self, shape: GemmShape, config: KernelConfig) -> float:
        """Stable, structured perturbation around 1.

        Two components model the idiosyncrasies an analytical model cannot
        capture but real hardware exhibits (the reason the paper's dataset
        has a long tail of shape-specific winners):

        * a *coarse* term keyed on log-magnitude buckets of the problem
          dimensions — smooth in feature space, hence learnable by the
          selection models;
        * a *fine* term keyed on address-alignment residues — effectively
          unlearnable from raw sizes, bounding what any selector can
          achieve (Table I's gap between ceiling and scores).
        """
        amplitude = self._params.alignment_penalty
        if amplitude == 0:
            return 1.0
        ci = config_index(config)
        step = self._params.quirk_coarse_log_step

        coarse_h = derive_seed(
            self._seed,
            "quirk-coarse",
            ci,
            int(np.log2(shape.m) / step),
            int(np.log2(shape.k) / step),
            int(np.log2(shape.n) / step),
        )
        fine_h = derive_seed(
            self._seed,
            "quirk-fine",
            ci,
            shape.k % 16,
            shape.n % 32,
            shape.m % 8,
        )
        coarse = (coarse_h % 10_000) / 10_000.0 * 2.0 - 1.0
        fine = (fine_h % 10_000) / 10_000.0 * 2.0 - 1.0
        w = self._params.quirk_coarse_weight
        return 1.0 + amplitude * (w * coarse + (1.0 - w) * fine)
