"""Performance model for GEMM with a sparse (CSR) weight operand.

Extends the dense model with the three first-order effects of running a
register-tiled kernel over compressed weights:

* **compute** — only ``density`` of the multiply-accumulates remain, but
  index decoding and gather addressing add work per nonzero, and the
  wider the accumulator step (``acc``) the worse the gather penalty (a
  dense vector load becomes ``acc`` dependent gathers);
* **memory** — the B operand shrinks to ``density`` of its values but
  each nonzero carries an index (8 B/nz vs 4 B dense), and gathered
  access wastes cacheline transfer;
* **load imbalance** — rows of a pruned matrix have uneven populations,
  so wavefronts finish at the slowest lane; the imbalance term grows as
  density falls.

The upshot — matching what sparse-kernel practice shows — is that the
*optimal configuration shifts* with density (toward smaller ``acc`` and
smaller tiles), which is precisely why the paper flags sparse
generalisation as an open question for a selector trained on dense data.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import numpy.typing as npt

from repro.kernels.params import KernelConfig
from repro.perfmodel.model import GemmPerfModel
from repro.perfmodel.noise import noise_factors, noise_row
from repro.perfmodel.params import PerfModelParams
from repro.sycl.device import Device, DeviceSpec
from repro.workloads.gemm import GemmShape
from repro.workloads.sparse import SparseGemmShape

__all__ = ["SparseGemmPerfModel"]

_FP32 = 4
#: Extra bytes per nonzero for the column index (CSR).
_INDEX_BYTES = 4


def _dense(shape: GemmShape) -> GemmShape:
    """The dense problem behind ``shape`` (itself unless sparse)."""
    return shape.dense_equivalent() if isinstance(shape, SparseGemmShape) else shape


class SparseGemmPerfModel:
    """Timing model accepting dense and sparse shapes uniformly."""

    def __init__(
        self,
        device: Device | DeviceSpec,
        *,
        params: Optional[PerfModelParams] = None,
        seed: int = 2020,
        #: Index-decode instructions charged per nonzero, as a fraction
        #: of an FMA.
        decode_cost: float = 0.5,
        #: Gather penalty coefficient (scales with acc and sparsity).
        gather_cost: float = 0.35,
        #: Load-imbalance coefficient (wave divergence at low density).
        imbalance_cost: float = 0.6,
    ):
        for name, value in (
            ("decode_cost", decode_cost),
            ("gather_cost", gather_cost),
            ("imbalance_cost", imbalance_cost),
        ):
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
        self._dense = GemmPerfModel(device, params=params, seed=seed)
        self._decode = decode_cost
        self._gather = gather_cost
        self._imbalance = imbalance_cost
        self._seed = int(seed)

    @property
    def dense_model(self) -> GemmPerfModel:
        return self._dense

    @property
    def params(self) -> PerfModelParams:
        return self._dense.params

    @property
    def seed(self) -> int:
        return self._seed

    def supported(self, config: KernelConfig) -> bool:
        return self._dense.supported(config)

    # -- timing -----------------------------------------------------------

    def time_seconds(self, shape: GemmShape, config: KernelConfig) -> float:
        dense_shape = _dense(shape)
        breakdown = self._dense.breakdown(dense_shape, config)
        return self._sparse_time(
            shape,
            dense_shape,
            config.acc,
            breakdown.compute_seconds,
            breakdown.memory_seconds,
            breakdown.overhead_seconds,
            breakdown.total_seconds,
        )

    def time_row_seconds(
        self, shape: GemmShape, config_indices: Optional[npt.ArrayLike] = None
    ) -> np.ndarray:
        """Array form of :meth:`time_seconds` over canonical config indices."""
        dense_shape = _dense(shape)
        row = self._dense.row(dense_shape, config_indices)
        acc = self._dense.config_arrays().acc
        return self._sparse_time(
            shape,
            dense_shape,
            acc if config_indices is None else acc[np.asarray(config_indices)],
            row.compute_seconds,
            row.memory_seconds,
            row.overhead_seconds,
            row.total_seconds,
        )

    def _sparse_time(
        self, shape, dense_shape, acc, compute, memory, overhead, dense_total
    ):
        """Rescale dense time terms to the shape's density (scalars or rows)."""
        density = getattr(shape, "density", 1.0)
        if density >= 1.0:
            return dense_total

        # Compute: density of the FMAs survive, each carrying decode
        # work; gathers hurt wide accumulator steps; stragglers stretch
        # the wave by the imbalance term.
        sparsity = 1.0 - density
        work_scale = density * (1.0 + self._decode)
        gather_scale = 1.0 + self._gather * sparsity * (acc / 8.0)
        imbalance_scale = 1.0 + self._imbalance * sparsity
        compute = compute * work_scale * gather_scale * imbalance_scale

        # Memory: the B share of traffic shrinks to density but carries
        # indices; gathered lines are partially wasted (folded into the
        # index overhead constant).
        m, k, n = dense_shape.m, dense_shape.k, dense_shape.n
        b_share = (k * n) / (m * k + k * n + m * n)
        sparse_bytes_ratio = density * (_FP32 + _INDEX_BYTES) / _FP32
        memory_scale = (1.0 - b_share) + b_share * sparse_bytes_ratio
        memory = memory * memory_scale

        return (
            overhead
            + np.maximum(compute, memory)
            + 0.15 * np.minimum(compute, memory)
        )

    def gflops(self, shape: GemmShape, config: KernelConfig) -> float:
        """Useful (nonzero) FLOPs over modelled time."""
        return shape.flops / self.time_seconds(shape, config) / 1e9

    def measured_times_seconds(
        self,
        shape: GemmShape,
        config: KernelConfig,
        *,
        iterations: int,
        start_iteration: int = 0,
    ) -> np.ndarray:
        factors = noise_factors(
            self._seed,
            shape,
            config,
            iterations,
            sigma=self.params.noise_sigma,
            start_iteration=start_iteration,
        )
        return self.time_seconds(shape, config) * factors

    def measured_row_seconds(
        self,
        shape: GemmShape,
        config_indices: Optional[npt.ArrayLike] = None,
        *,
        iterations: int,
        start_iteration: int = 0,
    ) -> np.ndarray:
        """Array form of :meth:`measured_times_seconds` (one shape row)."""
        times = self.time_row_seconds(shape, config_indices)
        indices = (
            np.arange(times.size) if config_indices is None else config_indices
        )
        factors = noise_row(
            self._seed,
            shape,
            indices,
            iterations,
            sigma=self.params.noise_sigma,
            start_iteration=start_iteration,
        )
        return times[:, None] * factors

    def measured_time_seconds(
        self, shape: GemmShape, config: KernelConfig, *, iteration: int = 0
    ) -> float:
        return float(
            self.measured_times_seconds(
                shape, config, iterations=1, start_iteration=iteration
            )[0]
        )
