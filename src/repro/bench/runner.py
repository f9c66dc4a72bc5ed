"""The benchmark runner: sweep configurations over shapes on a device.

Mirrors the paper's data collection: "For each of these sizes we ran a
benchmark for each of the kernel configurations, recording the runtime of
the kernel and number of flops attained over a number of iterations."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.bench.failures import CellFaults, FailureLog, FailureRecord
from repro.bench.stats import TimingSummary, summarize_times
from repro.bench.parallel import parallel_map
from repro.kernels.params import KernelConfig, config_index, config_space
from repro.perfmodel.model import GemmPerfModel
from repro.perfmodel.params import PerfModelParams
from repro.sycl.device import Device
from repro.sycl.exceptions import SyclError
from repro.workloads.gemm import GemmShape

__all__ = ["BenchmarkResult", "BenchmarkRunner", "RunnerConfig"]


@dataclass(frozen=True)
class RunnerConfig:
    """Benchmark protocol parameters.

    ``max_retries`` re-attempts a (shape, config) measurement that raised
    a :class:`~repro.sycl.exceptions.SyclError`; once the retries are
    exhausted the cell is recorded as NaN in the result table instead of
    aborting the sweep.  ``retry_backoff_s`` is the base of the simulated
    exponential back-off (attempt ``i`` waits ``retry_backoff_s * 2**i``
    device-seconds, charged to the failure log, never the wall clock).
    """

    warmup_iterations: int = 2
    timed_iterations: int = 5
    seed: int = 2020
    max_retries: int = 0
    retry_backoff_s: float = 0.0

    def __post_init__(self) -> None:
        if self.warmup_iterations < 0:
            raise ValueError("warmup_iterations must be >= 0")
        if self.timed_iterations < 1:
            raise ValueError("timed_iterations must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")


@dataclass(frozen=True)
class BenchmarkResult:
    """The raw dataset: one GFLOP/s entry per (shape, config).

    Cells that failed after exhausting their retries hold NaN in both
    ``gflops`` and ``seconds``; ``failures`` records why.
    """

    device_name: str
    shapes: Tuple[GemmShape, ...]
    configs: Tuple[KernelConfig, ...]
    #: (n_shapes, n_configs) achieved GFLOP/s (mean over timed iterations).
    gflops: np.ndarray
    #: (n_shapes, n_configs) mean kernel time in seconds.
    seconds: np.ndarray
    runner: RunnerConfig = field(default_factory=RunnerConfig)
    #: Per-run account of skipped/retried cells (empty for clean sweeps).
    failures: FailureLog = field(default_factory=FailureLog)

    def __post_init__(self) -> None:
        expected = (len(self.shapes), len(self.configs))
        if self.gflops.shape != expected or self.seconds.shape != expected:
            raise ValueError(
                f"matrix shapes {self.gflops.shape}/{self.seconds.shape} do "
                f"not match ({expected})"
            )

    @property
    def n_failed_cells(self) -> int:
        """Cells abandoned as NaN after exhausting their retries."""
        return int(np.isnan(self.gflops).sum())


def _measure_row(
    model,
    shape: GemmShape,
    indices: np.ndarray,
    runner: RunnerConfig,
) -> Tuple[np.ndarray, Dict[int, SyclError]]:
    """One attempt at the given cells of a shape row.

    Returns each cell's mean kernel time (NaN where the cell failed) and
    the failures keyed by position in ``indices``.
    """
    try:
        # Warm-up iterations are discarded: they model JIT/cache warming.
        times = model.measured_row_seconds(
            shape,
            indices,
            iterations=runner.timed_iterations,
            start_iteration=runner.warmup_iterations,
        )
        errors: Dict[int, SyclError] = {}
    except CellFaults as exc:
        times, errors = exc.times, exc.errors
    except SyclError as exc:
        return np.full(len(indices), np.nan), dict.fromkeys(range(len(indices)), exc)
    # Only the mean enters the dataset.
    return times.mean(axis=1), errors


def _bench_one_shape(
    shape: GemmShape,
    *,
    configs: Sequence[KernelConfig],
    indices: np.ndarray,
    model,
    runner: RunnerConfig,
) -> Tuple[np.ndarray, np.ndarray, Tuple[FailureRecord, ...]]:
    """All configs for one shape; module-level for process-pool pickling.

    Each attempt measures the still-pending cells as one row, so only
    the cells that failed are retried.
    """
    seconds = np.full(len(configs), np.nan)
    pending = np.arange(len(configs))
    failures: list = []
    for attempt in range(runner.max_retries + 1):
        means, errors = _measure_row(model, shape, indices[pending], runner)
        fatal = attempt == runner.max_retries
        for position, exc in errors.items():
            cell = int(pending[position])
            record = FailureRecord(
                kind=type(exc).__name__,
                message=str(exc),
                shape=shape,
                config=configs[cell],
                attempt=attempt,
                fatal=fatal,
                backoff_s=0.0 if fatal else runner.retry_backoff_s * 2**attempt,
            )
            failures.append((cell, attempt, record))
        # Failed cells read NaN, so the whole attempt can be stored.
        seconds[pending] = means
        failed = np.zeros(len(pending), dtype=bool)
        failed[list(errors)] = True
        pending = pending[failed]
        if not pending.size:
            break
    # Retries exhausted: skip-and-record, the cell stays NaN.  Records
    # are listed cell by cell, each cell's attempts in order.
    failures.sort(key=lambda item: item[:2])
    gflops = shape.flops / seconds / 1e9
    return gflops, seconds, tuple(record for _, _, record in failures)


class BenchmarkRunner:
    """Sweeps the configuration space over a shape list on one device."""

    def __init__(
        self,
        device: Device,
        *,
        configs: Optional[Sequence[KernelConfig]] = None,
        runner_config: Optional[RunnerConfig] = None,
        model_params: Optional[PerfModelParams] = None,
        model=None,
    ):
        """``model`` overrides the default dense GEMM model — anything
        with ``measured_row_seconds(shape, config_indices, iterations=...,
        start_iteration=...)`` works (e.g. the sparse model); it may
        raise :class:`~repro.bench.failures.CellFaults` for a partly
        failed row.  ``bench_single`` also uses
        ``measured_times_seconds(shape, config, ...)``."""
        self._device = device
        self._configs = tuple(configs) if configs is not None else tuple(config_space())
        self._runner_config = runner_config or RunnerConfig()
        if model is not None and model_params is not None:
            raise ValueError("pass either model or model_params, not both")
        self._model = model or GemmPerfModel(
            device, params=model_params, seed=self._runner_config.seed
        )
        self._indices: Optional[np.ndarray] = None

    @property
    def device(self) -> Device:
        return self._device

    @property
    def configs(self) -> Tuple[KernelConfig, ...]:
        return self._configs

    @property
    def model(self) -> GemmPerfModel:
        return self._model

    @property
    def runner_config(self) -> RunnerConfig:
        """The benchmark protocol parameters in force."""
        return self._runner_config

    def _config_indices(self) -> np.ndarray:
        """Canonical config-space index of every column."""
        if self._indices is None:
            self._indices = np.array(
                [config_index(c) for c in self._configs], dtype=np.intp
            )
        return self._indices

    def measure_row(
        self, shape: GemmShape, columns: npt.ArrayLike
    ) -> Tuple[np.ndarray, Dict[int, SyclError]]:
        """One attempt at some columns of a shape row, as :meth:`run`
        measures them: mean seconds per column (NaN where it failed) and
        the failures keyed by position in ``columns``."""
        indices = self._config_indices()[np.asarray(columns, dtype=np.intp)]
        return _measure_row(self._model, shape, indices, self._runner_config)

    def run(
        self,
        shapes: Sequence[GemmShape],
        *,
        max_workers: Optional[int] = 1,
    ) -> BenchmarkResult:
        """Benchmark every configuration on every shape.

        Each shape row is one array evaluation of the model over every
        config.  ``max_workers > 1`` distributes shapes over a process
        pool; the counter-based noise makes the result bit-identical
        regardless of worker count.

        A cell whose measurement raises a
        :class:`~repro.sycl.exceptions.SyclError` is retried up to
        ``max_retries`` times and then recorded as NaN; the sweep always
        completes, and every failure is listed in ``result.failures``.
        """
        shapes = tuple(shapes)
        if not shapes:
            raise ValueError("shapes must be non-empty")
        fn = partial(
            _bench_one_shape,
            configs=self._configs,
            indices=self._config_indices(),
            model=self._model,
            runner=self._runner_config,
        )
        rows = parallel_map(fn, shapes, max_workers=max_workers)
        gflops = np.vstack([r[0] for r in rows])
        seconds = np.vstack([r[1] for r in rows])
        failures = FailureLog()
        for row in rows:
            failures.extend(row[2])
        return BenchmarkResult(
            device_name=self._device.name,
            shapes=shapes,
            configs=self._configs,
            gflops=gflops,
            seconds=seconds,
            runner=self._runner_config,
            failures=failures,
        )

    def bench_single(
        self,
        shape: GemmShape,
        config: KernelConfig,
        *,
        iterations: Optional[int] = None,
    ) -> TimingSummary:
        """Benchmark one (shape, config) pair and return timing detail.

        ``iterations`` overrides the protocol's timed iteration count for
        this measurement (e.g. a dynamic selector's cheaper trial sweeps);
        warm-up stays as configured.
        """
        rc = self._runner_config
        if iterations is None:
            iterations = rc.timed_iterations
        elif iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        times = self._model.measured_times_seconds(
            shape,
            config,
            iterations=iterations,
            start_iteration=rc.warmup_iterations,
        )
        return summarize_times(times)
