"""The performance dataset: shapes x configurations achieved GFLOP/s.

Wraps the raw benchmark table with the operations the paper's pipeline
needs — per-shape normalization, feature extraction, best-config queries,
train/test splitting — plus persistence and the one-call
:func:`generate_dataset` regeneration entry point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.bench.cache import CacheMismatchError
from repro.bench.cache import load_dataset as _load_raw
from repro.bench.cache import save_dataset as _save_raw
from repro.bench.runner import BenchmarkResult, BenchmarkRunner, RunnerConfig
from repro.kernels.params import KernelConfig
from repro.perfmodel.params import PerfModelParams
from repro.sycl.device import Device
from repro.utils.rng import rng_from
from repro.workloads.extract import extract_dataset_shapes
from repro.workloads.gemm import GemmShape
from repro.workloads.placement import place_shapes

__all__ = [
    "DatasetSplit",
    "PerformanceDataset",
    "dataset_stage",
    "generate_dataset",
    "split_stage",
    "sweep_stage",
]

DEFAULT_NETWORKS: Tuple[str, ...] = ("vgg16", "resnet50", "mobilenet_v2")


@dataclass(frozen=True)
class PerformanceDataset:
    """Immutable view of a benchmark sweep.

    Attributes
    ----------
    shapes / configs:
        Row and column identities of the table.
    gflops:
        (n_shapes, n_configs) achieved GFLOP/s.
    device_name:
        Provenance label.
    """

    shapes: Tuple[GemmShape, ...]
    configs: Tuple[KernelConfig, ...]
    gflops: np.ndarray
    device_name: str = "unknown"

    def __post_init__(self) -> None:
        expected = (len(self.shapes), len(self.configs))
        if self.gflops.shape != expected:
            raise ValueError(
                f"gflops shape {self.gflops.shape} does not match {expected}"
            )
        # NaN marks a cell whose benchmark failed after retries (see
        # repro.bench.failures); everything measured must be positive.
        if np.any(self.gflops <= 0) or np.any(np.isinf(self.gflops)):
            raise ValueError(
                "gflops must be positive (NaN marks a failed measurement)"
            )
        self._check_rows("constructed")

    def _check_rows(self, context: str) -> None:
        """Reject all-NaN rows with a diagnostic naming the shapes.

        An all-NaN row means every configuration for that shape failed
        (or, in an onboarding partial sweep, was never sampled); letting
        it through would silently turn ``normalized()`` into a zero row
        and ``best_config_indices()`` into an argmax over ``-inf`` that
        always answers config 0.  The constructor rejects such tables,
        and the row-reading views re-check so a dataset arriving through
        a decoding path that skipped validation still fails loudly.
        """
        dead = ~np.any(np.isfinite(self.gflops), axis=1)
        if np.any(dead):
            rows = np.flatnonzero(dead)
            named = ", ".join(str(self.shapes[i]) for i in rows[:3])
            more = f" (+{len(rows) - 3} more)" if len(rows) > 3 else ""
            raise ValueError(
                f"{len(rows)} shape(s) have no successful measurement "
                f"({context} dataset, device {self.device_name!r}): "
                f"{named}{more} — every shape needs at least one finite "
                "gflops cell; sample more cells or drop the shapes"
            )

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_benchmark(cls, result: BenchmarkResult) -> "PerformanceDataset":
        return cls(
            shapes=result.shapes,
            configs=result.configs,
            gflops=result.gflops,
            device_name=result.device_name,
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "PerformanceDataset":
        return cls.from_benchmark(_load_raw(path))

    def save(self, path: Union[str, Path]) -> Path:
        result = BenchmarkResult(
            device_name=self.device_name,
            shapes=self.shapes,
            configs=self.configs,
            gflops=self.gflops,
            seconds=np.array(
                [[s.flops for s in self.shapes]]
            ).T
            / self.gflops
            / 1e9,
        )
        return _save_raw(result, path)

    # -- core views --------------------------------------------------------

    @property
    def n_shapes(self) -> int:
        return len(self.shapes)

    @property
    def n_configs(self) -> int:
        return len(self.configs)

    def normalized(self) -> np.ndarray:
        """Per-shape normalized performance: each row divided by its max.

        This is the paper's representation: "for each set of matrix sizes
        ... a vector of 640 normalized performance scores".

        Failed (NaN) cells are masked to 0.0 — a configuration that could
        not be measured achieves no relative performance, so it is never
        the per-shape best and never survives pruning or selection.  All
        downstream consumers (clustering, labels, geomeans) therefore see
        a finite table.
        """
        self._check_rows("normalized")
        best = np.nanmax(self.gflops, axis=1, keepdims=True)
        return np.nan_to_num(self.gflops / best, nan=0.0)

    def features(self) -> np.ndarray:
        """(n_shapes, 4) matrix-size feature matrix for the selectors."""
        return np.vstack([s.features() for s in self.shapes])

    def best_config_indices(self) -> np.ndarray:
        """Index of the optimal configuration for every shape."""
        self._check_rows("label extraction over a")
        return np.argmax(np.nan_to_num(self.gflops, nan=-np.inf), axis=1)

    def win_counts(self) -> np.ndarray:
        """How often each configuration is optimal (Fig 2's data)."""
        return np.bincount(self.best_config_indices(), minlength=self.n_configs)

    def best_gflops(self) -> np.ndarray:
        return np.nanmax(self.gflops, axis=1)

    @property
    def failed_mask(self) -> np.ndarray:
        """(n_shapes, n_configs) boolean mask of failed (NaN) cells."""
        return np.isnan(self.gflops)

    @property
    def n_failed_cells(self) -> int:
        return int(self.failed_mask.sum())

    def config_index(self, config: KernelConfig) -> int:
        try:
            return self.configs.index(config)
        except ValueError:
            raise KeyError(f"{config} is not a column of this dataset") from None

    # -- restructuring -----------------------------------------------------

    def subset(self, indices: Sequence[int]) -> "PerformanceDataset":
        """Dataset restricted to the given shape rows."""
        indices = np.asarray(indices, dtype=np.int64)
        if len(indices) == 0:
            raise ValueError("subset must keep at least one shape")
        return PerformanceDataset(
            shapes=tuple(self.shapes[i] for i in indices),
            configs=self.configs,
            gflops=self.gflops[indices],
            device_name=self.device_name,
        )

    def split(
        self, *, test_size: float = 0.2, random_state=0
    ) -> Tuple["PerformanceDataset", "PerformanceDataset"]:
        """Random train/test split of the shapes (paper: 136/34 of 170)."""
        if not 0.0 < test_size < 1.0:
            raise ValueError(f"test_size must be in (0, 1), got {test_size}")
        n = self.n_shapes
        n_test = max(1, int(round(n * test_size)))
        if n_test >= n:
            raise ValueError("test split would consume the whole dataset")
        order = np.arange(n)
        rng_from(random_state).shuffle(order)
        return self.subset(order[n_test:]), self.subset(order[:n_test])

    def __repr__(self) -> str:
        return (
            f"PerformanceDataset({self.n_shapes} shapes x "
            f"{self.n_configs} configs, device={self.device_name!r})"
        )


@dataclass(frozen=True)
class DatasetSplit:
    """A train/test pair produced by the pipeline's split stage."""

    train: PerformanceDataset
    test: PerformanceDataset


def sweep_stage(inputs, params, options) -> BenchmarkResult:
    """Pipeline stage: run the full benchmark sweep.

    Fingerprinted parameters: ``device_spec`` (a
    :class:`~repro.sycl.device.DeviceSpec`), ``networks``, ``runner``
    (a :class:`RunnerConfig`), optional ``model_params``, and optional
    ``placements`` (a tuple of :class:`~repro.workloads.placement.
    DataPlacement` values crossing every extracted shape with a data
    residency — absent from the params dict for legacy sweeps, so
    existing fingerprints are untouched).  Worker count comes from
    ``options`` — it never affects the result.
    """
    device = Device(params["device_spec"])
    shapes, _ = extract_dataset_shapes(networks=tuple(params["networks"]))
    placements = params.get("placements")
    if placements:
        shapes = place_shapes(shapes, placements)
    runner = BenchmarkRunner(
        device,
        runner_config=params["runner"],
        model_params=params.get("model_params"),
    )
    return runner.run(shapes, max_workers=options.get("max_workers", 1))


def dataset_stage(inputs, params, options) -> PerformanceDataset:
    """Pipeline stage: normalise the raw sweep into the dataset view."""
    return PerformanceDataset.from_benchmark(inputs["sweep"])


def split_stage(inputs, params, options) -> DatasetSplit:
    """Pipeline stage: deterministic train/test split of the dataset."""
    train, test = inputs["dataset"].split(
        test_size=params["test_size"], random_state=params["split_seed"]
    )
    return DatasetSplit(train=train, test=test)


def generate_dataset(
    *,
    device: Optional[Device] = None,
    runner_config: Optional[RunnerConfig] = None,
    model_params: Optional[PerfModelParams] = None,
    networks: Sequence[str] = DEFAULT_NETWORKS,
    placements: Optional[Sequence[str]] = None,
    cache_path: Optional[Union[str, Path]] = None,
    max_workers: Optional[int] = 1,
    store=None,
) -> PerformanceDataset:
    """Regenerate the paper's dataset end to end.

    Extracts GEMM shapes from the three networks, benchmarks all 640
    configurations per shape on the simulated device and returns the
    table.  With ``cache_path`` set, a previously saved dataset on disk
    is reused — but only if its recorded meta (runner protocol, device,
    model constants) matches this request; a mismatch is treated as a
    cache miss with a warning and the sweep is regenerated.

    With ``store`` set to a
    :class:`~repro.pipeline.store.ArtifactStore`, generation routes
    through the content-addressed pipeline instead: the sweep and
    dataset stages are fingerprinted and reused incrementally
    (``cache_path`` is then ignored).

    With ``placements`` set (e.g. ``("device", "host")``), every
    extracted shape is crossed with the given data residencies before
    the sweep, so the table gains a placement axis.  The flat ``.npz``
    cache validates only the runner, device and model constants, not
    the shape list, so ``cache_path`` is ignored in that mode; the
    pipeline ``store`` fingerprints the placements and round-trips
    placed shapes (its codec tags the shape kind and stores the
    placement as a column — it never pickles).
    """
    device = device or Device.r9_nano()
    effective_runner = runner_config or RunnerConfig()

    if store is not None:
        from repro.pipeline.paper import generate_dataset_stages

        return generate_dataset_stages(
            store,
            device=device,
            runner_config=effective_runner,
            model_params=model_params,
            networks=tuple(networks),
            placements=tuple(placements) if placements else None,
            max_workers=max_workers or 1,
        )

    if placements:
        cache_path = None

    if cache_path is not None:
        cache_path = Path(cache_path)
        effective = (
            cache_path if cache_path.suffix == ".npz"
            else cache_path.with_suffix(cache_path.suffix + ".npz")
        )
        if effective.exists():
            try:
                return PerformanceDataset.from_benchmark(
                    _load_raw(
                        effective,
                        expected_runner=effective_runner,
                        expected_device_name=device.name,
                        expected_model_params=model_params,
                    )
                )
            except CacheMismatchError as exc:
                warnings.warn(
                    f"ignoring stale dataset cache: {exc}; regenerating",
                    stacklevel=2,
                )

    shapes, _ = extract_dataset_shapes(networks=networks)
    if placements:
        shapes = place_shapes(shapes, placements)
    runner = BenchmarkRunner(
        device,
        runner_config=runner_config,
        model_params=model_params,
    )
    result = runner.run(shapes, max_workers=max_workers)
    if cache_path is not None:
        _save_raw(result, cache_path, model_params=model_params)
    return PerformanceDataset.from_benchmark(result)
