"""BenchmarkRunner under injected faults: skip-and-record, retries,
NaN-masked datasets flowing through pruning and selection."""

import numpy as np
import pytest

from repro.bench.runner import BenchmarkRunner, RunnerConfig
from repro.core.dataset import PerformanceDataset
from repro.core.pruning import TopNPruner
from repro.core.pruning.evaluate import achievable_performance
from repro.core.selection.classifiers import make_selector
from repro.core.selection.selector import selection_labels
from repro.kernels.params import config_space
from repro.sycl.device import Device
from repro.perfmodel.model import GemmPerfModel
from repro.testing import FaultKind, FaultPlan, FaultyModel, faulty_runner
from repro.workloads.gemm import GemmShape

SHAPES = (
    GemmShape(m=128, k=64, n=128),
    GemmShape(m=1, k=1024, n=512),
    GemmShape(m=3136, k=64, n=64),
    GemmShape(m=256, k=256, n=256),
)
SMALL_CONFIGS = config_space(tile_sizes=(1, 2, 4), work_groups=((8, 8), (16, 16)))


class TestPoisonedSweepRegression:
    def test_one_poisoned_config_keeps_639_cells(self):
        """The headline regression: a single failing configuration must
        not zero out the sweep — 639 of 640 cells stay valid."""
        shape = SHAPES[0]
        configs = config_space()
        plan = FaultPlan().poison(shape, configs[100])
        runner = faulty_runner(Device.r9_nano(), plan)
        result = runner.run([shape])
        assert result.gflops.shape == (1, 640)
        assert int(np.isfinite(result.gflops).sum()) == 639
        assert result.n_failed_cells == 1
        assert np.isnan(result.gflops[0, 100])
        cells = result.failures.failed_cells()
        assert cells == ((shape, configs[100]),)

    def test_fault_free_cells_bit_identical_to_clean_run(self):
        plan = FaultPlan().poison(SHAPES[0], SMALL_CONFIGS[2])
        faulted = faulty_runner(
            Device.r9_nano(), plan, configs=SMALL_CONFIGS
        ).run(SHAPES)
        clean = BenchmarkRunner(
            Device.r9_nano(), configs=SMALL_CONFIGS
        ).run(SHAPES)
        mask = np.isfinite(faulted.gflops)
        np.testing.assert_array_equal(
            faulted.gflops[mask], clean.gflops[mask]
        )

    def test_sweep_determinism_under_faults(self):
        def sweep():
            plan = FaultPlan(seed=13, rate=0.1)
            return faulty_runner(
                Device.r9_nano(), plan, configs=SMALL_CONFIGS
            ).run(SHAPES)

        a, b = sweep(), sweep()
        np.testing.assert_array_equal(a.gflops, b.gflops)
        assert a.failures.failed_cells() == b.failures.failed_cells()


class TestRetrySemantics:
    def test_transient_fault_recovered_by_retry(self):
        plan = FaultPlan().poison(SHAPES[0], SMALL_CONFIGS[0], fail_attempts=1)
        rc = RunnerConfig(max_retries=1, retry_backoff_s=0.25)
        result = faulty_runner(
            Device.r9_nano(), plan, configs=SMALL_CONFIGS, runner_config=rc
        ).run(SHAPES[:1])
        assert result.n_failed_cells == 0
        assert len(result.failures) == 1
        record = result.failures.records[0]
        assert not record.fatal
        assert record.backoff_s == pytest.approx(0.25)
        assert result.failures.retries == 1

    def test_hard_fault_exhausts_retries(self):
        plan = FaultPlan().poison(
            SHAPES[0], SMALL_CONFIGS[0], kind=FaultKind.TIMEOUT
        )
        rc = RunnerConfig(max_retries=2, retry_backoff_s=0.1)
        result = faulty_runner(
            Device.r9_nano(), plan, configs=SMALL_CONFIGS, runner_config=rc
        ).run(SHAPES[:1])
        assert result.n_failed_cells == 1
        records = result.failures.records
        assert len(records) == 3  # initial + 2 retries
        assert [r.attempt for r in records] == [0, 1, 2]
        assert records[-1].fatal and not records[0].fatal
        assert {r.kind for r in records} == {"DeviceTimeoutError"}
        # Exponential backoff charged for the attempts that retried.
        assert result.failures.total_backoff_seconds == pytest.approx(
            0.1 * (1 + 2)
        )

    def test_recovered_measurement_equals_clean_value(self):
        # A retried cell re-measures through the same deterministic noise
        # streams, so recovery reproduces the clean number exactly.
        plan = FaultPlan().poison(SHAPES[0], SMALL_CONFIGS[0], fail_attempts=1)
        rc = RunnerConfig(max_retries=1)
        faulted = faulty_runner(
            Device.r9_nano(), plan, configs=SMALL_CONFIGS, runner_config=rc
        ).run(SHAPES[:1])
        clean = BenchmarkRunner(
            Device.r9_nano(), configs=SMALL_CONFIGS
        ).run(SHAPES[:1])
        np.testing.assert_array_equal(faulted.gflops, clean.gflops)

    def test_only_failed_cells_are_retried(self):
        plan = FaultPlan(seed=5, rate=0.3, fail_attempts=1)
        model = FaultyModel(GemmPerfModel(Device.r9_nano()), plan)
        runner = BenchmarkRunner(
            Device.r9_nano(),
            configs=SMALL_CONFIGS,
            runner_config=RunnerConfig(max_retries=2),
            model=model,
        )
        result = runner.run(SHAPES[:1])
        assert result.n_failed_cells == 0
        retried = {r.config for r in result.failures}
        assert retried
        for config in SMALL_CONFIGS:
            expected = 2 if config in retried else 1
            assert model.attempts_for(SHAPES[0], config) == expected
        # One record per failed attempt, listed cell by cell.
        order = [SMALL_CONFIGS.index(r.config) for r in result.failures]
        assert order == sorted(order)

    def test_runner_config_validation(self):
        with pytest.raises(ValueError):
            RunnerConfig(max_retries=-1)
        with pytest.raises(ValueError):
            RunnerConfig(retry_backoff_s=-0.5)


class TestNaNMaskedDataset:
    @pytest.fixture()
    def faulted_dataset(self):
        plan = FaultPlan(seed=4, rate=0.1)
        result = faulty_runner(
            Device.r9_nano(), plan, configs=SMALL_CONFIGS
        ).run(SHAPES)
        return PerformanceDataset.from_benchmark(result)

    def test_dataset_accepts_nan_cells(self, faulted_dataset):
        assert faulted_dataset.n_failed_cells > 0
        assert faulted_dataset.failed_mask.sum() == faulted_dataset.n_failed_cells

    def test_normalized_masks_failures_to_zero(self, faulted_dataset):
        normalized = faulted_dataset.normalized()
        assert np.all(np.isfinite(normalized))
        assert np.all(normalized[faulted_dataset.failed_mask] == 0.0)
        assert np.all(normalized.max(axis=1) == 1.0)

    def test_best_config_never_a_failed_cell(self, faulted_dataset):
        best = faulted_dataset.best_config_indices()
        rows = np.arange(faulted_dataset.n_shapes)
        assert not np.any(faulted_dataset.failed_mask[rows, best])
        assert np.all(np.isfinite(faulted_dataset.best_gflops()))

    def test_selection_labels_skip_failed_cells(self, faulted_dataset):
        pruned = TopNPruner().select(faulted_dataset, 4)
        labels = selection_labels(faulted_dataset, pruned)
        cols = np.asarray(pruned.indices)
        rows = np.arange(faulted_dataset.n_shapes)
        chosen = cols[labels]
        assert not np.any(faulted_dataset.failed_mask[rows, chosen])

    def test_pruning_and_selection_run_end_to_end(self, faulted_dataset):
        pruned = TopNPruner().select(faulted_dataset, 4)
        score = achievable_performance(pruned, faulted_dataset)
        assert 0.0 < score <= 1.0
        selector = make_selector(
            "DecisionTree", pruned, random_state=0
        ).fit(faulted_dataset)
        config = selector.select(SHAPES[0])
        assert config in pruned.configs

    def test_all_failed_shape_row_rejected(self):
        gflops = np.ones((2, 3))
        gflops[0, :] = np.nan
        shapes = (GemmShape(m=8, k=8, n=8), GemmShape(m=16, k=8, n=8))
        with pytest.raises(ValueError):
            PerformanceDataset(
                shapes=shapes,
                configs=tuple(SMALL_CONFIGS[:3]),
                gflops=gflops,
            )
