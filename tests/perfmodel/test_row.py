"""The row (array) form of the performance model against the scalar one.

A benchmark sweep evaluates one shape row of the config space as NumPy
arrays (:mod:`repro.perfmodel.row`, :func:`repro.perfmodel.noise.noise_row`).
The scalar ``breakdown`` and ``noise_factors`` are the reference: over
every cell of the plain, placed and sparse sweeps the row's deterministic
times agree to 1e-12 relative and its noise is bit-identical.
"""

import numpy as np
import pytest

from repro.bench.runner import BenchmarkRunner, RunnerConfig
from repro.experiments.sparse import DEFAULT_DENSITIES
from repro.kernels.params import config_space
from repro.perfmodel.model import GemmPerfModel
from repro.perfmodel.noise import (
    _splitmix64,
    _splitmix64_int,
    noise_factors,
    noise_row,
)
from repro.perfmodel.params import PerfModelParams
from repro.perfmodel.sparse import SparseGemmPerfModel
from repro.sycl.device import Device
from repro.workloads.extract import extract_dataset_shapes
from repro.workloads.gemm import GemmShape
from repro.workloads.placement import PlacedGemmShape, place_shapes
from repro.workloads.sparse import sparsify

CONFIGS = config_space()
RC = RunnerConfig()


@pytest.fixture(scope="module")
def base_shapes():
    return extract_dataset_shapes()[0]


@pytest.fixture(scope="module")
def sweeps(base_shapes):
    """kind -> (model, shapes): the three sweeps the repository runs."""
    device = Device.r9_nano()
    return {
        "plain": (GemmPerfModel(device), base_shapes),
        "placed": (
            GemmPerfModel(device),
            place_shapes(base_shapes, ("device", "host")),
        ),
        "sparse": (
            SparseGemmPerfModel(device),
            sparsify(base_shapes[::3], DEFAULT_DENSITIES),
        ),
    }


@pytest.fixture(scope="module")
def plain_rows(sweeps):
    model, shapes = sweeps["plain"]
    return {s.as_tuple(): model.time_row_seconds(s) for s in shapes}


def _scalar_row(model, shape):
    return np.array([model.time_seconds(shape, c) for c in CONFIGS])


def _reference(model, shape, plain_rows):
    """The scalar row, or a row already checked against it.

    Device-placed and density-1.0 rows are the plain rows exactly (no
    transfer, no sparsity terms); their equality to the checked plain
    row is asserted, which covers them against the reference too.
    """
    dims = (shape.m, shape.k, shape.n, shape.batch)
    dense = (
        isinstance(shape, PlacedGemmShape) and not shape.host_resident
    ) or getattr(shape, "density", None) == 1.0
    if dense:
        return plain_rows[dims], True
    return _scalar_row(model, shape), False


class TestDeterministicTimes:
    @pytest.mark.parametrize("kind", ["plain", "placed", "sparse"])
    def test_every_cell_matches_the_scalar_model(
        self, kind, sweeps, plain_rows
    ):
        model, shapes = sweeps[kind]
        for shape in shapes:
            row = model.time_row_seconds(shape)
            if kind == "plain":
                expected, exact = _scalar_row(model, shape), False
            else:
                expected, exact = _reference(model, shape, plain_rows)
            if exact:
                np.testing.assert_array_equal(row, expected, err_msg=str(shape))
            else:
                np.testing.assert_allclose(
                    row, expected, rtol=1e-12, atol=0, err_msg=str(shape)
                )

    def test_config_subsets_are_gathers_of_the_full_row(self, sweeps):
        model, shapes = sweeps["placed"]
        picks = np.array([639, 0, 17, 17, 320])
        for shape in shapes[::37]:
            np.testing.assert_array_equal(
                model.time_row_seconds(shape, picks),
                model.time_row_seconds(shape)[picks],
            )

    def test_ablated_model_matches_too(self, base_shapes):
        # Zero quirk and zero noise take the shortcut paths.
        params = PerfModelParams(alignment_penalty=0.0, noise_sigma=0.0)
        model = GemmPerfModel(Device.r9_nano(), params=params)
        for shape in base_shapes[::20]:
            np.testing.assert_allclose(
                model.time_row_seconds(shape),
                _scalar_row(model, shape),
                rtol=1e-12,
                atol=0,
            )
            np.testing.assert_array_equal(
                model.measured_row_seconds(shape, iterations=2),
                np.repeat(model.time_row_seconds(shape)[:, None], 2, axis=1),
            )

    def test_unsupported_configs_fail_only_when_requested(self):
        # The embedded preset cannot launch most of the space: rows over
        # its launchable configs still evaluate, and asking for one it
        # cannot launch raises like the scalar model does.
        model = GemmPerfModel(Device.embedded())
        shape = GemmShape(m=96, k=48, n=64)
        ok = [i for i, c in enumerate(CONFIGS) if model.supported(c)]
        bad = next(i for i, c in enumerate(CONFIGS) if not model.supported(c))
        np.testing.assert_allclose(
            model.time_row_seconds(shape, ok),
            [model.time_seconds(shape, CONFIGS[i]) for i in ok],
            rtol=1e-12,
            atol=0,
        )
        with pytest.raises(ValueError):
            model.time_seconds(shape, CONFIGS[bad])
        with pytest.raises(ValueError):
            model.time_row_seconds(shape, [ok[0], bad])

    def test_rejects_indices_outside_the_space(self):
        model = GemmPerfModel(Device.r9_nano())
        shape = GemmShape(m=64, k=64, n=64)
        for bad in ([640], [-1], [[0, 1]]):
            with pytest.raises(ValueError):
                model.time_row_seconds(shape, bad)


class TestNoise:
    @pytest.mark.parametrize("kind", ["plain", "placed", "sparse"])
    def test_every_cell_matches_the_scalar_noise(self, kind, sweeps):
        model, shapes = sweeps[kind]
        sigma = model.params.noise_sigma
        indices = np.arange(len(CONFIGS))
        for shape in shapes:
            row = noise_row(
                model.seed,
                shape,
                indices,
                RC.timed_iterations,
                sigma=sigma,
                start_iteration=RC.warmup_iterations,
            )
            scalar = np.array(
                [
                    noise_factors(
                        model.seed,
                        shape,
                        config,
                        RC.timed_iterations,
                        sigma=sigma,
                        start_iteration=RC.warmup_iterations,
                    )
                    for config in CONFIGS
                ]
            )
            np.testing.assert_array_equal(row, scalar, err_msg=str(shape))

    @pytest.mark.parametrize("kind", ["placed", "sparse"])
    def test_measured_row_is_time_times_noise(self, kind, sweeps):
        model, shapes = sweeps[kind]
        for shape in shapes[::11]:
            measured = model.measured_row_seconds(
                shape, iterations=3, start_iteration=1
            )
            factors = noise_row(
                model.seed,
                shape,
                np.arange(len(CONFIGS)),
                3,
                sigma=model.params.noise_sigma,
                start_iteration=1,
            )
            np.testing.assert_array_equal(
                measured, model.time_row_seconds(shape)[:, None] * factors
            )
            # Per cell, the same numbers as the scalar measurement path.
            for ci in (0, 211, 639):
                np.testing.assert_allclose(
                    measured[ci],
                    model.measured_times_seconds(
                        shape, CONFIGS[ci], iterations=3, start_iteration=1
                    ),
                    rtol=1e-12,
                    atol=0,
                )


class TestSplitmix:
    def test_int_and_array_forms_agree(self):
        rng = np.random.default_rng(0)
        values = np.concatenate(
            [
                rng.integers(0, 2**63, size=200, dtype=np.uint64) * np.uint64(2),
                np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
            ]
        )
        expected = [_splitmix64_int(int(v)) for v in values]
        assert [int(h) for h in _splitmix64(values)] == expected


class TestNoiseQuality:
    """Whole rows of log-factors look like i.i.d. N(0, sigma^2)."""

    @pytest.fixture(scope="class")
    def z(self, base_shapes):
        sigma = PerfModelParams().noise_sigma
        rows = [
            noise_row(2020, s, np.arange(len(CONFIGS)), 8, sigma=sigma)
            for s in place_shapes(base_shapes, ("device", "host"))
        ]
        # (shapes, configs, iterations) standard normals.
        return np.log(np.stack(rows)) / sigma

    def test_mean_and_std(self, z):
        assert abs(z.mean()) < 0.01
        assert z.std() == pytest.approx(1.0, rel=0.01)

    def test_per_row_moments(self, z):
        per_row = z.reshape(z.shape[0], -1)
        assert np.all(np.abs(per_row.mean(axis=1)) < 0.1)
        assert np.all(np.abs(per_row.std(axis=1) - 1.0) < 0.1)

    def test_adjacent_iterations_uncorrelated(self, z):
        r = np.corrcoef(z[:, :, :-1].ravel(), z[:, :, 1:].ravel())[0, 1]
        assert abs(r) < 0.05

    def test_adjacent_configs_uncorrelated(self, z):
        r = np.corrcoef(z[:, :-1, :].ravel(), z[:, 1:, :].ravel())[0, 1]
        assert abs(r) < 0.05

    def test_device_and_host_rows_uncorrelated(self, z):
        half = z.shape[0] // 2
        r = np.corrcoef(z[:half].ravel(), z[half:].ravel())[0, 1]
        assert abs(r) < 0.05

    def test_tails(self, z):
        # Box-Muller from 53-bit uniforms: a real tail, nothing infinite.
        assert np.all(np.isfinite(z))
        assert (np.abs(z) > 3.0).mean() == pytest.approx(0.0027, rel=0.2)


class TestRunnerWorkers:
    @pytest.mark.parametrize("kind", ["plain", "placed", "sparse"])
    def test_one_and_two_workers_bit_identical(self, kind, sweeps):
        model, shapes = sweeps[kind]
        runner = BenchmarkRunner(
            Device.r9_nano(),
            model=model,
            runner_config=RunnerConfig(seed=model.seed),
        )
        shapes = shapes[:40]  # above the pool's serial-fallback threshold
        one = runner.run(shapes, max_workers=1)
        two = runner.run(shapes, max_workers=2)
        np.testing.assert_array_equal(one.gflops, two.gflops)
        np.testing.assert_array_equal(one.seconds, two.seconds)
        assert one.shapes == two.shapes
        assert not one.failures and not two.failures

    def test_sweep_cells_are_row_means(self, sweeps):
        model, shapes = sweeps["placed"]
        result = BenchmarkRunner(Device.r9_nano()).run(shapes[-3:])
        for shape, seconds in zip(result.shapes, result.seconds):
            row = model.measured_row_seconds(
                shape,
                iterations=RC.timed_iterations,
                start_iteration=RC.warmup_iterations,
            )
            np.testing.assert_array_equal(seconds, row.mean(axis=1))
