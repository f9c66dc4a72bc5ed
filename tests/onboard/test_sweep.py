"""Partial sweeps: determinism, value fidelity, and budget accounting."""

import numpy as np
import pytest

from repro.bench.runner import BenchmarkRunner
from repro.onboard import OnboardBudget, run_partial_sweep
from repro.onboard.sweep import _round_quotas
from repro.sycl.device import Device
from repro.testing import FaultPlan, faulty_runner
from repro.workloads.placement import place_shapes

from .conftest import FAST_BUDGET

RANDOM = OnboardBudget(fraction=0.12, sampler="random", seed=0)
STRATIFIED = OnboardBudget(fraction=0.12, sampler="stratified", seed=0)


@pytest.fixture(scope="module")
def random_sweep(branches, make_runner, onboard_shapes):
    profile, _ = branches["r9-nano"]
    return run_partial_sweep(make_runner(profile), onboard_shapes, RANDOM)


class TestPlannedSamplers:
    def test_same_budget_same_sweep(
        self, branches, make_runner, onboard_shapes, random_sweep
    ):
        profile, _ = branches["r9-nano"]
        again = run_partial_sweep(
            make_runner(profile), onboard_shapes, RANDOM
        )
        assert np.array_equal(again.cells, random_sweep.cells)
        assert np.array_equal(
            again.dataset.gflops,
            random_sweep.dataset.gflops,
            equal_nan=True,
        )

    def test_measured_cells_match_the_full_sweep(
        self, branches, random_sweep
    ):
        # Counter-based noise is a pure function of (shape, config), so
        # a partial sweep's measured cells equal the full table's.
        _, full = branches["r9-nano"]
        mask = random_sweep.measured_mask()
        assert np.array_equal(
            random_sweep.dataset.gflops[mask], full.gflops[mask]
        )

    def test_budget_accounting(self, onboard_shapes, random_sweep):
        total = len(onboard_shapes) * random_sweep.dataset.n_configs
        expected = RANDOM.cells(
            len(onboard_shapes), random_sweep.dataset.n_configs
        )
        assert random_sweep.n_attempted == expected
        assert random_sweep.total_cells == total
        assert random_sweep.fraction == pytest.approx(expected / total)
        assert random_sweep.n_measured + random_sweep.failed == expected

    def test_every_row_has_a_measurement(self, random_sweep):
        assert np.isfinite(random_sweep.dataset.gflops).any(axis=1).all()

    def test_stratified_differs_from_random(
        self, branches, make_runner, onboard_shapes, random_sweep
    ):
        profile, _ = branches["r9-nano"]
        sweep = run_partial_sweep(
            make_runner(profile), onboard_shapes, STRATIFIED
        )
        assert sweep.sampler == "stratified"
        assert not np.array_equal(sweep.cells, random_sweep.cells)


class TestActiveSampler:
    def test_needs_sources(self, branches, make_runner, onboard_shapes):
        profile, _ = branches["r9-nano"]
        with pytest.raises(ValueError, match="needs sources"):
            run_partial_sweep(
                make_runner(profile), onboard_shapes, FAST_BUDGET
            )

    def test_deterministic_and_within_budget(
        self, branches, make_runner, onboard_shapes, sources_for
    ):
        profile, _ = branches["r9-nano"]
        sweeps = [
            run_partial_sweep(
                make_runner(profile),
                onboard_shapes,
                FAST_BUDGET,
                sources=sources_for("r9-nano"),
            )
            for _ in range(2)
        ]
        a, b = sweeps
        assert np.array_equal(a.cells, b.cells)
        assert np.array_equal(
            a.dataset.gflops, b.dataset.gflops, equal_nan=True
        )
        budgeted = FAST_BUDGET.cells(
            len(onboard_shapes), a.dataset.n_configs
        )
        assert a.n_attempted <= budgeted
        # The refit rounds actually spent beyond the warm start.
        assert a.n_attempted > len(onboard_shapes)
        assert np.isfinite(a.dataset.gflops).any(axis=1).all()

    def test_measured_cells_match_the_full_sweep(
        self, branches, make_runner, onboard_shapes, sources_for
    ):
        profile, full = branches["compute-heavy"]
        sweep = run_partial_sweep(
            make_runner(profile),
            onboard_shapes,
            FAST_BUDGET,
            sources=sources_for("compute-heavy"),
        )
        mask = sweep.measured_mask()
        assert np.array_equal(sweep.dataset.gflops[mask], full.gflops[mask])


class TestRowPath:
    """Partial sweeps read their cells from row evaluations of the model:
    every attempted cell equals the full sweep's cell bit for bit."""

    @pytest.fixture(scope="class")
    def placed(self, onboard_shapes):
        shapes = place_shapes(onboard_shapes, ("device", "host"))
        return shapes, BenchmarkRunner(Device.r9_nano()).run(shapes)

    @pytest.mark.parametrize("sampler", ["random", "stratified"])
    @pytest.mark.parametrize("fraction", [0.05, 0.3])
    def test_every_cell_equals_the_full_sweep(self, placed, sampler, fraction):
        shapes, full = placed
        budget = OnboardBudget(fraction=fraction, sampler=sampler, seed=4)
        sweep = run_partial_sweep(BenchmarkRunner(Device.r9_nano()), shapes, budget)
        table = sweep.dataset.gflops.ravel()
        np.testing.assert_array_equal(
            table[sweep.cells], full.gflops.ravel()[sweep.cells]
        )
        rest = np.setdiff1d(np.arange(table.size), sweep.cells)
        assert np.isnan(table[rest]).all()
        assert sweep.failed == 0

    def test_faulted_cells_stay_nan_and_are_counted(self, placed):
        shapes, full = placed
        plan = FaultPlan(seed=9, rate=0.2)
        budget = OnboardBudget(fraction=0.3, sampler="random", seed=4)
        sweep = run_partial_sweep(faulty_runner(Device.r9_nano(), plan), shapes, budget)
        table = sweep.dataset.gflops.ravel()
        faulted = np.isnan(table[sweep.cells])
        assert sweep.failed == int(faulted.sum()) > 0
        measured = sweep.cells[~faulted]
        np.testing.assert_array_equal(table[measured], full.gflops.ravel()[measured])


class TestRoundQuotas:
    def test_sums_to_budget(self):
        quotas = _round_quotas(100, 4, minimum_first=11)
        assert sum(quotas) == 100
        assert quotas[0] >= 11
        assert all(q > 0 for q in quotas)

    def test_warm_start_absorbs_small_budgets(self):
        quotas = _round_quotas(12, 4, minimum_first=11)
        assert sum(quotas) == 12
        assert quotas[0] == 11

    def test_budget_equal_to_rows_is_one_round(self):
        assert _round_quotas(11, 4, minimum_first=11) == (11,)

    def test_near_equal_split(self):
        assert _round_quotas(10, 3, minimum_first=1) == (4, 3, 3)


class TestPartialSweepValidation:
    def test_cells_must_be_one_dimensional(self, random_sweep):
        with pytest.raises(ValueError, match="1-D"):
            type(random_sweep)(
                dataset=random_sweep.dataset,
                cells=random_sweep.cells.reshape(-1, 1),
                sampler="random",
                seed=0,
            )
