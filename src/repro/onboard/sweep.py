"""Budgeted partial sweeps: measure a cell subset, leave the rest NaN.

:func:`run_partial_sweep` is the onboarding counterpart of
:meth:`BenchmarkRunner.run`: instead of the full (shape x config)
table it benchmarks only the cells a sampler picked under an
:class:`~repro.onboard.budget.OnboardBudget`.  Measured cells are
bit-identical to the full sweep's values (the runner's counter-based
noise depends only on the (shape, config) pair, never on which other
cells ran), so a partial sweep is exactly the full table with NaN holes
— the masking convention every downstream consumer already speaks.

The ``active`` sampler closes the loop: after a stratified warm start
it refits the cross-device imputation model on everything measured so
far and spends the next round's budget where the forest's trees
disagree most, weighted toward cells predicted to be near their row's
winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.runner import BenchmarkRunner
from repro.core.dataset import PerformanceDataset
from repro.onboard.budget import OnboardBudget
from repro.onboard.impute import ImputationModel, SourceBranch
from repro.onboard.sampler import pick_informative_cells, plan_cells

__all__ = ["PartialSweep", "measure_cells", "run_partial_sweep"]


@dataclass(frozen=True)
class PartialSweep:
    """A budgeted sweep: the holey table plus how its cells were chosen.

    ``cells`` are the flat indices (``row * n_configs + col``) the
    sampler *attempted*, in sorted order; a cell whose measurement
    raised stays NaN in the table but remains listed (it consumed
    budget).  ``dataset`` is a normal
    :class:`~repro.core.dataset.PerformanceDataset` — NaN marks
    unmeasured or failed cells, and every row has at least one finite
    value by sampler construction.
    """

    dataset: PerformanceDataset
    cells: np.ndarray
    sampler: str
    seed: int
    failed: int = 0

    def __post_init__(self) -> None:
        if self.cells.ndim != 1:
            raise ValueError(f"cells must be 1-D, got shape {self.cells.shape}")

    @property
    def n_attempted(self) -> int:
        return int(self.cells.size)

    @property
    def n_measured(self) -> int:
        return int(np.isfinite(self.dataset.gflops).sum())

    @property
    def total_cells(self) -> int:
        return self.dataset.n_shapes * self.dataset.n_configs

    @property
    def fraction(self) -> float:
        """Share of the full table this sweep paid for."""
        return self.n_attempted / self.total_cells

    def measured_mask(self) -> np.ndarray:
        return np.isfinite(self.dataset.gflops)

    def __repr__(self) -> str:
        return (
            f"PartialSweep({self.n_attempted}/{self.total_cells} cells "
            f"({self.fraction:.1%}), sampler={self.sampler!r}, "
            f"device={self.dataset.device_name!r})"
        )


def measure_cells(
    runner: BenchmarkRunner,
    shapes: Sequence,
    flat_cells: np.ndarray,
    gflops: np.ndarray,
) -> int:
    """Benchmark the given flat cells into ``gflops`` in place.

    Cells are grouped by shape row and each row is one array
    measurement, exactly as the full sweep measures it, so every value
    equals the full sweep's cell bit for bit.  Returns the number of
    cells whose measurement raised a
    :class:`~repro.sycl.exceptions.SyclError` (left NaN, like the full
    runner's skip-and-record policy).
    """
    rows, cols = np.divmod(np.asarray(flat_cells, dtype=np.int64), len(runner.configs))
    failed = 0
    for row in np.unique(rows).tolist():
        columns = cols[rows == row]
        shape = shapes[row]
        seconds, errors = runner.measure_row(shape, columns)
        failed += len(errors)
        gflops[row, columns] = shape.flops / seconds / 1e9
    return failed


def _acquisition(
    predicted_log: np.ndarray, std: np.ndarray
) -> np.ndarray:
    """Active-round score: ensemble disagreement, winner-weighted.

    A cell only matters to selector quality if it might be (near) its
    row's best, so the raw std is scaled by the predicted relative
    score squared — uncertainty about a config predicted at 30% of the
    row winner buys almost nothing.
    """
    rel = np.exp(predicted_log - predicted_log.max(axis=1, keepdims=True))
    return std * rel * rel


def run_partial_sweep(
    runner: BenchmarkRunner,
    shapes: Sequence,
    budget: OnboardBudget,
    *,
    sources: Optional[Sequence[SourceBranch]] = None,
    device_name: Optional[str] = None,
) -> PartialSweep:
    """Benchmark a budgeted cell subset on ``runner``'s device.

    ``random`` and ``stratified`` plan every cell up front;
    ``active`` needs ``sources`` (the existing fleet branches) to refit
    the imputation model between rounds.  The result is deterministic
    in (budget, seed, device): cell order never affects measured values.
    """
    shapes = tuple(shapes)
    configs = runner.configs
    n_rows, n_cols = len(shapes), len(configs)
    n_cells = budget.cells(n_rows, n_cols)
    name = device_name if device_name is not None else runner.device.name
    gflops = np.full((n_rows, n_cols), np.nan)

    if budget.sampler != "active":
        plan = plan_cells(budget.sampler, shapes, n_cols, n_cells, budget.seed)
        failed = measure_cells(runner, shapes, plan, gflops)
        return PartialSweep(
            dataset=PerformanceDataset(
                shapes=shapes, configs=tuple(configs), gflops=gflops,
                device_name=name,
            ),
            cells=plan,
            sampler=budget.sampler,
            seed=budget.seed,
            failed=failed,
        )

    if not sources:
        raise ValueError(
            "the active sampler refits the imputation model between "
            "rounds and therefore needs sources= (existing fleet branches)"
        )
    # Round quotas: the warm start takes the first share, later rounds
    # split the rest; every round gets at least one cell.
    per_round = _round_quotas(n_cells, budget.rounds, minimum_first=n_rows)
    warm = plan_cells("active", shapes, n_cols, per_round[0], budget.seed)
    failed = measure_cells(runner, shapes, warm, gflops)
    taken: List[np.ndarray] = [warm]
    spec = runner.device.spec
    for round_index, quota in enumerate(per_round[1:], start=1):
        partial = PerformanceDataset(
            shapes=shapes, configs=tuple(configs), gflops=gflops.copy(),
            device_name=name,
        )
        model = ImputationModel(budget).fit(
            tuple(sources), spec, partial,
            seed=budget.seed + round_index,
        )
        predicted, std = model.predict_target()
        attempted = np.zeros(gflops.shape, dtype=bool)
        attempted.ravel()[np.concatenate(taken)] = True
        picks = pick_informative_cells(
            _acquisition(predicted, std), attempted, quota
        )
        if picks.size == 0:
            break
        failed += measure_cells(runner, shapes, picks, gflops)
        taken.append(picks)
    cells = np.unique(np.concatenate(taken))
    return PartialSweep(
        dataset=PerformanceDataset(
            shapes=shapes, configs=tuple(configs), gflops=gflops,
            device_name=name,
        ),
        cells=cells,
        sampler=budget.sampler,
        seed=budget.seed,
        failed=failed,
    )


def _round_quotas(
    n_cells: int, rounds: int, *, minimum_first: int
) -> Tuple[int, ...]:
    """Split the budget over active rounds (warm start first)."""
    rounds = min(rounds, max(1, n_cells - minimum_first + 1))
    base = n_cells // rounds
    quotas = [base + (1 if i < n_cells % rounds else 0) for i in range(rounds)]
    # The warm start must cover every row once.
    if quotas[0] < minimum_first:
        deficit = minimum_first - quotas[0]
        quotas[0] = minimum_first
        for i in range(len(quotas) - 1, 0, -1):
            give = min(deficit, max(0, quotas[i] - 1))
            quotas[i] -= give
            deficit -= give
            if deficit == 0:
                break
    return tuple(q for q in quotas if q > 0)
