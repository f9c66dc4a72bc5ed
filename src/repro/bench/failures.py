"""Failure accounting for fault-tolerant benchmark sweeps.

A sweep that skips failed cells instead of aborting needs a record of
*what* it skipped: which (shape, config) coordinates failed, on which
attempt, with what error, and whether a retry eventually recovered the
measurement.  :class:`FailureLog` collects those records; the runner
attaches one to every :class:`~repro.bench.runner.BenchmarkResult` so a
NaN cell in the table can always be traced back to its cause.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.kernels.params import KernelConfig
from repro.sycl.exceptions import SyclError
from repro.workloads.gemm import GemmShape

__all__ = ["CellFaults", "FailureLog", "FailureRecord"]


class CellFaults(SyclError):
    """Some cells of a row measurement failed, the rest were measured.

    Raised by a model's ``measured_row_seconds`` when only part of a
    shape row could be measured.  ``times`` is the whole row, with NaN
    rows for the failed cells; ``errors`` maps each failed position in
    the row to the exception that cell raised.
    """

    def __init__(self, times: np.ndarray, errors: Dict[int, SyclError]):
        super().__init__(f"{len(errors)} of {len(times)} cells failed")
        self.times = times
        self.errors = errors


@dataclass(frozen=True)
class FailureRecord:
    """One failed operation observed during a run.

    ``fatal`` is True when no retry remained (the cell was abandoned as
    NaN) and False when a later attempt recovered it.  ``backoff_s`` is
    the simulated back-off delay charged before the next attempt (zero
    for fatal records).  Queue-level failures carry no (shape, config)
    coordinates; ``where`` then names the kernel instead.
    """

    kind: str
    message: str
    shape: Optional[GemmShape] = None
    config: Optional[KernelConfig] = None
    attempt: int = 0
    fatal: bool = True
    backoff_s: float = 0.0
    where: str = "sweep"

    def cell(self) -> Optional[Tuple[GemmShape, KernelConfig]]:
        """The benchmark-table coordinate, when the failure has one."""
        if self.shape is None or self.config is None:
            return None
        return (self.shape, self.config)


class FailureLog:
    """Ordered collection of :class:`FailureRecord` entries."""

    def __init__(self, records: Iterable[FailureRecord] = ()):
        self._records: List[FailureRecord] = list(records)

    def append(self, record: FailureRecord) -> None:
        self._records.append(record)

    def extend(self, records: Iterable[FailureRecord]) -> None:
        self._records.extend(records)

    @property
    def records(self) -> Tuple[FailureRecord, ...]:
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[FailureRecord]:
        return iter(self._records)

    def __bool__(self) -> bool:
        return bool(self._records)

    def kinds(self) -> Dict[str, int]:
        """Failure counts per error kind."""
        return dict(Counter(r.kind for r in self._records))

    def fatal_records(self) -> Tuple[FailureRecord, ...]:
        return tuple(r for r in self._records if r.fatal)

    def failed_cells(self) -> Tuple[Tuple[GemmShape, KernelConfig], ...]:
        """Distinct (shape, config) coordinates abandoned as NaN."""
        seen = []
        for record in self._records:
            cell = record.cell()
            if record.fatal and cell is not None and cell not in seen:
                seen.append(cell)
        return tuple(seen)

    @property
    def retries(self) -> int:
        """Attempts that were retried (non-fatal failures)."""
        return sum(1 for r in self._records if not r.fatal)

    @property
    def total_backoff_seconds(self) -> float:
        """Simulated seconds spent backing off before retries."""
        return float(sum(r.backoff_s for r in self._records))

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        if not self._records:
            return "no failures recorded"
        kinds = ", ".join(
            f"{kind} x{count}" for kind, count in sorted(self.kinds().items())
        )
        return (
            f"{len(self._records)} failures ({kinds}); "
            f"{len(self.failed_cells())} cells abandoned, "
            f"{self.retries} retried, "
            f"{self.total_backoff_seconds:.3f}s simulated backoff"
        )

    def __repr__(self) -> str:
        return f"FailureLog({len(self._records)} records)"
