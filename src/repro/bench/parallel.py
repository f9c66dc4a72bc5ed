"""Deterministic parallel map over independent work items.

Dataset generation is embarrassingly parallel across shapes: each
(shape, all-configs) row depends only on the root seed, never on shared
state (the counter-hash noise guarantees it).  ``parallel_map``
chunks the work across a process pool and reassembles results in input
order, falling back to serial execution for small inputs or single-CPU
machines where pool overhead would dominate.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["parallel_map"]

#: Below this many items the pool spawn cost outweighs any speedup.
_MIN_PARALLEL_ITEMS = 32


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    *,
    max_workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    min_parallel_items: Optional[int] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, in parallel when it pays off.

    Results are returned in input order regardless of completion order.
    ``fn`` must be picklable (module-level function or functools.partial)
    when parallel execution kicks in.  ``min_parallel_items`` overrides
    the serial-fallback threshold — callers whose items are individually
    expensive (e.g. whole pipeline stages) set it low.
    """
    items = list(items)
    workers = max_workers if max_workers is not None else os.cpu_count() or 1
    threshold = (
        _MIN_PARALLEL_ITEMS if min_parallel_items is None else min_parallel_items
    )
    if workers <= 1 or len(items) < threshold:
        return [fn(item) for item in items]
    if chunksize is None:
        chunksize = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))
