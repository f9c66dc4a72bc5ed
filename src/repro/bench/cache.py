"""Dataset persistence: save/load benchmark results as ``.npz``.

The paper publishes its dataset alongside the code; this module plays
that role so the (seconds-scale) regeneration can be skipped by examples
and benchmarks that only consume the data.

A cached file is only as good as its provenance: :func:`load_dataset`
can validate the stored meta (runner protocol, device, performance-model
constants) against what the caller actually requested and raise
:class:`CacheMismatchError` instead of silently serving stale data.  The
:mod:`repro.pipeline` artifact store builds on this format and adds
content addressing — prefer it for anything beyond a single ad-hoc file.

Shapes are stored as columns, never pickled: an ``(n, 4)`` int64 array
of ``(m, k, n, batch)``, a ``shape_kind`` tag in the meta naming the
shape class (``plain``, ``placed`` or ``sparse``), and for the annotated
kinds one more per-row column (the placement strings or the float
densities), so every kind loads back equal to what was saved.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bench.runner import BenchmarkResult, RunnerConfig
from repro.kernels.params import KernelConfig
from repro.perfmodel.params import PerfModelParams
from repro.workloads.gemm import GemmShape
from repro.workloads.placement import PlacedGemmShape
from repro.workloads.sparse import SparseGemmShape

__all__ = ["CacheMismatchError", "load_dataset", "save_dataset"]

#: 2: shape-kind tag and per-kind columns; sweeps use the counter-hash
#: noise (version-1 files hold the previous noise and are not reused).
_FORMAT_VERSION = 2

#: Shape kind tag -> (shape class, the extra per-row field it stores).
_SHAPE_KINDS = {
    "plain": (GemmShape, None),
    "placed": (PlacedGemmShape, "placement"),
    "sparse": (SparseGemmShape, "density"),
}


class CacheMismatchError(ValueError):
    """A cached dataset's meta disagrees with what the caller requested."""


def _shape_columns(shapes: Sequence[GemmShape]) -> Tuple[str, Dict[str, np.ndarray]]:
    """The kind tag and npz columns that encode ``shapes``."""
    by_class = {cls: kind for kind, (cls, _) in _SHAPE_KINDS.items()}
    types = {type(s) for s in shapes} or {GemmShape}
    if len(types) != 1 or not types <= by_class.keys():
        raise TypeError(
            f"cannot store shapes of types {sorted(t.__name__ for t in types)}: "
            "a table holds one of GemmShape, PlacedGemmShape, SparseGemmShape"
        )
    kind = by_class[types.pop()]
    columns = {
        "shapes": np.array(
            [(s.m, s.k, s.n, s.batch) for s in shapes], dtype=np.int64
        ).reshape(-1, 4)
    }
    extra = _SHAPE_KINDS[kind][1]
    if extra is not None:
        columns[f"shape_{extra}"] = np.array([getattr(s, extra) for s in shapes])
    return kind, columns


def _shapes_from(kind: str, data) -> Tuple[GemmShape, ...]:
    """Rebuild the shapes :func:`_shape_columns` encoded."""
    if kind not in _SHAPE_KINDS:
        raise ValueError(f"unknown shape kind {kind!r}")
    cls, extra = _SHAPE_KINDS[kind]
    dims = data["shapes"].tolist()
    if extra is None:
        return tuple(cls(m=m, k=k, n=n, batch=b) for m, k, n, b in dims)
    values = data[f"shape_{extra}"].tolist()
    return tuple(
        cls(m=m, k=k, n=n, batch=b, **{extra: value})
        for (m, k, n, b), value in zip(dims, values)
    )


def save_dataset(
    result: BenchmarkResult,
    path: Union[str, Path],
    *,
    model_params: Optional[PerfModelParams] = None,
) -> Path:
    """Serialise a benchmark result; returns the written path.

    ``model_params`` records the performance-model constants the sweep
    ran with, so a later load can detect a model change.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    kind, shape_columns = _shape_columns(result.shapes)
    meta = {
        "format_version": _FORMAT_VERSION,
        "shape_kind": kind,
        "device_name": result.device_name,
        "runner": {
            "warmup_iterations": result.runner.warmup_iterations,
            "timed_iterations": result.runner.timed_iterations,
            "seed": result.runner.seed,
            "max_retries": result.runner.max_retries,
            "retry_backoff_s": result.runner.retry_backoff_s,
        },
        "model_params": (
            None if model_params is None else dataclasses.asdict(model_params)
        ),
    }
    np.savez_compressed(
        path,
        meta=json.dumps(meta),
        **shape_columns,
        configs=np.array(
            [
                (c.acc, c.rows, c.cols, c.wg_rows, c.wg_cols)
                for c in result.configs
            ],
            dtype=np.int64,
        ),
        gflops=result.gflops,
        seconds=result.seconds,
    )
    # np.savez appends .npz when missing; normalise the return value.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def _meta_mismatches(
    meta: dict,
    expected_runner: Optional[RunnerConfig],
    expected_device_name: Optional[str],
    expected_model_params: Optional[PerfModelParams],
) -> List[str]:
    mismatches = []
    if expected_device_name is not None:
        cached = meta.get("device_name")
        if cached != expected_device_name:
            mismatches.append(
                f"device: cached {cached!r} != requested {expected_device_name!r}"
            )
    if expected_runner is not None:
        cached_runner = RunnerConfig(**meta["runner"])
        if cached_runner != expected_runner:
            mismatches.append(
                f"runner: cached {cached_runner} != requested {expected_runner}"
            )
    if expected_model_params is not None:
        cached_model = meta.get("model_params")
        requested = dataclasses.asdict(expected_model_params)
        if cached_model != requested:
            mismatches.append(
                "model_params: cached "
                f"{'<absent>' if cached_model is None else cached_model} "
                f"!= requested {requested}"
            )
    return mismatches


def load_dataset(
    path: Union[str, Path],
    *,
    expected_runner: Optional[RunnerConfig] = None,
    expected_device_name: Optional[str] = None,
    expected_model_params: Optional[PerfModelParams] = None,
) -> BenchmarkResult:
    """Load a benchmark result written by :func:`save_dataset`.

    Any ``expected_*`` argument is validated against the cached meta; a
    disagreement, or a file of another format version, raises
    :class:`CacheMismatchError` (callers treat it as a cache miss)
    instead of silently returning a stale dataset.
    """
    with np.load(Path(path), allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("format_version") != _FORMAT_VERSION:
            raise CacheMismatchError(
                f"unsupported dataset format {meta.get('format_version')!r} "
                f"(this version reads {_FORMAT_VERSION})"
            )
        mismatches = _meta_mismatches(
            meta, expected_runner, expected_device_name, expected_model_params
        )
        if mismatches:
            raise CacheMismatchError(
                f"cached dataset {Path(path)} does not match the request: "
                + "; ".join(mismatches)
            )
        shapes = _shapes_from(meta["shape_kind"], data)
        configs = tuple(
            KernelConfig(
                acc=int(a), rows=int(r), cols=int(c), wg_rows=int(wr), wg_cols=int(wc)
            )
            for a, r, c, wr, wc in data["configs"]
        )
        runner = RunnerConfig(**meta["runner"])
        return BenchmarkResult(
            device_name=meta["device_name"],
            shapes=shapes,
            configs=configs,
            gflops=np.array(data["gflops"]),
            seconds=np.array(data["seconds"]),
            runner=runner,
        )
