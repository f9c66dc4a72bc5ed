"""Benchmark inputs, generated from the run seed.

Everything a workload feeds the program is derived here from
``--seed``, so the same seed gives the same inputs and the program only
ever receives the generated shapes.  Each kind of input draws from its
own stream (``numpy.random.SeedSequence`` keyed by seed and stream
name), so adding a stream never shifts another.
"""

from __future__ import annotations

import hashlib
from array import array
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

NETWORKS = ("vgg16", "resnet50", "mobilenet_v2")
PLACEMENTS = ("device", "host")
ZIPF_SKEW = 1.1
MISS_POOL = 20_000
#: Length of a generated request stream; the loop wraps around it.
STREAM_LEN = 1 << 20
#: Network plans drawn for the sharded fleet.
PLAN_DRAWS = 1024
_STREAMS = ("zipf", "pool", "plans", "tune")


def _indices(values: np.ndarray) -> array:
    """An index stream the garbage collector does not have to walk."""
    return array("q", np.ascontiguousarray(values, dtype=np.int64).tobytes())


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed, _STREAMS.index(stream)])
    )


@dataclass(frozen=True)
class TuneInputs:
    """Seeds of the offline chain: the train/test split and the sweep noise."""

    split_seed: int
    runner_seed: int

    def digest(self) -> str:
        return hashlib.sha256(
            f"{self.split_seed}:{self.runner_seed}".encode()
        ).hexdigest()


@dataclass(frozen=True)
class ServeInputs:
    """Shapes a serving workload sends, and the order it sends them in.

    ``shapes`` is the distinct shape set and ``stream`` holds indices
    into it; ``plans`` holds the networks' shape lists and
    ``plan_stream`` indices into them, which the traced ``serve-hot``
    run sends through the sharded fleet.
    """

    shapes: Tuple
    stream: array
    plans: Tuple[Tuple, ...]
    plan_stream: array

    def digest(self) -> str:
        h = hashlib.sha256()
        for shape in self.shapes:
            h.update(repr(shape.as_tuple()).encode())
        h.update(np.asarray(self.stream, dtype=np.int64).tobytes())
        for plan in self.plans:
            h.update(repr([s.as_tuple() for s in plan]).encode())
        h.update(np.asarray(self.plan_stream, dtype=np.int64).tobytes())
        return h.hexdigest()


def network_plans() -> Dict[str, Tuple]:
    """Each network's full deduplicated GEMM list (86, 58, 21 shapes)."""
    from repro.workloads.extract import extract_network_shapes

    return {name: extract_network_shapes(name).shapes for name in NETWORKS}


def network_shapes() -> Tuple:
    """The union of the networks' GEMM shapes (163 distinct)."""
    from repro.workloads.extract import extract_dataset_shapes

    shapes, _ = extract_dataset_shapes(networks=NETWORKS)
    return tuple(shapes)


def tune_inputs(seed: int) -> TuneInputs:
    split_seed, runner_seed = _rng(seed, "tune").integers(0, 2**31 - 1, size=2)
    return TuneInputs(split_seed=int(split_seed), runner_seed=int(runner_seed))


def serve_inputs(workload: str, seed: int) -> ServeInputs:
    """The request stream of one serving workload."""
    if workload == "serve-hot":
        shapes = network_shapes()
        # Zipf over a seed-chosen popularity order of the network shapes.
        rng = _rng(seed, "zipf")
        order = rng.permutation(len(shapes))
        weights = 1.0 / np.arange(1, len(shapes) + 1) ** ZIPF_SKEW
        ranks = rng.choice(len(shapes), size=STREAM_LEN, p=weights / weights.sum())
        plans = tuple(network_plans().values())
        draws = _rng(seed, "plans").integers(0, len(plans), size=PLAN_DRAWS)
        return ServeInputs(shapes, _indices(order[ranks]), plans, _indices(draws))
    if workload == "serve-miss":
        from repro.workloads.synthetic import random_gemm_shapes

        rng = _rng(seed, "pool")
        pool_seed = int(rng.integers(0, 2**31 - 1))
        shapes = tuple(random_gemm_shapes(MISS_POOL, random_state=pool_seed))
        stream = rng.integers(0, len(shapes), size=STREAM_LEN)
        return ServeInputs(shapes, _indices(stream), (), _indices([]))
    raise ValueError(f"unknown serving workload {workload!r}")


def inputs_for(workload: str, seed: int):
    if workload == "tune":
        return tune_inputs(seed)
    return serve_inputs(workload, seed)


def self_test(workload: str, seed: int, made=None) -> List[str]:
    """Problems with seeding: same seed must repeat, another must differ.

    ``made`` is the workload's inputs for ``seed`` if already made.
    """
    first = (made or inputs_for(workload, seed)).digest()
    problems = []
    if inputs_for(workload, seed).digest() != first:
        problems.append(f"{workload}: seed {seed} gave different inputs twice")
    if inputs_for(workload, seed + 1).digest() == first:
        problems.append(f"{workload}: seeds {seed} and {seed + 1} gave equal inputs")
    return problems
