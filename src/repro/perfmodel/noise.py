"""Reproducible measurement noise.

Real benchmark numbers jitter run to run (DVFS, scheduling, memory
placement).  The paper's dataset therefore contains a noise floor that the
clustering and classification stages must tolerate; reproducing it matters
for the "long tail of winners" structure (58 distinct best configurations).

The noise is a *counter hash*: the factor of one measurement is a pure
function of its coordinates (seed, shape identity tuple, config index,
iteration), computed with splitmix64 in ``uint64`` arrays:

1. the row key folds the seed, a domain tag and every value of
   ``shape.as_tuple()`` through splitmix64, one value at a time (so shape
   subclasses with extra coordinates, such as sparse density or operand
   placement, get independent noise);
2. each cell folds its config index into the row key, and each
   measurement folds its iteration into the cell key;
3. that hash and one more splitmix64 round give two uniforms, which
   Box–Muller turns into a standard normal ``z``; the factor is
   ``exp(sigma * z)``, lognormal with median 1.

No generator state exists anywhere, so dataset generation is
deterministic, order-independent and safely parallelisable, and a whole
shape row (every config x every iteration) is a handful of array
operations.  :func:`noise_row` is the only implementation; the per-cell
:func:`noise_factors` and :func:`measurement_noise_factor` are one-config
rows of it, so a cell's factors are bit-identical whichever way they are
requested.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.kernels.params import KernelConfig, config_index
from repro.workloads.gemm import GemmShape

__all__ = ["measurement_noise_factor", "noise_factors", "noise_row"]

_MASK = (1 << 64) - 1
#: Domain tag folded into every row key ("noise" in ASCII).
_TAG = 0x6E6F697365
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# The uint64 operands as 0-d arrays: NumPy combines those with arrays
# faster than it does scalars, which matters for one-cell rows.
_GAMMA_U, _MIX1_U, _MIX2_U, _S11, _S27, _S30, _S31, _ONE = (
    np.array(v, dtype=np.uint64) for v in (_GAMMA, _MIX1, _MIX2, 11, 27, 30, 31, 1)
)
#: 53-bit mantissa scale for the hash -> uniform conversion, and the same
#: scale times 2*pi (exact: scaling by a power of two never rounds).
_UNIT = 2.0**-53
_TWO_PI_UNIT = 2.0 * np.pi * _UNIT


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a ``uint64`` array (array integer
    arithmetic wraps silently, as the hash needs)."""
    z = x + _GAMMA_U
    z = (z ^ (z >> _S30)) * _MIX1_U
    z = (z ^ (z >> _S27)) * _MIX2_U
    return z ^ (z >> _S31)


def _splitmix64_int(x: int) -> int:
    """:func:`_splitmix64` on one Python int (the per-row key fold)."""
    z = (x + _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _row_key(seed: int, shape: GemmShape) -> np.uint64:
    key = seed & _MASK
    for value in (_TAG, *shape.as_tuple()):
        key = _splitmix64_int(key ^ (int(value) & _MASK))
    return np.uint64(key)


def noise_row(
    seed: int,
    shape: GemmShape,
    config_indices: npt.ArrayLike,
    iterations: int,
    *,
    sigma: float,
    start_iteration: int = 0,
) -> np.ndarray:
    """Lognormal factors for a block of cells of one shape row.

    Returns a ``(len(config_indices), iterations)`` array: row ``j``
    holds the factors of config ``config_indices[j]`` for iterations
    ``start_iteration`` .. ``start_iteration + iterations - 1``.
    """
    if iterations <= 0:
        raise ValueError(f"iterations must be positive, got {iterations}")
    if start_iteration < 0:
        raise ValueError(f"start_iteration must be >= 0, got {start_iteration}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    cells = np.asarray(config_indices, dtype=np.uint64)
    if sigma == 0:
        return np.ones((cells.size, iterations))
    its = np.arange(
        start_iteration, start_iteration + iterations, dtype=np.uint64
    )
    cell_keys = _splitmix64(_row_key(seed, shape) ^ cells)
    h1 = _splitmix64(cell_keys[:, None] ^ its[None, :])
    h2 = _splitmix64(h1)
    # u1 in (0, 1] keeps the logarithm finite; the angle 2*pi*u2 has u2
    # in [0, 1).  53-bit integers convert to float64 exactly.
    u1 = ((h1 >> _S11) + _ONE) * _UNIT
    angle = (h2 >> _S11) * _TWO_PI_UNIT
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(angle)
    return np.exp(sigma * z)


def noise_factors(
    seed: int,
    shape: GemmShape,
    config: KernelConfig,
    iterations: int,
    *,
    sigma: float,
    start_iteration: int = 0,
) -> np.ndarray:
    """Multiplicative lognormal factors for consecutive measurements.

    Returns factors for iterations ``start_iteration`` ..
    ``start_iteration + iterations - 1``.  Iteration ``i`` is always
    the same counter, so the factor for a given iteration is independent
    of how many are requested at once.
    """
    return noise_row(
        seed,
        shape,
        (config_index(config),),
        iterations,
        sigma=sigma,
        start_iteration=start_iteration,
    )[0]


def measurement_noise_factor(
    seed: int,
    shape: GemmShape,
    config: KernelConfig,
    iteration: int,
    *,
    sigma: float,
) -> float:
    """The noise factor for one specific timing measurement."""
    return float(
        noise_factors(
            seed, shape, config, 1, sigma=sigma, start_iteration=iteration
        )[0]
    )
