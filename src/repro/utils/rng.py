"""Deterministic, hierarchical random-number streams.

The benchmark substrate must reproduce the *identical* performance table on
every run (DESIGN.md section 5).  To get that without threading a single
mutable generator through the whole system — which would make results depend
on call order and break any parallel execution — we derive independent
streams from a root seed and a tuple of string/int keys, using NumPy's
``SeedSequence`` spawning-by-key mechanism.

Example
-------
>>> r1 = stream(42, "noise", "shape", 3, "config", 17)
>>> r2 = stream(42, "noise", "shape", 3, "config", 17)
>>> float(r1.standard_normal()) == float(r2.standard_normal())
True
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple, Union

import numpy as np

Key = Union[int, str]

__all__ = ["derive_seed", "derive_seeds", "rng_from", "stream"]


def _key_bytes(*keys: Key) -> bytes:
    parts = []
    for key in keys:
        if isinstance(key, bool) or not isinstance(key, (int, str)):
            raise TypeError(f"stream keys must be int or str, got {type(key).__name__}")
        parts.append(str(key).encode("utf-8"))
    return b"\x1f".join(parts)


def derive_seed(root: int, *keys: Key) -> int:
    """Derive a 64-bit child seed from ``root`` and a key path.

    The derivation is a SHA-256 hash of the key path mixed with the root
    seed, so it is stable across processes, platforms and Python versions
    (unlike ``hash()``).
    """
    digest = hashlib.sha256(
        root.to_bytes(16, "little", signed=True) + b"|" + _key_bytes(*keys)
    ).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seeds(
    root: int,
    head: Tuple[Key, ...],
    values: Sequence[int],
    tail: Tuple[Key, ...] = (),
) -> List[int]:
    """``[derive_seed(root, *head, v, *tail) for v in values]``, faster.

    The key bytes around the varying position are encoded once, so a
    whole row of seeds costs one SHA-256 per value and nothing else.
    """
    lead = root.to_bytes(16, "little", signed=True) + b"|"
    if head:
        lead += _key_bytes(*head) + b"\x1f"
    trail = b"\x1f" + _key_bytes(*tail) if tail else b""
    sha256 = hashlib.sha256
    return [
        int.from_bytes(
            sha256(lead + _key_bytes(v) + trail).digest()[:8], "little"
        )
        for v in values
    ]


def stream(root: int, *keys: Key) -> np.random.Generator:
    """Return an independent ``numpy.random.Generator`` for a key path.

    Streams for different key paths are statistically independent; streams
    for identical key paths are bit-identical.
    """
    return np.random.default_rng(np.random.SeedSequence(derive_seed(root, *keys)))


def rng_from(
    random_state: Union[None, int, np.random.Generator],
) -> np.random.Generator:
    """Coerce the usual ``random_state`` argument forms into a Generator.

    ``None`` yields a nondeterministic generator; an ``int`` seeds a fresh
    generator; an existing ``Generator`` is passed through unchanged.
    """
    if random_state is None:
        return np.random.default_rng()
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(int(random_state))
    raise TypeError(
        "random_state must be None, an int, or a numpy Generator, "
        f"got {type(random_state).__name__}"
    )
