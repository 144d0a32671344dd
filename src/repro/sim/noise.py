"""Per-invocation hardware-noise factors from a counter-based hash.

Every simulator tier scales an invocation's cycles by the log-normal
factor ``exp(z * noise - noise**2 / 2)`` (mean 1), standing in for
run-to-run hardware variance.  ``z`` is a pure function of
``(seed, index)``: the seed, taken mod 2**64, is hashed into a
SplitMix64 stream start, the index picks the stream's words ``2i+1`` and
``2i+2``, and Box–Muller turns their uniforms into a standard normal.  No
generator state exists, so a factor is the same alone or inside a long
array, in any process: the scalar, batched, pooled, multi-SM and
analytical paths all call :func:`noise_factors` and agree bit for bit.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..seeding import MASK64, SPLITMIX64_GAMMA, splitmix64

__all__ = ["noise_factors", "standard_normals"]


def standard_normals(seed: int, indices: Iterable[int]) -> np.ndarray:
    """One N(0, 1) draw per index; 53-bit uniforms in (0, 1] and [0, 1)."""
    index = np.asarray(list(indices), dtype=np.uint64)
    start = np.uint64(splitmix64(int(seed) & MASK64))
    counter = start + index * np.uint64(2 * SPLITMIX64_GAMMA & MASK64)
    first = splitmix64(counter + SPLITMIX64_GAMMA)
    second = splitmix64(counter + (2 * SPLITMIX64_GAMMA & MASK64))
    radius = np.sqrt(-2.0 * np.log(((first >> 11) + 1) * 2.0**-53))
    return radius * np.cos(2.0 * np.pi * ((second >> 11) * 2.0**-53))


def noise_factors(seed: int, indices: Iterable[int], noise: float) -> np.ndarray:
    """The noise multiplier of every index under ``seed`` (ones if no noise)."""
    if not noise:
        return np.ones(len(list(indices)), dtype=np.float64)
    return np.exp(standard_normals(seed, indices) * noise - 0.5 * noise**2)
