"""Seeded randomness and weight initialization for the whole package.

Vectors are 1-D float64 numpy arrays and matrices are 2-D float64 numpy
arrays, row-major. Disk formats store float32, so loaders widen to float64
on the way in.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray


class SeededRng:
    """Deterministic random source backed by a PCG64 stream.

    The same 64-bit seed yields a bit-identical draw sequence on every
    platform numpy supports, which is what makes training runs and the
    synthetic corpus reproducible across machines.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low: float, high: float, shape=None) -> Array:
        return self._gen.uniform(low, high, shape)

    def normal(self, scale: float = 1.0, shape=None) -> Array:
        return self._gen.normal(0.0, scale, shape)

    def integers(self, low: int, high: int, shape=None) -> Array:
        return self._gen.integers(low, high, shape)

    def permutation(self, n: int) -> Array:
        return self._gen.permutation(n)

    def choice_without_replacement(self, n: int, k: int) -> Array:
        return self._gen.choice(n, size=k, replace=False)

    def spawn(self, offset: int) -> "SeededRng":
        """Derive an independent stream; (seed, offset) fully determines it."""
        return SeededRng((self.seed * 0x9E3779B97F4A7C15 + offset) % (1 << 63))


def init_params(rows: int, cols: int, rng: SeededRng, scale: float | None = None) -> Array:
    """Weight matrix with entries uniform in [-scale, +scale].

    Default scale is 1/sqrt(cols), i.e. scaled by fan-in.
    """
    if scale is None:
        scale = 1.0 / np.sqrt(cols)
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return rng.uniform(-scale, scale, (rows, cols))

