"""Mutation base-vector generators.

The ES engine consumes batches of standard-normal vectors. The base
stream is either a seeded Gaussian generator or a low-discrepancy
sequence (Sobol or Halton) pushed through the inverse normal CDF. Two
decorations can be stacked on top of any base: orthonormalization of
each freshly drawn group (Gram-Schmidt, lengths restored to the raw
norms) and mirroring (every second vector is the negation of the one
before it).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

__all__ = [
    "SamplerSpec",
    "Sampler",
    "next_batch",
    "quasi_uniform",
    "gaussian_transform",
    "first_primes",
    "radical_inverse",
    "CapabilityError",
]

BASE_CHOICES = ("gaussian", "sobol", "halton")

# scipy ships direction numbers for this many Sobol dimensions.
_SOBOL_MAX_DIM = 21201


class CapabilityError(ValueError):
    """Requested dimension exceeds the supported sequence tables."""


@dataclass(frozen=True)
class SamplerSpec:
    """Recipe for one mutation-vector stream."""

    base: str = "gaussian"
    mirrored: bool = False
    orthogonal: bool = False
    dimension: int = 1
    seed: int | None = None

    def __post_init__(self):
        if self.base not in BASE_CHOICES:
            raise ValueError(f"base must be one of {BASE_CHOICES}")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")


def first_primes(n: int) -> list[int]:
    """The first ``n`` primes (Halton bases)."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def radical_inverse(index: int, base: int) -> float:
    """Van der Corput radical inverse of ``index`` in the given base."""
    inv = 0.0
    denom = 1.0
    while index > 0:
        index, digit = divmod(index, base)
        denom *= base
        inv += digit / denom
    return inv


def quasi_uniform(base: str, dimension: int, index: int) -> np.ndarray:
    """Point ``index`` of the unscrambled low-discrepancy sequence.

    Halton uses the first ``dimension`` primes as bases; Sobol uses the
    standard direction numbers. Index 0 is the all-zero point for both
    sequences, so streams that feed the Gaussian transform start at 1.
    """
    if base not in ("sobol", "halton"):
        raise ValueError(f"base must be 'sobol' or 'halton', got {base!r}")
    if index < 0:
        raise ValueError("index must be >= 0")
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if base == "halton":
        bases = first_primes(dimension)
        return np.array([radical_inverse(index, b) for b in bases])
    if dimension > _SOBOL_MAX_DIM:
        raise CapabilityError(
            f"sobol direction numbers available up to dimension {_SOBOL_MAX_DIM}"
        )
    from scipy.stats import qmc  # costly import; Sobol streams only

    engine = qmc.Sobol(d=dimension, scramble=False)
    if index > 0:
        engine.fast_forward(index)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return engine.random(1)[0]


def gaussian_transform(u: np.ndarray) -> np.ndarray:
    """Coordinate-wise inverse standard-normal CDF on (0,1)^D."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("coordinates must lie strictly inside (0, 1)")
    return ndtri(u)


def _orthonormalize(group: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with re-orthogonalization.

    Rows of ``group`` are replaced by mutually orthogonal vectors, each
    rescaled back to the Euclidean norm of the corresponding raw row so
    that length statistics match the plain base sampler.
    """
    q = group.astype(float, copy=True)
    norms = np.linalg.norm(group, axis=1)
    n = len(q)
    for _ in range(2):  # twice is enough for ~1e-16 off-diagonals
        for i in range(n):
            for j in range(i):
                q[i] -= (q[i] @ q[j]) * q[j]
            ni = np.linalg.norm(q[i])
            if ni == 0.0:
                # Degenerate draw; keep the raw direction untouched.
                q[i] = group[i]
                ni = norms[i] if norms[i] > 0 else 1.0
            q[i] /= ni
    return q * norms[:, None]


class Sampler:
    """Sequential stateful stream of mutation base vectors.

    One instance serves a single consumer; independent instances with
    distinct seeds can run concurrently. ``next_batch`` applies
    orthonormalization per freshly drawn group of the call and mirrors
    pairs afterwards, so mirror images keep the orthogonality.
    """

    def __init__(self, spec: SamplerSpec):
        self.spec = spec
        d = spec.dimension
        if spec.base == "gaussian":
            self._rng = np.random.default_rng(spec.seed)
        elif spec.base == "sobol":
            if d > _SOBOL_MAX_DIM:
                raise CapabilityError(
                    f"sobol direction numbers available up to dimension "
                    f"{_SOBOL_MAX_DIM}"
                )
            from scipy.stats import qmc  # costly import; Sobol streams only

            self._engine = qmc.Sobol(d=d, scramble=True, seed=spec.seed)
            self._engine.fast_forward(1)
        else:
            self._primes = first_primes(d)
            offset_rng = np.random.default_rng(spec.seed)
            # Random start offset so independent runs decorrelate.
            self._index = 1 + int(offset_rng.integers(1 << 16))

    def _raw(self, count: int) -> np.ndarray:
        spec = self.spec
        if spec.base == "gaussian":
            return self._rng.standard_normal((count, spec.dimension))
        if spec.base == "sobol":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                u = self._engine.random(count)
            # Scrambled points are a.s. interior; clamp guards the edge.
            tiny = np.finfo(float).tiny
            u = np.clip(u, tiny, 1.0 - np.finfo(float).epsneg)
            return gaussian_transform(u)
        u = np.empty((count, spec.dimension))
        for k in range(count):
            u[k] = [radical_inverse(self._index + k, b) for b in self._primes]
        self._index += count
        return gaussian_transform(u)

    def next_batch(self, count: int) -> np.ndarray:
        """Return ``count`` vectors as a (count, D) array."""
        if count < 1:
            raise ValueError("count must be >= 1")
        spec = self.spec
        fresh_n = (count + 1) // 2 if spec.mirrored else count
        fresh = self._raw(fresh_n)
        if spec.orthogonal:
            block = min(fresh_n, spec.dimension)
            out = fresh.copy()
            for start in range(0, fresh_n, block):
                stop = min(start + block, fresh_n)
                if stop - start > 1:
                    out[start:stop] = _orthonormalize(fresh[start:stop])
            fresh = out
        if not spec.mirrored:
            return fresh
        batch = np.empty((2 * fresh_n, spec.dimension))
        batch[0::2] = fresh
        batch[1::2] = -fresh
        return batch[:count]


def next_batch(spec: SamplerSpec, count: int) -> np.ndarray:
    """Draw ``count`` vectors from a fresh stream built from ``spec``."""
    return Sampler(spec).next_batch(count)
