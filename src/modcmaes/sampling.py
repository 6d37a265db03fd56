"""Mutation base-vector generators.

The ES engine consumes batches of standard-normal vectors. The base
stream is either a seeded Gaussian generator or a low-discrepancy
sequence (Sobol or Halton) pushed through the inverse normal CDF. Two
decorations can be stacked on top of any base: orthonormalization of
each freshly drawn group (the Q of a QR with R's diagonal made
non-negative, which are Gram-Schmidt's directions, with lengths
restored to the raw norms) and mirroring (every second vector is the
negation of the one before it).

A stack of groups is orthonormalized by one call of each LAPACK gufunc
behind :func:`numpy.linalg.qr`, which gives each group the same doubles
as ``qr`` of that group alone. Halton coordinates run the digit loop of
:func:`radical_inverse` elementwise over (count, D), with the same
doubles as the scalar definition; the low digits of each index are read
from a small per-base table of the loop's partial sums, memoized on the
tuple of bases, and the loop adds only the high digits.

A :class:`Sampler` serves batches of one size, fixed when it is built,
and makes them ahead: one refill draws the raw rows of many calls with
one base draw, and orthonormalizes them with one QR for the full blocks
and one for the remainder groups. Every returned double is the one a
call would get by itself.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import qr_r_raw, qr_reduced

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


# Residues per digit table: the low digits of a Halton index are read
# from a table of at most this many entries per base.
_TABLE_WIDTH = 4096


def _digit_loop(index, bases, inv, denom):
    """The loop of :func:`radical_inverse`, elementwise.

    Digits are taken least significant first until every ``index`` is
    exhausted; an entry that runs out early adds ``0.0``, which leaves
    its sum unchanged, so each entry gets the scalar loop's value.
    """
    while index.any():
        index, digit = np.divmod(index, bases)
        denom = denom * bases
        inv = inv + digit / denom
    return inv, denom


@functools.cache
def _digit_tables(primes: tuple[int, ...]):
    """Loop state after the low digits of every residue, per base.

    For base b the table covers the low L digits, b**L <= _TABLE_WIDTH
    (L = 0 for larger bases): entry r is the partial sum after L steps
    of the digit loop on r, and ``denoms`` holds b**L as the loop
    computes it. The tables of all bases are concatenated.
    """
    sums, widths, denoms = [], [], []
    for b in primes:
        width = 1
        while width * b <= _TABLE_WIDTH:
            width *= b
        inv, denom = _digit_loop(np.arange(width), b, np.zeros(width), 1.0)
        sums.append(inv)
        widths.append(width)
        denoms.append(denom)
    widths = np.array(widths)
    offsets = np.cumsum(widths) - widths
    tables = (np.array(primes), widths, offsets, np.concatenate(sums),
              np.array(denoms))
    for a in tables:
        a.setflags(write=False)
    return tables


def _halton(index: np.ndarray, primes: tuple[int, ...]) -> np.ndarray:
    """Halton points ``index`` (1-D, non-negative), one row per index.

    Equal, bit for bit, to :func:`radical_inverse` per coordinate: the
    low digits come from the memoized tables, and the digit loop adds
    the high ones.
    """
    bases, widths, offsets, sums, denoms = _digit_tables(primes)
    high, low = np.divmod(index[:, None], widths)
    inv, _ = _digit_loop(high, bases, sums[offsets + low], denoms)
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
        if index >= 2**63:
            raise ValueError("halton index must be < 2**63")
        return _halton(np.array([index]), tuple(first_primes(dimension)))[0]
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
    from scipy.special import ndtri  # costly import; Sobol and Halton only

    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("coordinates must lie strictly inside (0, 1)")
    return ndtri(u)


def _orthonormalize(groups: np.ndarray) -> np.ndarray:
    """Orthonormalize the rows of each group, at their raw lengths.

    ``groups`` has shape (k, n, D) with n <= D. One QR of the stacked,
    transposed groups gives each group's Gram-Schmidt directions once
    every column of Q is flipped so that R's diagonal is non-negative;
    row j is then rescaled to the Euclidean norm of raw row j. A row
    whose R diagonal is exactly 0, such as a zero row, keeps its raw
    value. The QR calls the two LAPACK gufuncs that ``numpy.linalg.qr``
    wraps, with its bits, and reads R's diagonal from the copy that
    ``qr_r_raw`` factors in place; a failed call raises ``LinAlgError``.
    """
    a = groups.transpose(0, 2, 1).copy()
    with np.errstate(all="ignore", invalid="raise"):
        try:
            q = qr_reduced(a, qr_r_raw(a, signature="d->d"), signature="dd->d")
        except FloatingPointError:
            raise np.linalg.LinAlgError("QR factorization failed") from None
    diag = np.diagonal(a, axis1=-2, axis2=-1)[..., None]
    # what np.linalg.norm(groups, axis=-1) evaluates, without its overhead
    norms = np.sqrt(np.add.reduce(groups * groups, axis=-1))[..., None]
    scaled = q.transpose(0, 2, 1) * np.where(diag < 0, -norms, norms)
    return np.where(diag == 0, groups, scaled)


# Raw values one refill may draw ahead of the calls it serves.
_AHEAD_CAP = 2**14


class Sampler:
    """Sequential stateful stream of mutation base vectors, ``count`` a call.

    One instance serves a single consumer; independent instances with
    distinct seeds can run concurrently. ``next_batch`` orthonormalizes
    each group of min(fresh rows, D) freshly drawn rows of the call (a
    single-row group stays raw) and mirrors pairs afterwards, so mirror
    images keep the orthogonality.

    Batches are made ahead (see the module docstring): a refill makes K
    batches from one base draw and shares its QR calls among them, where
    K starts at 1 and doubles with each refill while the raw values
    drawn stay within ``_AHEAD_CAP``.
    """

    def __init__(self, spec: SamplerSpec, count: int):
        if count < 1:
            raise ValueError("count must be >= 1")
        self.spec = spec
        self.count = count
        d = spec.dimension
        self._fresh_n = (count + 1) // 2 if spec.mirrored else count
        self._ahead, self._served = np.empty((0, count, d)), 0  # batches, served
        self._k = 0
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
            self._primes = tuple(first_primes(d))
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
        u = _halton(self._index + np.arange(count), self._primes)
        self._index += count
        return gaussian_transform(u)

    def _refill(self) -> None:
        """Make the next K batches in one pass."""
        spec, d, fresh_n = self.spec, self.spec.dimension, self._fresh_n
        k = self._k = max(1, min(2 * self._k, _AHEAD_CAP // (fresh_n * d)))
        fresh = self._raw(k * fresh_n).reshape(k, fresh_n, d)
        if spec.orthogonal:
            block = min(fresh_n, d)
            full = fresh_n - fresh_n % block
            if block > 1:
                fresh[:, :full] = _orthonormalize(
                    fresh[:, :full].reshape(-1, block, d)
                ).reshape(k, full, d)
            if fresh_n - full > 1:
                fresh[:, full:] = _orthonormalize(fresh[:, full:])
        if spec.mirrored:
            batch = np.empty((k, 2 * fresh_n, d))
            batch[:, 0::2] = fresh
            batch[:, 1::2] = -fresh
            fresh = batch[:, :self.count]
        self._ahead, self._served = fresh, 0

    def next_batch(self) -> np.ndarray:
        """Return the next ``count`` vectors as a (count, D) array."""
        if self._served == len(self._ahead):
            self._refill()
        self._served += 1
        return self._ahead[self._served - 1]


def next_batch(spec: SamplerSpec, count: int) -> np.ndarray:
    """Draw ``count`` vectors from a fresh stream built from ``spec``."""
    return Sampler(spec, count).next_batch()
