"""Noiseless test problems for fixed-target benchmarking.

A representative ten-function suite standing in for the usual noiseless
benchmark collection: every function is minimized, shifted to a seeded
optimum ``x_opt`` with value offset ``f_opt``, optionally rotated, and
reported as error ``f(x) - f_opt`` against a target precision of 1e-8
inside the box [-5, 5]^D, whose bounds are the two floats
``Problem.lower`` and ``Problem.upper``. Each (function, dimension)
pair has one instance, seeded by a CRC of its name. Each raw function
works along the last axis of its input, so :meth:`Problem.error`
evaluates a block of points (n, D) in one call; its dot products use
``np.vecdot``, which gives row i the bits of ``a[i] @ b[i]`` where a
matrix-vector product does not. :data:`FUNCTIONS` is the one place
where a function's subgroup is written: :data:`SUBGROUPS`,
:func:`subgroup_of` and :func:`suite_manifest` read it there.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable

import numpy as np

__all__ = [
    "Problem",
    "FUNCTIONS",
    "SUBGROUPS",
    "DIMENSIONS",
    "subgroup_of",
    "make_problem",
    "make_suite",
    "suite_manifest",
    "default_budget",
]

DIMENSIONS = (2, 3, 5, 10, 20)

DEFAULT_TARGET = 1e-8
LOWER, UPPER = -5.0, 5.0


def default_budget(dimension: int) -> int:
    """Standard per-run evaluation budget: 1000 * D."""
    return 1000 * dimension


def _sphere(z: np.ndarray, aux: dict) -> np.ndarray:
    return np.vecdot(z, z)


@cache
def _ellipsoid_coeff(d: int) -> np.ndarray:
    """Per-dimension conditioning weights 10^(6 i / (D - 1)), read-only."""
    coeff = 10.0 ** (6.0 * np.arange(d) / (d - 1))
    coeff.flags.writeable = False
    return coeff


def _ellipsoid(z: np.ndarray, aux: dict) -> np.ndarray:
    return np.vecdot(z * z, _ellipsoid_coeff(z.shape[-1]))


def _rastrigin(z: np.ndarray, aux: dict) -> np.ndarray:
    d = z.shape[-1]
    return 10.0 * (d - np.cos(2.0 * np.pi * z).sum(axis=-1)) + np.vecdot(z, z)


def _attractive_sector(z: np.ndarray, aux: dict) -> np.ndarray:
    s = np.where(z > 0.0, 100.0, 1.0)
    return ((s * z) ** 2).sum(axis=-1)


def _rosenbrock(z: np.ndarray, aux: dict) -> np.ndarray:
    w = z + 1.0
    head, tail = w[..., :-1], w[..., 1:]
    return (100.0 * (head**2 - tail) ** 2 + (head - 1.0) ** 2).sum(axis=-1)


def _discus(z: np.ndarray, aux: dict) -> np.ndarray:
    return 1e6 * z[..., 0] ** 2 + (z[..., 1:] ** 2).sum(axis=-1)


def _schaffers(z: np.ndarray, aux: dict) -> np.ndarray:
    s = np.sqrt(z[..., :-1] ** 2 + z[..., 1:] ** 2)
    inner = np.sqrt(s) * (1.0 + np.sin(50.0 * s**0.2) ** 2)
    return (inner.sum(axis=-1) / (z.shape[-1] - 1)) ** 2


def _gallagher(z: np.ndarray, aux: dict) -> np.ndarray:
    centers = aux["centers"]  # (n_peaks, D); row 0 is the origin
    heights = aux["heights"]  # row 0 has height 10.0
    scales = aux["scales"]  # (n_peaks, D) diagonal quadratic forms
    diff = z[..., None, :] - centers
    expo = (scales * diff * diff).sum(axis=-1) / (2.0 * z.shape[-1])
    best = (heights * np.exp(-expo)).max(axis=-1)
    return (10.0 - best) ** 2


@dataclass(frozen=True)
class _FunctionDef:
    raw: Callable[[np.ndarray, dict], np.ndarray]  # along the last axis
    subgroup: str
    rotated: bool
    make_aux: Callable[[int, np.random.Generator], dict] | None = None


def _gallagher_aux(dimension: int, rng: np.random.Generator) -> dict:
    n_peaks = 21
    centers = rng.uniform(-4.0, 4.0, size=(n_peaks, dimension))
    centers[0] = 0.0
    heights = np.concatenate(([10.0], rng.uniform(1.1, 9.5, size=n_peaks - 1)))
    conditions = 10.0 ** rng.uniform(0.0, 2.0, size=(n_peaks, dimension))
    return {"centers": centers, "heights": heights, "scales": conditions}


FUNCTIONS: dict[str, _FunctionDef] = {
    "sphere": _FunctionDef(_sphere, "separable", rotated=False),
    "ellipsoid_separable": _FunctionDef(_ellipsoid, "separable", rotated=False),
    "rastrigin_separable": _FunctionDef(_rastrigin, "separable", rotated=False),
    "attractive_sector": _FunctionDef(
        _attractive_sector, "low_moderate_conditioning", rotated=True
    ),
    "rosenbrock_rotated": _FunctionDef(
        _rosenbrock, "low_moderate_conditioning", rotated=True
    ),
    "ellipsoid_rotated": _FunctionDef(
        _ellipsoid, "high_conditioning_unimodal", rotated=True
    ),
    "discus": _FunctionDef(_discus, "high_conditioning_unimodal", rotated=True),
    "rastrigin_rotated": _FunctionDef(
        _rastrigin, "multimodal_adequate", rotated=True
    ),
    "schaffers": _FunctionDef(_schaffers, "multimodal_adequate", rotated=True),
    "gallagher": _FunctionDef(
        _gallagher, "multimodal_weak", rotated=False, make_aux=_gallagher_aux
    ),
}


# Each subgroup once, in the order the table first names it.
SUBGROUPS = tuple(dict.fromkeys(f.subgroup for f in FUNCTIONS.values()))


def subgroup_of(function_id: str) -> str:
    return FUNCTIONS[function_id].subgroup


def _random_rotation(dimension: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((dimension, dimension))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


@dataclass(frozen=True)
class Problem:
    """One shifted/rotated minimization problem on [lower, upper]^D =
    [-5, 5]^D; its ``target_precision`` is the one target of a run, its
    ERT and ``compare``."""

    lower = LOWER  # the box's two floats: class attributes, not fields
    upper = UPPER

    function_id: str
    dimension: int
    x_opt: np.ndarray
    f_opt: float
    rotation: np.ndarray
    seed: int
    target_precision: float = DEFAULT_TARGET
    aux: dict = field(default_factory=dict)

    @cached_property
    def _unrotated(self) -> bool:
        return bool((self.rotation == np.eye(self.dimension)).all())

    def error(self, x: np.ndarray) -> np.ndarray | float:
        """Nonnegative optimality gap ``f(x) - f_opt`` of a point or a block.

        ``x`` is one point (D,), which gives a ``float``, or a block of
        rows (n, D), evaluated in one call, which gives an (n,) array. A
        point is evaluated as the block of its one row, and row i of any
        block has the bits of ``error(x[i])``: a point's error never
        depends on the block it was evaluated in.

        An identity rotation (sphere, ellipsoid_separable,
        rastrigin_separable, gallagher) is skipped: on finite rows its
        product gives the bits of ``x - x_opt``. A row holding an infinity
        then escapes the product's ``0 * inf = NaN``: it reads ``inf`` on
        sphere and ellipsoid_separable, still ``NaN`` on
        rastrigin_separable, and ``100.0``, its limit, on gallagher.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.dimension:
            raise ValueError(
                f"expected shape ({self.dimension},) or (n, {self.dimension}),"
                f" got {x.shape}"
            )
        z = x.reshape(-1, self.dimension) - self.x_opt
        if not self._unrotated:
            # np.matvec gives the bits of rotation.T @ z[i] row by row.
            z = np.matvec(self.rotation.T, z)
        err = FUNCTIONS[self.function_id].raw(z, self.aux)
        return float(err[0]) if x.ndim == 1 else err


def make_problem(function_id: str, dimension: int) -> Problem:
    """Instantiate one problem from its instance seed.

    The instance seed is a CRC of ``"<function>/<dim>"`` so that every
    process asking for, say, sphere in 5-D gets the identical shifted
    instance.
    """
    if function_id not in FUNCTIONS:
        raise KeyError(
            f"unknown function {function_id!r}; known: {sorted(FUNCTIONS)}"
        )
    if dimension not in DIMENSIONS:
        raise ValueError(f"dimension must be one of {DIMENSIONS}")
    seed = zlib.crc32(f"{function_id}/{dimension}".encode())
    fdef = FUNCTIONS[function_id]
    rng = np.random.default_rng(seed)
    x_opt = rng.uniform(-4.0, 4.0, size=dimension)
    f_opt = float(np.round(rng.uniform(-100.0, 100.0), 2))
    rotation = (
        _random_rotation(dimension, rng) if fdef.rotated else np.eye(dimension)
    )
    aux = fdef.make_aux(dimension, rng) if fdef.make_aux else {}
    return Problem(
        function_id=function_id,
        dimension=dimension,
        x_opt=x_opt,
        f_opt=f_opt,
        rotation=rotation,
        seed=seed,
        aux=aux,
    )


def make_suite() -> list[Problem]:
    """All ten functions in all five dimensions."""
    return [make_problem(fid, dim) for fid in FUNCTIONS for dim in DIMENSIONS]


def suite_manifest(suite: list[Problem]) -> str:
    """Line-delimited table: function_id, dimension, subgroup, seed."""
    lines = ["function_id\tdimension\tsubgroup\tseed"]
    for p in suite:
        group = subgroup_of(p.function_id)
        lines.append(f"{p.function_id}\t{p.dimension}\t{group}\t{p.seed}")
    return "\n".join(lines) + "\n"
