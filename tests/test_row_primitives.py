"""Per-row bits of the engine's stacked numpy primitives.

The engine evaluates a generation as one block of rows, and every row
must get the doubles that its own per-row expression gives. These tests
pin each primitive against that reference for every D in ``DIMENSIONS``
and block sizes from 1 to 40 and up to the populations that IPOP's
doubling reaches at 20-D (12 * 2**7 = 1536 rows), so a numpy upgrade
that changes one of them fails here, on that primitive, and not only on
a golden digest.
The threshold's row norms are pinned the same way in ``test_core.py``
(``TestApplyThreshold``).
"""

import numpy as np
import pytest

from modcmaes import sampling
from modcmaes.benchmarks import DIMENSIONS, FUNCTIONS, make_problem
from modcmaes.sampling import _orthonormalize

# Small blocks one by one, then large ones: 200, 12 * 2**6 and 12 * 2**7
# (IPOP's doubled populations at 20-D, within the 20,000-row budget) and
# 1,000.
BLOCKS = (*range(1, 41), 200, 768, 1000, 1536)


def _rows(rng, n, d):
    """Rows of mixed magnitudes, so that the summation order shows."""
    return rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, (n, 1))


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", DIMENSIONS)
def test_rowdot_matches_per_row_dot(d):
    # The raw functions' np.vecdot, row by row a[i] @ b[i].
    rng = np.random.default_rng(d)
    coeff = 10.0 ** (6.0 * np.arange(d) / (d - 1))
    for n in BLOCKS:
        a, b = _rows(rng, n, d), _rows(rng, n, d)
        assert _same_bits(np.vecdot(a, b), [a[i] @ b[i] for i in range(n)])
        assert _same_bits(np.vecdot(a, a), [a[i] @ a[i] for i in range(n)])
        # the ellipsoid's form: every row against one coefficient vector
        sq = a * a
        assert _same_bits(np.vecdot(sq, coeff), [sq[i] @ coeff for i in range(n)])


@pytest.mark.parametrize("d", DIMENSIONS)
def test_matvec_matches_per_row_product(d):
    # The generation step's Y = np.matvec(B, Z * d_sqrt), row by row
    # B @ (d_sqrt * z), with B orthonormal as eigh's eigenvectors are.
    rng = np.random.default_rng(100 + d)
    B, _ = np.linalg.qr(rng.standard_normal((d, d)))
    d_sqrt = np.sqrt(10.0 ** rng.uniform(-6, 6, d))
    for n in BLOCKS:
        Z = rng.standard_normal((n, d))
        want = [B @ (d_sqrt * Z[i]) for i in range(n)]
        assert _same_bits(np.matvec(B, Z * d_sqrt), want)


@pytest.mark.parametrize("d", DIMENSIONS)
@pytest.mark.parametrize(
    "function_id",
    [fid for fid, fdef in FUNCTIONS.items() if fdef.rotated],
)
def test_rotated_error_matches_per_row_rotation(function_id, d):
    # Problem.error rotates a block with np.matvec; each row must read
    # the raw function of rotation.T @ (x - x_opt) for that row alone.
    p = make_problem(function_id, d)
    raw = FUNCTIONS[function_id].raw
    rng = np.random.default_rng(200 + d)
    for n in BLOCKS:
        X = rng.uniform(-5.0, 5.0, (n, d))
        want = [
            raw((p.rotation.T @ (X[i] - p.x_opt))[None], p.aux)[0]
            for i in range(n)
        ]
        assert _same_bits(p.error(X), want)


def _qr_reference(group):
    """One group through ``numpy.linalg.qr``, as the sampler defines it."""
    q, r = np.linalg.qr(group.T)
    diag = np.diagonal(r)[:, None]
    norms = np.linalg.norm(group, axis=-1)[:, None]
    scaled = q.T * np.where(diag < 0, -norms, norms)
    return np.where(diag == 0, group, scaled)


def _group_cases(d, rng):
    """Stacks (k, n, D): every n <= D, k from 1 to 7, zero rows, and a
    refill-sized stack of 200 full groups."""
    yield rng.standard_normal((200, d, d))
    for n in range(1, d + 1):
        for k in (1, 2, 7):
            yield rng.standard_normal((k, n, d))
        stack = rng.standard_normal((3, n, d))
        stack[1, n // 2] = 0.0  # a zero row in the middle group
        yield stack
        if n > 1:
            stack = rng.standard_normal((2, n, d))
            stack[0, -1] = stack[0, 0]  # a repeated row
            yield stack


@pytest.mark.parametrize("d", DIMENSIONS)
def test_direct_qr_matches_numpy_qr_per_group(d):
    rng = np.random.default_rng(400 + d)
    for groups in _group_cases(d, rng):
        raw = groups.copy()
        got = _orthonormalize(groups)
        assert np.array_equal(groups, raw)  # the input is left as it was
        want = [_qr_reference(g) for g in groups]
        assert _same_bits(got, want), groups.shape


def test_failed_qr_raises_linalg_error(monkeypatch):
    # The LAPACK gufuncs report a failed call only as an invalid-value
    # floating-point error; stand one in for qr_r_raw.
    def failing(a, signature):
        return np.sqrt(np.full(a.shape[:-2] + (a.shape[-1],), -1.0))

    monkeypatch.setattr(sampling, "qr_r_raw", failing)
    with pytest.raises(np.linalg.LinAlgError):
        _orthonormalize(np.ones((1, 2, 3)))
