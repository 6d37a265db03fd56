import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import erf

import modcmaes
from modcmaes.sampling import (
    _AHEAD_CAP,
    CapabilityError,
    Sampler,
    SamplerSpec,
    first_primes,
    gaussian_transform,
    next_batch,
    quasi_uniform,
    radical_inverse,
)


def test_first_primes():
    assert first_primes(8) == [2, 3, 5, 7, 11, 13, 17, 19]


def test_radical_inverse_base2_prefix():
    # Hand computation: reversed binary digits after the point.
    assert [radical_inverse(i, 2) for i in (1, 2, 3, 4)] == [
        0.5,
        0.25,
        0.75,
        0.125,
    ]


def test_quasi_uniform_halton_prefix():
    vals = [quasi_uniform("halton", 2, i)[0] for i in (1, 2, 3, 4)]
    assert vals == [0.5, 0.25, 0.75, 0.125]
    # second coordinate uses base 3
    assert quasi_uniform("halton", 2, 1)[1] == pytest.approx(1.0 / 3.0)


def test_quasi_uniform_deterministic():
    for base in ("sobol", "halton"):
        a = quasi_uniform(base, 3, 17)
        b = quasi_uniform(base, 3, 17)
        assert np.array_equal(a, b)


def test_sobol_dyadic_stratification():
    # First 2^k one-dimensional points land one per dyadic interval.
    for k in (2, 3, 4, 6):
        pts = np.array(
            [quasi_uniform("sobol", 1, i)[0] for i in range(2**k)]
        )
        bins = np.floor(pts * 2**k).astype(int)
        assert sorted(bins) == list(range(2**k))


def test_sobol_dimension_capability():
    with pytest.raises(CapabilityError):
        quasi_uniform("sobol", 30000, 1)


def test_gaussian_transform_median_and_one_sigma():
    assert np.allclose(gaussian_transform(np.array([0.5, 0.5])), 0.0)
    # Independent oracle: Phi(1) computed from erf.
    phi_1 = 0.5 * (1.0 + erf(1.0 / math.sqrt(2.0)))
    out = gaussian_transform(np.array([phi_1]))
    assert abs(out[0] - 1.0) <= 1e-6


def test_gaussian_transform_monotone():
    rng = np.random.default_rng(0)
    u = rng.uniform(0.01, 0.49, size=20)
    v = u + 0.5
    assert np.all(gaussian_transform(v) > gaussian_transform(u))


def test_gaussian_transform_domain_errors():
    for bad in ([0.0, 0.5], [0.5, 1.0]):
        with pytest.raises(ValueError):
            gaussian_transform(np.array(bad))


def test_mirrored_pairs():
    spec = SamplerSpec(base="gaussian", mirrored=True, dimension=2, seed=5)
    batch = next_batch(spec, 6)
    for i in range(0, 6, 2):
        assert np.array_equal(batch[i + 1], -batch[i])
    assert np.all(batch.sum(axis=0) == 0.0)


def test_mirrored_odd_batch():
    spec = SamplerSpec(base="gaussian", mirrored=True, dimension=3, seed=1)
    batch = next_batch(spec, 5)
    assert batch.shape == (5, 3)
    assert np.array_equal(batch[1], -batch[0])
    assert np.array_equal(batch[3], -batch[2])


def test_orthogonal_gram_matrix():
    spec = SamplerSpec(base="gaussian", orthogonal=True, dimension=5, seed=3)
    batch = next_batch(spec, 5)
    gram = batch @ batch.T
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) <= 1e-10


def test_orthogonal_preserves_raw_norms():
    spec_plain = SamplerSpec(base="gaussian", dimension=4, seed=11)
    spec_orth = SamplerSpec(base="gaussian", orthogonal=True, dimension=4, seed=11)
    raw = next_batch(spec_plain, 4)
    orth = next_batch(spec_orth, 4)
    assert np.allclose(
        np.linalg.norm(raw, axis=1), np.linalg.norm(orth, axis=1)
    )


def test_orthogonal_blocks_beyond_dimension():
    # 8 fresh draws in 3-D: two blocks of 3 and one of 2, each orthogonal.
    spec = SamplerSpec(base="gaussian", orthogonal=True, dimension=3, seed=7)
    batch = next_batch(spec, 8)
    for start, stop in ((0, 3), (3, 6), (6, 8)):
        block = batch[start:stop]
        gram = block @ block.T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-10


def test_mirrored_orthogonal_combination():
    spec = SamplerSpec(
        base="gaussian", mirrored=True, orthogonal=True, dimension=4, seed=9
    )
    batch = next_batch(spec, 8)
    fresh = batch[0::2]
    gram = fresh @ fresh.T
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) <= 1e-10
    # mirrors stay orthogonal to the other fresh vectors
    assert abs(batch[1] @ batch[2]) <= 1e-10
    assert np.all(batch.sum(axis=0) == 0.0)


@pytest.mark.parametrize("base", ["sobol", "halton"])
def test_quasi_gaussian_moments(base):
    spec = SamplerSpec(base=base, dimension=2, seed=1234)
    batch = next_batch(spec, 4096)
    mean = batch.mean(axis=0)
    var = batch.var(axis=0)
    assert np.all(np.abs(mean) <= 0.05)
    assert np.all(np.abs(var - 1.0) <= 0.1)


def test_gaussian_stream_deterministic():
    a = next_batch(SamplerSpec(base="gaussian", dimension=3, seed=77), 10)
    b = next_batch(SamplerSpec(base="gaussian", dimension=3, seed=77), 10)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("base", ["sobol", "halton"])
def test_quasi_stream_deterministic_and_seed_dependent(base):
    a = next_batch(SamplerSpec(base=base, dimension=3, seed=5), 16)
    b = next_batch(SamplerSpec(base=base, dimension=3, seed=5), 16)
    c = next_batch(SamplerSpec(base=base, dimension=3, seed=6), 16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_continues_across_calls():
    s = Sampler(SamplerSpec(base="gaussian", dimension=2, seed=4), 3)
    first = s.next_batch()
    second = s.next_batch()
    assert not np.array_equal(first, second)
    combined = next_batch(SamplerSpec(base="gaussian", dimension=2, seed=4), 6)
    assert np.allclose(np.vstack([first, second]), combined)


def test_next_batch_rejects_bad_count():
    spec = SamplerSpec(base="gaussian", dimension=2, seed=0)
    with pytest.raises(ValueError):
        next_batch(spec, 0)


def test_spec_validation():
    with pytest.raises(ValueError):
        SamplerSpec(base="lattice", dimension=2)
    with pytest.raises(ValueError):
        SamplerSpec(base="gaussian", dimension=0)


def test_package_import_leaves_scipy_stats_unloaded():
    # No scipy module is loaded by the package or its CLI. scipy.stats
    # is the costliest import; only Sobol streams need it. scipy.special
    # is next; only quasi-random streams and comparisons do. scipy.linalg
    # (about 0.27 s) is needed by nothing: the engine's eigensolver is
    # numpy's.
    src = os.path.dirname(os.path.dirname(modcmaes.__file__))
    code = (
        "import sys, modcmaes.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def _gram_schmidt_rowwise(group):
    """Tolerance oracle: modified Gram-Schmidt over one group, row by row."""
    q = group.astype(float, copy=True)
    norms = np.linalg.norm(group, axis=1)
    for _ in range(2):
        for i in range(len(q)):
            for j in range(i):
                q[i] -= (q[i] @ q[j]) * q[j]
            ni = np.linalg.norm(q[i])
            if ni == 0.0:
                q[i] = group[i]
                ni = norms[i] if norms[i] > 0 else 1.0
            q[i] /= ni
    return q * norms[:, None]


def _qr_group(group):
    """Reference: the QR of one group, Q's columns signed by R's diagonal.

    Row j becomes column j of Q at the raw norm of row j; a row whose R
    diagonal is 0 keeps its raw value.
    """
    q, r = np.linalg.qr(group.T)
    norms = np.linalg.norm(group, axis=1)
    out = group.astype(float, copy=True)
    for j in range(len(group)):
        if r[j, j] != 0.0:
            out[j] = q[:, j] * (norms[j] if r[j, j] > 0 else -norms[j])
    return out


def _halton_pointwise(start, count, dimension):
    """Reference: one radical_inverse call per Halton coordinate."""
    primes = first_primes(dimension)
    return np.array(
        [[radical_inverse(start + k, b) for b in primes] for k in range(count)]
    )


def _reference_batch(spec, fresh, decorate=_qr_group):
    """Reference decoration of the fresh draws of one next_batch call."""
    fresh_n, d = fresh.shape
    if spec.orthogonal:
        block = min(fresh_n, d)
        fresh = fresh.copy()
        for start in range(0, fresh_n, block):
            stop = min(start + block, fresh_n)
            if stop - start > 1:
                fresh[start:stop] = decorate(fresh[start:stop])
    if not spec.mirrored:
        return fresh
    batch = np.empty((2 * fresh_n, d))
    batch[0::2] = fresh
    batch[1::2] = -fresh
    return batch


def _raw_pointwise(spec, count):
    """The first ``count`` raw rows of a stream, Halton point by point."""
    if spec.base != "halton":
        return Sampler(spec, count)._raw(count)
    start = 1 + int(np.random.default_rng(spec.seed).integers(1 << 16))
    return gaussian_transform(_halton_pointwise(start, count, spec.dimension))


@pytest.mark.parametrize("base", ["gaussian", "sobol", "halton"])
def test_next_batch_bit_identical_to_rowwise_reference(base):
    for mirrored, orthogonal, d in itertools.product(
        (False, True), (False, True), (2, 3, 5, 10, 20)
    ):
        spec = SamplerSpec(base=base, mirrored=mirrored,
                           orthogonal=orthogonal, dimension=d, seed=d)
        for count in sorted({1, d - 1, d, d + 1, 3 * d + 2, 400}):
            fresh_n = (count + 1) // 2 if mirrored else count
            want = _reference_batch(spec, _raw_pointwise(spec, fresh_n))[:count]
            got = Sampler(spec, count).next_batch()
            assert np.array_equal(got, want), (spec, count)


@pytest.mark.parametrize("base", ["gaussian", "sobol", "halton"])
@pytest.mark.parametrize("mirrored", [False, True])
def test_orthogonal_groups_match_gram_schmidt(base, mirrored):
    """Each decorated group is Gram-Schmidt's within 1e-10 of its raw norm."""
    for d in (2, 3, 5, 10, 20):
        spec = SamplerSpec(base=base, mirrored=mirrored, orthogonal=True,
                           dimension=d, seed=d)
        for count in range(1, 3 * d + 3):
            fresh_n = (count + 1) // 2 if mirrored else count
            raw = _raw_pointwise(spec, fresh_n)
            want = _reference_batch(spec, raw, _gram_schmidt_rowwise)[:count]
            got = Sampler(spec, count).next_batch()
            plain = _reference_batch(spec, raw, lambda group: group)[:count]
            scale = np.linalg.norm(plain, axis=1)
            assert np.all(np.abs(got - want).max(axis=1) <= 1e-10 * scale), (
                spec, count)


def test_orthogonal_degenerate_group_bit_identical():
    # Group one is rank deficient: row 1 is a multiple of row 0 and
    # row 2 is zero, so both take the degenerate branch; group two is
    # a regular draw stacked with it.
    raw = np.vstack([
        [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        np.random.default_rng(2).standard_normal((4, 3)),
    ])
    spec = SamplerSpec(base="gaussian", orthogonal=True, dimension=3, seed=0)
    sampler = Sampler(spec, 7)
    sampler._raw = lambda count: raw[:count].copy()
    got = sampler.next_batch()
    assert np.array_equal(got, _reference_batch(spec, raw))
    assert np.array_equal(got[:3], [[1.0, 0, 0], [2.0, 0, 0], [0, 0, 0]])


def test_halton_bit_identical_past_table_width():
    # Small indices live in the digit tables; large ones need the loop.
    for d in (1, 2, 5, 20):
        for index in (0, 1, 2, 4095, 4096, 4097, 65537, 2**20 + 3,
                      10**15 + 7, 2**63 - 1):
            want = [radical_inverse(index, b) for b in first_primes(d)]
            assert np.array_equal(quasi_uniform("halton", d, index), want)
    with pytest.raises(ValueError):
        quasi_uniform("halton", 2, 2**63)
    s = Sampler(SamplerSpec(base="halton", dimension=3, seed=1), 50)
    s._index = 10**12
    got = s.next_batch()
    want = gaussian_transform(_halton_pointwise(10**12, 50, 3))
    assert np.array_equal(got, want)


def _recording(sampler):
    """The row counts of the sampler's base draws, recorded as it draws."""
    raw, sizes = sampler._raw, []
    sampler._raw = lambda count: sizes.append(count) or raw(count)
    return sizes


@pytest.mark.parametrize("base", ["gaussian", "sobol", "halton"])
@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("orthogonal", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 20])
def test_look_ahead_matches_per_call_draws(base, mirrored, orthogonal, d):
    """Batches made ahead are the bytes each call would draw by itself."""
    for count in sorted({1, 2, d, d + 1, 2 * d + 3, 50}):
        spec = SamplerSpec(base=base, mirrored=mirrored, orthogonal=orthogonal,
                           dimension=d, seed=100 * d + count)
        sampler, reference = Sampler(spec, count), Sampler(spec, count)
        fresh_n = (count + 1) // 2 if mirrored else count
        # 70 calls span seven doubling refills, or the cap for large counts.
        for call in range(70):
            want = _reference_batch(spec, reference._raw(fresh_n))[:count]
            got = sampler.next_batch()
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (spec, count, call)


def test_look_ahead_holds_at_most_the_cap():
    most = []
    for d, count, calls in ((2, 6, 3000), (20, 12, 600), (5, 4096, 3)):
        sampler = Sampler(SamplerSpec(base="gaussian", mirrored=True,
                                      dimension=d, seed=1), count)
        sizes = _recording(sampler)
        for _ in range(calls):
            sampler.next_batch()
        most.append(max(sizes) * d)
    assert max(most) <= _AHEAD_CAP
    # The cap is approached: K doubles with each refill.
    assert most[0] > _AHEAD_CAP // 2


def test_look_ahead_draws_in_doubling_refills():
    sampler = Sampler(SamplerSpec(base="halton", dimension=2, seed=3), 1)
    sizes = _recording(sampler)
    for _ in range(64):
        sampler.next_batch()
    assert sizes == [1, 2, 4, 8, 16, 32, 64]
