import dataclasses
import math

import numpy as np
import pytest

from modcmaes.benchmarks import (
    DIMENSIONS,
    FUNCTIONS,
    SUBGROUPS,
    make_problem,
    make_suite,
    subgroup_of,
    suite_manifest,
)


def test_sphere_optimum_is_exact():
    p = make_problem("sphere", 3)
    assert p.error(p.x_opt) == 0.0
    assert p.error(p.x_opt) + p.f_opt == p.f_opt


def test_sphere_unit_offset():
    p = make_problem("sphere", 3)
    e1 = np.zeros(3)
    e1[0] = 1.0
    assert p.error(p.x_opt + e1) == 1.0


def test_separable_ellipsoid_conditioning():
    p = make_problem("ellipsoid_separable", 2)
    e2 = np.array([0.0, 1.0])
    assert p.error(p.x_opt + e2) == pytest.approx(1e6, rel=1e-12)
    e1 = np.array([1.0, 0.0])
    assert p.error(p.x_opt + e1) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("fid", sorted(FUNCTIONS))
@pytest.mark.parametrize("dim", [2, 5])
def test_every_function_optimum_exact(fid, dim):
    p = make_problem(fid, dim)
    assert p.error(p.x_opt) == 0.0


@pytest.mark.parametrize("fid", sorted(FUNCTIONS))
def test_error_nonnegative_under_sampling(fid):
    p = make_problem(fid, 3)
    rng = np.random.default_rng(42)
    for _ in range(300):
        x = rng.uniform(-5.0, 5.0, size=3)
        assert p.error(x) >= 0.0


@pytest.mark.parametrize("fid", sorted(FUNCTIONS))
def test_rotation_invariance_harness(fid):
    p = make_problem(fid, 5)
    plain = dataclasses.replace(p, rotation=np.eye(5))
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-5.0, 5.0, size=5)
        moved = p.rotation.T @ (x - p.x_opt) + p.x_opt
        a = plain.error(moved) + plain.f_opt
        b = p.error(x) + p.f_opt
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_rotation_is_orthogonal():
    for fid in ("ellipsoid_rotated", "rastrigin_rotated", "schaffers"):
        p = make_problem(fid, 10)
        eye = p.rotation @ p.rotation.T
        assert np.max(np.abs(eye - np.eye(10))) <= 1e-10


def test_dimension_mismatch_rejected():
    p = make_problem("sphere", 3)
    with pytest.raises(ValueError):
        p.error(np.zeros(4))


@pytest.mark.parametrize("fid", sorted(FUNCTIONS))
@pytest.mark.parametrize("dim", DIMENSIONS)
def test_block_rows_match_points_bitwise(fid, dim):
    p = make_problem(fid, dim)
    rng = np.random.default_rng(dim)
    for n in (1, 2, 7, 48):
        # points over the box and near the optimum, where errors are tiny
        scale = 10.0 ** rng.integers(-9, 1, size=(n, 1))
        X = p.x_opt + scale * rng.uniform(-5.0, 5.0, size=(n, dim))
        block = p.error(X)
        assert block.shape == (n,)
        points = [p.error(x) for x in X]
        assert all(type(v) is float for v in points)
        assert block.tobytes() == np.array(points).tobytes()


def _through_identity(p, X):
    """The reference: the error with the product by the identity rotation."""
    z = np.matmul(p.rotation.T, (X - p.x_opt)[:, :, None])[:, :, 0]
    return FUNCTIONS[p.function_id].raw(z, p.aux)


_UNROTATED = ("sphere", "ellipsoid_separable", "rastrigin_separable",
              "gallagher")


@pytest.mark.parametrize("fid", _UNROTATED)
@pytest.mark.parametrize("dim", DIMENSIONS)
def test_unrotated_skip_keeps_the_identity_product_bits(fid, dim):
    p = make_problem(fid, dim)
    assert not FUNCTIONS[fid].rotated
    assert np.array_equal(p.rotation, np.eye(dim))
    rng = np.random.default_rng(dim)
    for n in (1, 6, 48):
        scale = 10.0 ** rng.integers(-12, 2, size=(n, 1))
        X = p.x_opt + scale * rng.uniform(-5.0, 5.0, size=(n, dim))
        X[0] = p.x_opt  # a row at the optimum reads exactly 0.0 both ways
        X[-1, 0] = -0.0
        assert p.error(X).tobytes() == _through_identity(p, X).tobytes()
    assert p.error(p.x_opt) == 0.0


@pytest.mark.parametrize("fid", _UNROTATED)
@pytest.mark.parametrize("dim", DIMENSIONS)
def test_unrotated_skip_on_infinite_rows(fid, dim):
    """Without the product, an infinity no longer turns a row into NaN."""
    p = make_problem(fid, dim)
    X = np.tile(p.x_opt, (3, 1))
    X[0, 0], X[1, -1] = math.inf, -math.inf
    with np.errstate(invalid="ignore"):
        got, product = p.error(X), _through_identity(p, X)
    assert np.isnan(product[:2]).all() and product[2] == 0.0
    want = {"sphere": math.inf, "ellipsoid_separable": math.inf,
            "rastrigin_separable": math.nan, "gallagher": 100.0}[fid]
    np.testing.assert_array_equal(got, [want, want, 0.0])  # NaN == NaN here


@pytest.mark.parametrize("fid", sorted(set(FUNCTIONS) - set(_UNROTATED)))
def test_rotated_functions_keep_the_product(fid):
    p = make_problem(fid, 5)
    assert not np.array_equal(p.rotation, np.eye(5))
    X = np.random.default_rng(1).uniform(-5.0, 5.0, size=(4, 5))
    assert p.error(X).tobytes() == _through_identity(p, X).tobytes()


@pytest.mark.parametrize("shape", [(4,), (2, 4), (2, 1), (1, 2, 3), ()],
                         ids=["point-4", "block-4", "block-1", "3-d", "scalar"])
def test_wrong_shape_rejected(shape):
    p = make_problem("sphere", 3)
    with pytest.raises(ValueError):
        p.error(np.zeros(shape))


def test_unknown_function_and_dimension():
    with pytest.raises(KeyError):
        make_problem("nope", 2)
    with pytest.raises(ValueError):
        make_problem("sphere", 7)


def test_stable_default_instance():
    a = make_problem("discus", 5)
    b = make_problem("discus", 5)
    assert np.array_equal(a.x_opt, b.x_opt)
    assert a.f_opt == b.f_opt
    assert np.array_equal(a.rotation, b.rotation)


def test_suite_size_and_coverage():
    suite = make_suite()
    assert len(suite) == len(FUNCTIONS) * len(DIMENSIONS) == 50
    seen_groups = {subgroup_of(p.function_id) for p in suite}
    assert seen_groups == set(SUBGROUPS)
    keys = {(p.function_id, p.dimension) for p in suite}
    assert len(keys) == 50


def test_suite_deterministic():
    a = make_suite()
    b = make_suite()
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.x_opt, pb.x_opt)
        assert pa.f_opt == pb.f_opt


def test_suite_manifest_format():
    suite = make_suite()
    text = suite_manifest(suite)
    lines = text.strip().split("\n")
    assert lines[0] == "function_id\tdimension\tsubgroup\tseed"
    assert len(lines) == 51
    fields = lines[1].split("\t")
    assert len(fields) == 4
    assert fields[2] in SUBGROUPS


def test_subgroups_in_table_order():
    # Derived from FUNCTIONS, in the order the table first names each.
    assert SUBGROUPS == (
        "separable",
        "low_moderate_conditioning",
        "high_conditioning_unimodal",
        "multimodal_adequate",
        "multimodal_weak",
    )


def test_subgroup_lookup():
    assert subgroup_of("sphere") == "separable"
    assert subgroup_of("gallagher") == "multimodal_weak"


def test_bounds_box():
    p = make_problem("sphere", 2)
    assert (type(p.lower), p.lower) == (float, -5.0)
    assert (type(p.upper), p.upper) == (float, 5.0)
    assert np.all(p.x_opt >= -4.0) and np.all(p.x_opt <= 4.0)
