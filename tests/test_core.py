import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcmaes.benchmarks import DIMENSIONS, FUNCTIONS, make_problem
from modcmaes.configuration import CATALOG, decode, encode, enumerate_all
from modcmaes.core import (
    SelectionShortfallError,
    StrategyParams,
    ZeroMutationError,
    _Accountant,
    _eigh,
    _local_stop,
    _RunOver,
    _symmetrize,
    adapt,
    apply_threshold,
    default_lambda,
    evaluate_offspring,
    recombination_weights,
    recombine,
    resolve_interactions,
    run,
    select,
)

PAIRWISE_SEQ = decode("00001001000")
PAIRWISE_TPA = decode("00000011000")
ALL_THREE = decode("00001011000")
PLAIN_SEQ = decode("00001000000")
DEFAULT = decode("00000000000")
ELITIST = decode("01000000000")
PAIRWISE = decode("00000001000")


def _gen(fs, xs=None, d=2):
    """An (f, Y, X) triple with one row per value in ``fs``."""
    f = np.asarray(fs, float)
    X = np.zeros((len(f), d)) if xs is None else np.asarray(xs, float)
    return f, np.zeros((len(f), X.shape[1])), X


class TestResolveInteractions:
    def test_pairwise_sequential_bumps_lambda(self):
        lam, mu, lam_eff, cutoff = resolve_interactions(PAIRWISE_SEQ, 5, 3)
        assert lam == 6
        assert cutoff == 6
        assert lam_eff == 6

    def test_pairwise_tpa_shrinks_mu(self):
        lam, mu, lam_eff, cutoff = resolve_interactions(PAIRWISE_TPA, 8, 4)
        assert lam_eff == 6
        assert mu == 3

    def test_identity_when_inactive(self):
        lam, mu, lam_eff, cutoff = resolve_interactions(DEFAULT, 6, 3)
        assert (lam, mu, lam_eff, cutoff) == (6, 3, 6, 3)

    def test_pairwise_cutoff_is_two_mu_within_lambda_eff(self):
        # Pairwise leaves lambda even and >= 2*mu, and at lambda == 2*mu
        # two-point adaptation shrinks mu, so 2*mu never exceeds lambda_eff.
        lam, mu, lam_eff, cutoff = resolve_interactions(ALL_THREE, 8, 4)
        assert (mu, cutoff) == (3, 6)
        for cfg in enumerate_all():
            if not cfg.pairwise:
                continue
            for lam0 in range(2, 65):
                for mu0 in range(1, lam0 + 1):
                    lam, mu, lam_eff, cutoff = resolve_interactions(
                        cfg, lam0, mu0)
                    assert cutoff == 2 * mu <= lam_eff, (encode(cfg), lam0, mu0)

    def test_plain_sequential_cutoff_is_mu(self):
        _, _, _, cutoff = resolve_interactions(PLAIN_SEQ, 6, 3)
        assert cutoff == 3

    def test_rejects_bad_mu_lambda(self):
        with pytest.raises(ValueError):
            resolve_interactions(DEFAULT, 3, 4)

    @pytest.mark.parametrize("dim", [2, 3, 5, 10, 20])
    def test_pairwise_invariant_over_all_configs(self, dim):
        lam0 = default_lambda(dim)
        mu0 = lam0 // 2
        for cfg in enumerate_all():
            lam, mu, lam_eff, cutoff = resolve_interactions(cfg, lam0, mu0)
            assert 1 <= mu <= lam
            assert cutoff >= mu
            assert lam_eff == (lam - 2 if cfg.tpa else lam)
            if cfg.pairwise:
                assert lam >= 2 * mu
                assert lam % 2 == 0
            if cfg.pairwise and cfg.sequential:
                assert cutoff == 2 * mu

    def test_every_generation_draws_at_least_two_vectors(self):
        # run() never starts a local run below lambda = 4 (the budget
        # cap's floor) and starts at lambda0 <= 12 (D = 20); restarts only
        # raise lambda. A sampler serves lambda_eff vectors per call, so
        # core never asks one for a single vector.
        for cfg in enumerate_all():
            for lam in range(4, 13):
                _, _, lam_eff, _ = resolve_interactions(cfg, lam, lam // 2)
                assert lam_eff >= 2, (encode(cfg), lam)


class TestApplyThreshold:
    def test_zero_threshold_is_identity(self):
        z = np.array([0.3, -0.4])
        assert np.array_equal(apply_threshold(z, 0.0), z)

    def test_short_vector_mirrors_across_threshold(self):
        z = np.array([0.3, -0.4])  # norm 0.5
        out = apply_threshold(z, 1.0)
        assert np.linalg.norm(out) == pytest.approx(1.5, rel=1e-12)
        assert np.allclose(out / np.linalg.norm(out), z / np.linalg.norm(z))

    def test_vector_at_threshold_unchanged(self):
        z = np.array([1.0, 0.0])
        assert np.array_equal(apply_threshold(z, 1.0), z)

    def test_long_vector_unchanged(self):
        z = np.array([3.0, 4.0])
        assert np.array_equal(apply_threshold(z, 1.0), z)

    def test_zero_vector_signals_resample(self):
        with pytest.raises(ZeroMutationError):
            apply_threshold(np.zeros(3), 1.0)

    def test_output_always_reaches_threshold(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = rng.standard_normal(4) * rng.uniform(0.01, 2.0)
            t = rng.uniform(0.0, 2.0)
            out = apply_threshold(z, t)
            assert np.linalg.norm(out) >= t - 1e-12

    def test_rows_match_scalar_definition_bitwise(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 5, 20):
            Z = rng.standard_normal((13, d)) * rng.uniform(0.01, 3.0, (13, 1))
            t = 1.5 * math.sqrt(d)
            want = []
            for z in Z:
                norm = math.sqrt(z @ z)
                want.append(z if norm >= t else z * ((2.0 * t - norm) / norm))
            assert apply_threshold(Z, t).tobytes() == np.array(want).tobytes()

    def test_stack_with_zero_row_signals_resample(self):
        Z = np.array([[0.1, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroMutationError):
            apply_threshold(Z, 1.0)
        assert apply_threshold(Z, 0.0) is Z


class TestEvaluateOffspring:
    def test_inactive_evaluates_all(self):
        X = np.zeros((6, 2))
        calls = []

        def obj(X):
            calls.extend([1] * len(X))
            return np.full(len(X), 5.0)

        out = evaluate_offspring(X, obj, cutoff=len(X))
        assert len(out) == 6
        assert len(calls) == 6

    def test_early_stop_at_cutoff(self):
        X = np.zeros((6, 2))
        values = iter([5.0, 0.5, 4.0, 3.0, 2.0, 1.0])  # improvement at index 1

        def obj(X):
            return np.array([next(values) for _ in X])

        out = evaluate_offspring(X, obj, cutoff=3, f_best=1.0)
        assert len(out) == 3

    def test_improvement_at_index_two_consumes_three(self):
        X = np.zeros((6, 2))
        values = iter([5.0, 6.0, 0.5, 4.0, 3.0, 2.0])

        def obj(X):
            return np.array([next(values) for _ in X])

        out = evaluate_offspring(X, obj, cutoff=3, f_best=1.0)
        assert len(out) == 3

    def test_no_improvement_evaluates_all(self):
        X = np.zeros((5, 2))

        def obj(X):
            return np.full(len(X), 99.0)

        out = evaluate_offspring(X, obj, cutoff=2, f_best=1.0)
        assert len(out) == 5

    def test_rows_evaluated_in_order(self):
        X = np.arange(8.0).reshape(4, 2)
        out = evaluate_offspring(X, lambda X: X[:, 0], cutoff=len(X))
        assert out.tolist() == [0.0, 2.0, 4.0, 6.0]


class TestSelect:
    def test_pairwise_reduces_pairs_first(self):
        out = select(*_gen([3.0, 1.0, 2.0, 5.0]), None, mu=1, cfg=PAIRWISE)
        assert out[0][0] == 1.0

    def test_pairwise_tie_keeps_first_of_pair(self):
        f, Y, X = _gen([1.0, 1.0, 2.0, 2.0], xs=[[0, 0], [1, 1], [2, 2], [3, 3]])
        out_f, _, out_x = select(f, Y, X, None, mu=2, cfg=PAIRWISE)
        assert out_f.tolist() == [1.0, 2.0]
        assert out_x.tolist() == [[0.0, 0.0], [2.0, 2.0]]

    def test_pairwise_odd_prefix_keeps_last_single(self):
        out_f, _, _ = select(*_gen([3.0, 4.0, 0.5]), None, mu=2, cfg=PAIRWISE)
        assert out_f.tolist() == [0.5, 3.0]

    def test_elitism_keeps_better_parent(self):
        parents = _gen([0.5])
        out = select(*_gen([0.9, 1.5]), parents, mu=1, cfg=ELITIST)
        assert out[0][0] == 0.5

    def test_comma_discards_better_parent(self):
        parents = _gen([0.5])
        out = select(*_gen([0.9, 1.5]), parents, mu=1, cfg=DEFAULT)
        assert out[0][0] == 0.9

    def test_ranked_best_first(self):
        out = select(*_gen([4.0, 2.0, 3.0, 1.0]), None, mu=3, cfg=DEFAULT)
        assert out[0].tolist() == [1.0, 2.0, 3.0]

    def test_rows_travel_together(self):
        f, Y, X = _gen([4.0, 2.0, 3.0], xs=[[4, 0], [2, 0], [3, 0]])
        Y = X * 10.0
        out_f, out_y, out_x = select(f, Y, X, None, mu=3, cfg=DEFAULT)
        assert out_x[:, 0].tolist() == out_f.tolist()
        assert np.array_equal(out_y, out_x * 10.0)

    def test_shortfall_raises(self):
        with pytest.raises(SelectionShortfallError):
            select(*_gen([1.0]), None, mu=2, cfg=DEFAULT)


def _select_by_rows(f, Y, X, parents, mu, cfg):
    """The reference: ``select`` gathering through one row-index array,
    an identity index when pairwise selection is off."""
    n = len(f)
    if cfg.pairwise:
        a = np.arange(0, n, 2)
        b = np.minimum(a + 1, n - 1)
        rows = np.where(f.take(b) < f.take(a), b, a)
    else:
        rows = np.arange(n)
    if cfg.elitist and parents is not None:
        f_par, y_par, x_par = parents
        rows = np.concatenate((rows, np.arange(n, n + len(f_par))))
        f = np.concatenate((f, f_par))
        Y = np.concatenate((Y, y_par))
        X = np.concatenate((X, x_par))
    if len(rows) < mu:
        raise SelectionShortfallError(f"need {mu} parents")
    best = rows.take(f.take(rows).argsort(kind="stable")[:mu])
    return f.take(best), Y.take(best, axis=0), X.take(best, axis=0)


# Few distinct values, so that ties are common, and +inf.
_VALUES = st.sampled_from([-1.0, 0.0, 0.5, 2.0, math.inf]) | st.floats(-3, 3)


@settings(max_examples=400)
@given(data=st.data(), n=st.integers(1, 24), pairwise=st.booleans(),
       elitist=st.booleans(), n_parents=st.integers(0, 12))
def test_select_matches_row_index_reference(data, n, pairwise, elitist,
                                            n_parents):
    cfg = decode(f"0{int(elitist)}00000{int(pairwise)}000")
    mu = data.draw(st.integers(1, n), label="mu")
    f = np.array(data.draw(st.lists(_VALUES, min_size=n, max_size=n)))
    # Every row of Y and X is distinct, so a wrong gather shows.
    Y = np.arange(2.0 * n).reshape(n, 2)
    X = -Y - 0.5
    parents = None
    if n_parents:
        f_par = np.array(data.draw(
            st.lists(_VALUES, min_size=n_parents, max_size=n_parents)))
        y_par = 100.0 + np.arange(2.0 * n_parents).reshape(n_parents, 2)
        parents = (f_par, y_par, -y_par)
    try:
        want = _select_by_rows(f, Y, X, parents, mu, cfg)
    except SelectionShortfallError:
        with pytest.raises(SelectionShortfallError):
            select(f, Y, X, parents, mu, cfg)
        return
    got = select(f, Y, X, parents, mu, cfg)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert got[0].shape == (mu,) and got[1].shape == got[2].shape == (mu, 2)


def _evaluate_offspring_two_paths(X, objective, seq_active, seq_cutoff,
                                  f_best=math.inf):
    """The reference: ``evaluate_offspring`` with a flag for sequential
    selection beside its cutoff."""
    if not seq_active:
        return objective(X)
    blocks = [objective(X[:seq_cutoff])]
    improved = bool((blocks[0] < f_best).any())
    for i in range(seq_cutoff, len(X)):
        if improved:
            break
        blocks.append(objective(X[i : i + 1]))
        improved = bool(blocks[-1][0] < f_best)
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


@settings(max_examples=400)
@given(data=st.data(), n=st.integers(0, 12), seq_active=st.booleans(),
       f_best=_VALUES)
def test_evaluate_offspring_matches_two_path_reference(data, n, seq_active,
                                                       f_best):
    values = np.array(data.draw(st.lists(_VALUES, min_size=n, max_size=n)))
    seq_cutoff = data.draw(st.integers(0, n + 2), label="seq_cutoff")
    X = np.arange(float(n))[:, None]  # row i is [i], the key of its value

    def counting(blocks):
        def objective(rows):
            blocks.append(len(rows))
            return values[rows[:, 0].astype(int)]
        return objective

    want_blocks, got_blocks = [], []
    want = _evaluate_offspring_two_paths(
        X, counting(want_blocks), seq_active, seq_cutoff, f_best)
    cutoff = seq_cutoff if seq_active else len(X)
    got = evaluate_offspring(X, counting(got_blocks), cutoff, f_best)
    assert got.tobytes() == want.tobytes()
    assert got_blocks == want_blocks


class TestRecombination:
    def test_equal_weights(self):
        w = recombination_weights(4, "equal")
        assert np.allclose(w, 0.25)

    def test_single_parent(self):
        assert np.array_equal(recombination_weights(1, "log"), [1.0])
        X = np.array([[2.0, -1.0]])
        assert np.array_equal(recombine(X, recombination_weights(1, "log")), [2.0, -1.0])

    def test_log_weights_mu3_against_oracle(self):
        # ln(3.5) - ln(i), normalized; frozen from a 50-digit computation.
        w = recombination_weights(3, "log")
        assert w == pytest.approx(
            [0.637042571241, 0.284570257438, 0.0783871713208], abs=1e-11
        )
        assert w.sum() == pytest.approx(1.0, abs=1e-14)

    def test_weights_non_increasing_and_normalized(self):
        for mu in range(1, 12):
            for option in ("log", "equal"):
                w = recombination_weights(mu, option)
                assert np.all(np.diff(w) <= 1e-15)
                assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_recombine_weighted_average(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = recombination_weights(2, "equal")
        assert np.allclose(recombine(X, w), [0.5, 0.5])


def _fresh_params(cfg, dim=4, seed=123):
    return StrategyParams(
        dimension=dim,
        cfg=cfg,
        lambda_=default_lambda(dim),
        lower=np.full(dim, -5.0),
        upper=np.full(dim, 5.0),
        mean=np.zeros(dim),
        sampler_seed=seed,
    )


class TestAdapt:
    def test_csa_fixed_point(self):
        # Zero mean shift and a conjugate path that lands exactly at its
        # expected length leave sigma untouched.
        cfg = DEFAULT
        p = _fresh_params(cfg)
        direction = np.ones(p.dimension) / math.sqrt(p.dimension)
        p.p_sigma = direction * p.chi_n / (1.0 - p.c_sigma)
        sigma_before = p.sigma
        f, Y, _ = _gen([1.0] * p.mu, d=p.dimension)
        adapt(p, Y, Y, f, cfg, np.zeros(p.dimension))
        assert p.sigma / sigma_before == pytest.approx(1.0, abs=1e-12)

    def test_tpa_shorter_probe_drives_sigma_down(self):
        cfg = decode("00000010000")
        p = _fresh_params(cfg)
        sigma0 = p.sigma
        f, Y, _ = _gen([1.0] * p.mu, d=p.dimension)
        previous = sigma0
        for _ in range(50):
            adapt(p, Y, Y, f, cfg, np.zeros(p.dimension), tpa_sign=-1)
            assert p.sigma < previous
            previous = p.sigma
        assert p.sigma < sigma0

    def test_active_update_subtracts_exact_term(self):
        rng = np.random.default_rng(5)
        dim = 4
        cfg_off = DEFAULT
        cfg_on = decode("10000000000")
        params_off = _fresh_params(cfg_off, dim=dim)
        params_on = _fresh_params(cfg_on, dim=dim)

        f = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        Y = rng.standard_normal((len(f), dim))
        X = params_off.mean + params_off.sigma * Y
        _, y_sel, x_sel = select(f, Y, X, None, params_off.mu, cfg_off)
        new_mean = recombine(x_sel, params_off.weights)
        old = params_off.mean.copy()
        params_off.mean = new_mean.copy()
        params_on.mean = new_mean.copy()
        dm = (new_mean - old) / params_off.sigma
        adapt(params_off, y_sel, Y, f, cfg_off, dm)
        adapt(params_on, y_sel.copy(), Y.copy(), f.copy(), cfg_on, dm)

        worst = Y[::-1][: params_on.mu]
        expected = np.zeros((dim, dim))
        for w_i, y in zip(params_on.weights, worst):
            expected += w_i * np.outer(y, y)
        expected *= params_on.beta_active
        diff = params_off.C - params_on.C
        sym_expected = np.triu(expected) + np.triu(expected, 1).T
        assert np.allclose(diff, sym_expected, atol=1e-14)

    def test_active_worst_rows_ties_keep_order(self):
        # Rows 1 and 2 tie for worst; a stable descending sort keeps them
        # in row order, so row 1 gets the larger weight, then row 2, row 3.
        dim = 3
        f = np.array([0.0, 5.0, 5.0, 4.0, 1.0, 2.0])
        Y = np.random.default_rng(2).standard_normal((len(f), dim))
        y_sel = Y[[0, 4, 5]]
        off = _fresh_params(DEFAULT, dim=dim)
        on = _fresh_params(decode("10000000000"), dim=dim)
        adapt(off, y_sel, Y, f, DEFAULT, np.zeros(dim))
        adapt(on, y_sel, Y, f, decode("10000000000"), np.zeros(dim))

        def active_term(rows):
            yw = Y[rows]
            return on.beta_active * ((on.weights[:, None] * yw).T @ yw)

        assert on.mu == 3
        assert np.allclose(off.C - on.C, active_term([1, 2, 3]), atol=1e-15)
        assert not np.allclose(off.C - on.C, active_term([2, 1, 3]), atol=1e-15)

    def test_covariance_stays_symmetric(self):
        rng = np.random.default_rng(9)
        cfg = decode("10000000000")
        p = _fresh_params(cfg, dim=5)
        for _ in range(30):
            Y = rng.standard_normal((p.lambda_, 5))
            X = p.mean + p.sigma * Y
            f = rng.random(p.lambda_)
            _, y_sel, x_sel = select(f, Y, X, None, p.mu, cfg)
            old = p.mean.copy()
            p.mean = recombine(x_sel, p.weights)
            adapt(p, y_sel, Y, f, cfg, (p.mean - old) / p.sigma)
            assert np.max(np.abs(p.C - p.C.T)) <= 1e-12
            assert np.all(np.linalg.eigvalsh(p.C) > 0)

    def test_symmetrize_matches_triangle_sum_bitwise(self):
        rng = np.random.default_rng(4)
        C = rng.standard_normal((5, 5))
        C[rng.random((5, 5)) < 0.3] = -0.0
        out = _symmetrize(C, np.triu(np.ones((5, 5), dtype=bool)))
        ref = np.triu(C) + np.triu(C, 1).T
        assert np.array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))
        assert not ((out == 0.0) & np.signbit(out)).any()  # no -0.0 left


class TestDecompose:
    """The repairs of ``StrategyParams.decompose``, one branch each."""

    def _state(self, dim=4):
        p = _fresh_params(DEFAULT, dim=dim)
        p.p_c = np.linspace(0.1, 0.4, dim)
        p.p_sigma = np.linspace(-0.5, 0.5, dim)
        p.mean = np.linspace(1.0, 2.0, dim)
        p.sigma = 0.7
        return p

    def test_nonfinite_covariance_resets_c_and_p_c(self):
        p = self._state()
        p.C = np.eye(4)
        p.C[1, 2] = p.C[2, 1] = np.inf
        p_sigma, mean = p.p_sigma.copy(), p.mean.copy()
        p.decompose()
        assert np.array_equal(p.C, np.eye(4))
        assert np.array_equal(p.p_c, np.zeros(4))
        assert np.array_equal(p.p_sigma, p_sigma)
        assert p.sigma == 0.7
        assert np.array_equal(p.mean, mean)
        assert p.repair_count == 1

    @pytest.mark.parametrize("sigma", [1e-32, 1e-40, 1e32, 1e40, np.inf, np.nan])
    def test_sigma_out_of_range_restarts_the_strategy(self, sigma):
        p = self._state()
        p.C = np.diag([1.0, 2.0, 3.0, 4.0])
        p.sigma = sigma
        mean = p.mean.copy()
        p.decompose()
        assert np.array_equal(p.C, np.eye(4))
        assert np.array_equal(p.p_c, np.zeros(4))
        assert np.array_equal(p.p_sigma, np.zeros(4))
        assert p.sigma == p.sigma0
        assert np.array_equal(p.mean, mean)
        assert p.repair_count == 1

    def test_nonfinite_mean_zeroes_its_bad_coordinates(self):
        p = self._state()
        p.C = np.diag([1.0, 2.0, 3.0, 4.0])
        p.mean = np.array([np.nan, 1.5, -np.inf, np.inf])
        p.decompose()
        assert np.array_equal(p.C, np.eye(4))
        assert np.array_equal(p.p_c, np.zeros(4))
        assert np.array_equal(p.p_sigma, np.zeros(4))
        assert p.sigma == p.sigma0
        assert np.array_equal(p.mean, [0.0, 1.5, 0.0, 0.0])
        assert p.repair_count == 1

    def test_nonfinite_covariance_and_mean_count_two_repairs(self):
        p = self._state()
        p.C = np.full((4, 4), np.nan)
        p.mean = np.array([1.0, np.nan, 2.0, 3.0])
        p.decompose()
        assert np.array_equal(p.C, np.eye(4))
        assert np.array_equal(p.mean, [1.0, 0.0, 2.0, 3.0])
        assert p.repair_count == 2

    def test_nonpositive_eigenvalue_raised_to_the_floor(self):
        p = self._state(dim=2)
        p.C = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1 and 3
        p_c, p_sigma, mean = p.p_c.copy(), p.p_sigma.copy(), p.mean.copy()
        vals, vecs = np.linalg.eigh(p.C)
        floored = np.maximum(vals, max(vals[-1] * 1e-14, 1e-30))
        expected = _symmetrize(
            (vecs * floored) @ vecs.T, np.triu(np.ones((2, 2), dtype=bool))
        )
        p.decompose()
        assert np.array_equal(p.C, expected)
        assert np.array_equal(p.d_sqrt, np.sqrt(floored))
        assert np.array_equal(p.p_c, p_c)
        assert np.array_equal(p.p_sigma, p_sigma)
        assert p.sigma == 0.7
        assert np.array_equal(p.mean, mean)
        assert p.repair_count == 1

    def test_healthy_state_is_not_repaired(self):
        p = self._state()
        C = np.diag([1.0, 2.0, 3.0, 4.0])
        p.C = C.copy()
        p.decompose()
        assert np.array_equal(p.C, C)
        assert p.sigma == 0.7
        assert p.repair_count == 0


class TestEigh:
    """``_eigh`` has the bits and the errors of ``np.linalg.eigh``."""

    @staticmethod
    def _matrices(dim, rng):
        for _ in range(20):
            A = rng.standard_normal((dim, dim))
            yield A @ A.T + 1e-3 * np.eye(dim)  # random SPD
        yield np.diag(rng.uniform(1e-6, 1e6, dim))  # diagonal
        yield np.eye(dim)
        # near-singular: one direction 1e-13 of the others
        Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        spectrum = np.logspace(0, 3, dim)
        spectrum[0] = 1e-13
        yield _symmetrize(
            (Q * spectrum) @ Q.T, np.triu(np.ones((dim, dim), dtype=bool))
        )
        # floor-repaired: the C that decompose leaves after a repair
        p = _fresh_params(DEFAULT, dim=dim)
        p.C = _symmetrize(
            (Q * (spectrum - 2.0)) @ Q.T, np.triu(np.ones((dim, dim), dtype=bool))
        )
        p.decompose()
        assert p.repair_count == 1
        yield p.C

    @pytest.mark.parametrize("dim", DIMENSIONS)
    def test_bits_equal_numpy_eigh(self, dim):
        rng = np.random.default_rng(dim)
        for C in self._matrices(dim, rng):
            vals, vecs = _eigh(C)
            ref_vals, ref_vecs = np.linalg.eigh(C)
            assert vals.tobytes() == ref_vals.tobytes()
            assert vecs.tobytes() == ref_vecs.tobytes()

    def test_nan_matrix_raises(self):
        C = np.full((3, 3), np.nan)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigh(C)
        with pytest.raises(np.linalg.LinAlgError):
            _eigh(C)

    def test_nan_results_that_numpy_returns_are_returned(self):
        # LAPACK converges on these and answers NaN; eigh does not raise.
        for C in ([[1.0, np.nan], [np.nan, 1.0]], [[1.0, 0.0], [0.0, np.nan]]):
            C = np.array(C)
            vals, vecs = _eigh(C)
            ref_vals, ref_vecs = np.linalg.eigh(C)
            assert np.array_equal(vals, ref_vals, equal_nan=True)
            assert np.array_equal(vecs, ref_vecs, equal_nan=True)


class TestLocalStop:
    """Each local stop criterion fires alone, and they fire in order."""

    def _healthy(self):
        p = _fresh_params(DEFAULT, dim=4)  # lambda 8
        p.best_f = 1.0
        return p

    def _no_effect(self):
        # One eigen-axis 1e-6 of the others: a probe along it, and along
        # coordinate 3, is below half an ulp of the mean. cond(C) 1e12.
        p = self._healthy()
        p.C = np.diag([1.0, 1.0, 1.0, 1e-12])
        p.decompose()
        p.mean = np.full(4, 1e6)
        p.sigma = 1e-4
        return p

    def test_healthy_state_continues(self):
        p = self._healthy()
        for t in range(4):
            p.t = t
            assert _local_stop(p, 1.0) is None

    def test_stagnation_at_exactly_the_window(self):
        p = self._healthy()
        window = math.ceil(10 + 30 * p.dimension / p.lambda_)
        assert window == 25
        p.t = window - 1
        assert _local_stop(p, 1.0) is None
        p.t = window
        assert _local_stop(p, 1.0) == "stagnation"

    def test_improvement_resets_the_window(self):
        p = self._healthy()
        p.t = 30
        assert _local_stop(p, 1.0 - 2e-12) is None
        assert p.last_improvement_gen == 30
        p.t = 30 + 25
        assert _local_stop(p, 1.0) == "stagnation"

    def test_condition_above_limit(self):
        p = self._healthy()
        p.C = np.diag([1.0, 1.0, 1.0, 1e-15])
        p.decompose()
        assert _local_stop(p, 1.0) == "condition"
        p.C = np.diag([1.0, 1.0, 1.0, 1e-13])
        p.decompose()
        assert _local_stop(p, 1.0) is None

    def test_tol_sigma(self):
        p = self._healthy()
        p.sigma = 0.5e-12 * p.sigma0
        assert _local_stop(p, 1.0) == "tol_sigma"
        p.sigma = 2e-12 * p.sigma0
        assert _local_stop(p, 1.0) is None

    @pytest.mark.parametrize("t", range(8))
    def test_no_effect_axis_is_axis_t_mod_d(self, t):
        # eigh lists eigenvalues ascending, so the short axis is axis 0.
        p = self._no_effect()
        p.t = t
        expected = "no_effect_axis" if t % 4 == 0 else "no_effect_coord"
        assert _local_stop(p, 1.0) == expected

    def test_criteria_fire_in_order(self):
        p = self._no_effect()
        p.t = 40
        p.C = np.diag([1.0, 1.0, 1.0, 1e-20])
        p.decompose()
        p.sigma = 1e-20
        assert _local_stop(p, 1.0) == "stagnation"
        p.last_improvement_gen = 40
        assert _local_stop(p, 1.0) == "condition"
        p.C = np.diag([1.0, 1.0, 1.0, 1e-12])
        p.decompose()
        assert _local_stop(p, 1.0) == "tol_sigma"
        p.sigma = 1e-4
        assert _local_stop(p, 1.0) == "no_effect_axis"
        p.t = 41
        assert _local_stop(p, 1.0) == "no_effect_coord"
        p.mean = np.full(4, 1.0)
        assert _local_stop(p, 1.0) is None


def _with_target(problem, target):
    """``problem`` with the target precision its runs stop at replaced."""
    return dataclasses.replace(problem, target_precision=target)


class _CountingProblem:
    """Proxies a problem while counting the rows it evaluates."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def error(self, X):
        self.calls += len(X)
        return self.inner.error(X)


class TestRun:
    def test_budget_one_consumes_exactly_one(self):
        p = make_problem("sphere", 2)
        rec = run(DEFAULT, p, budget=1, seed=0)
        assert rec.evaluations_used == 1
        assert rec.restarts == 0

    def test_budget_zero_rejected(self):
        p = make_problem("sphere", 2)
        with pytest.raises(ValueError):
            run(DEFAULT, p, budget=0, seed=0)

    def test_deterministic_records(self):
        p = make_problem("rastrigin_separable", 2)
        a = run("10100010011", p, budget=1200, seed=7, record_trajectory=True)
        b = run("10100010011", p, budget=1200, seed=7, record_trajectory=True)
        assert a.evaluations_used == b.evaluations_used
        assert a.best_error == b.best_error
        assert a.hit_index == b.hit_index
        assert np.array_equal(a.trajectory, b.trajectory)

    @pytest.mark.parametrize(
        "config",
        [
            "00000000000",
            "00000010000",  # TPA probes must be counted
            "00001000000",  # sequential early stops must be counted
            "00101001000",  # mirrored + sequential + pairwise
            "11111111122",
        ],
    )
    def test_evaluation_accounting_exact(self, config):
        counting = _CountingProblem(_with_target(make_problem("sphere", 2), 0.0))
        rec = run(config, counting, budget=700, seed=3)
        assert rec.evaluations_used == counting.calls

    def test_best_so_far_non_increasing(self):
        p = make_problem("schaffers", 2)
        for config in ("00000000000", "01010101010", "11111111122"):
            rec = run(config, p, budget=900, seed=11, record_trajectory=True)
            assert np.all(np.diff(rec.trajectory) <= 0)

    def test_hit_index_consistency(self):
        p = make_problem("sphere", 2)
        rec = run(DEFAULT, p, budget=3000, seed=2)
        assert rec.success
        # the run pays for the whole final block of lambda offspring
        lam = default_lambda(p.dimension)
        assert rec.hit_index <= rec.evaluations_used < rec.hit_index + lam
        assert rec.best_error <= p.target_precision

    def test_failed_run_has_no_hit_index(self):
        p = make_problem("rastrigin_rotated", 5)
        rec = run(DEFAULT, p, budget=300, seed=0)
        assert rec.hit_index is None
        assert rec.best_error > p.target_precision

    def test_none_regime_stops_early_when_criterion_fires(self):
        p = _with_target(make_problem("rastrigin_separable", 2), 0.0)
        rec = run(DEFAULT, p, budget=10**6, seed=5)
        assert rec.evaluations_used < 10**6

    def test_elitism_generation_monotone(self):
        p = _with_target(make_problem("rastrigin_separable", 2), 0.0)
        for seed in range(10):
            rec = run(
                ELITIST,
                p,
                budget=1200,
                seed=seed,
                record_generations=True,
            )
            g = rec.generation_best_f
            assert len(g) >= 1
            assert all(b <= a + 1e-15 for a, b in zip(g, g[1:]))

    def test_ipop_restarts_grow_population(self):
        p = _with_target(make_problem("rastrigin_separable", 2), 0.0)
        rec = run("00000000001", p, budget=6000, seed=1)
        assert rec.restarts >= 1

    def test_bipop_restarts(self):
        p = _with_target(make_problem("rastrigin_separable", 2), 0.0)
        rec = run("00000000002", p, budget=6000, seed=1)
        assert rec.restarts >= 2

    # (config, function, budget, seed) -> (lambda of every local run,
    # restarts, evaluations used, hit). A local run cut short by the
    # budget or the target still counts as a restart.
    @pytest.mark.parametrize(
        "case, expected",
        [
            # no restarts: a local stop, then the budget, ends the run
            (("00000000000", "rastrigin_separable", 2000, 0), ([6], 0, 552, False)),
            (("00000000000", "sphere", 300, 1), ([6], 0, 300, False)),
            # IPOP, budget spent inside the third restart
            (("00000000001", "rastrigin_separable", 2000, 0),
             ([6, 12, 24, 48], 3, 2000, False)),
            # BIPOP, target hit inside the third restart
            (("00000000002", "rastrigin_separable", 2000, 0),
             ([6, 12, 6, 6], 3, 1416, True)),
            (("00000000002", "rastrigin_rotated", 2000, 1),
             ([6, 12, 6, 6, 6, 24], 5, 2000, False)),
            # BIPOP small run drawn above the default lambda
            (("00000000102", "rastrigin_separable", 2000, 1),
             ([6, 12, 6, 24, 9], 4, 2000, False)),
            # sequential + TPA + pairwise; the last lambda is capped by the budget
            (("00001011002", "rastrigin_separable", 2000, 1),
             ([6, 12, 6, 4], 3, 2000, False)),
            # threshold convergence under BIPOP, target inside a restart
            (("00000100002", "sphere", 2000, 0),
             ([6, 12, 6, 6, 24, 7, 6], 6, 1583, True)),
            # threshold + TPA + pairwise under IPOP, target inside a restart
            (("00000111001", "rastrigin_separable", 2000, 0),
             ([6, 12, 24], 2, 1998, True)),
        ],
    )
    def test_restart_schedule_pinned(self, monkeypatch, case, expected):
        config, function, budget, seed = case
        lambdas = []
        init = StrategyParams.__init__

        def spy(self, *args, **kwargs):
            lambdas.append(kwargs["lambda_"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(StrategyParams, "__init__", spy)
        rec = run(config, make_problem(function, 2), budget=budget, seed=seed)
        assert (lambdas, rec.restarts, rec.evaluations_used, rec.success) == expected

    def test_nonfinite_objective_treated_as_inf(self):
        class NastyProblem:
            dimension = 2
            lower = np.full(2, -5.0)
            upper = np.full(2, 5.0)
            target_precision = 0.0
            function_id = "nasty"

            def error(self, X):
                return np.where(X[:, 0] > 0, np.nan, (X * X).sum(axis=1))

        rec = run(DEFAULT, NastyProblem(), budget=100, seed=0)
        assert rec.evaluations_used == 100
        assert math.isfinite(rec.best_error)

    def test_accepts_config_string(self):
        p = make_problem("sphere", 2)
        rec = run("00000000000", p, budget=50, seed=0)
        assert rec.config == "00000000000"


class _BlockLog:
    """Proxies a problem while logging each block's values."""

    def __init__(self, inner):
        self.inner = inner
        self.blocks: list[np.ndarray] = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def error(self, X):
        values = self.inner.error(X)
        self.blocks.append(np.array(values))
        return values


_STRUCTURES = st.tuples(
    *(st.integers(0, count - 1) for count in CATALOG.option_counts)
).map(lambda genes: "".join(map(str, genes)))


@settings(max_examples=200)
@given(
    structure=_STRUCTURES,
    function=st.sampled_from(sorted(FUNCTIONS)),
    dim=st.sampled_from([2, 3, 5]),
    budget=st.integers(1, 400),
    target=st.sampled_from([1e-8, 1e-2, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_block_accounting(structure, function, dim, budget, target, seed):
    log = _BlockLog(_with_target(make_problem(function, dim), target))
    rec = run(structure, log, budget, seed, record_trajectory=True,
              record_generations=True)
    assert rec.evaluations_used <= budget
    assert sum(map(len, log.blocks)) == rec.evaluations_used
    assert rec.success == (rec.best_error <= target)
    if rec.success:
        assert 0 <= rec.evaluations_used - rec.hit_index < len(log.blocks[-1])
    # every charged row, in order, is on the trajectory
    values = np.concatenate(log.blocks)
    values = np.where(np.isfinite(values), values, np.inf)
    assert rec.trajectory.tobytes() == np.minimum.accumulate(values).tobytes()
    assert len(rec.trajectory) == rec.evaluations_used
    assert (np.diff(rec.trajectory) <= 0).all()
    assert rec.trajectory[-1] == rec.best_error
    again = run(structure, _with_target(make_problem(function, dim), target),
                budget, seed, record_trajectory=True, record_generations=True)
    assert (again.evaluations_used, again.best_error, again.hit_index,
            again.restarts, again.generation_best_f) == (
        rec.evaluations_used, rec.best_error, rec.hit_index, rec.restarts,
        rec.generation_best_f)
    assert again.trajectory.tobytes() == rec.trajectory.tobytes()


class _ReferenceAccountant(_Accountant):
    """The reference: the accountant that slices every block and runs the
    running minimum on every block, one-row blocks too."""

    def __call__(self, X):
        room = self.budget - self.used
        if room <= 0:
            raise _RunOver
        rows = X[:room]
        err = self.problem.error(rows)
        best = np.minimum.accumulate(np.minimum(err, self.best_error))
        if not best[-1] > -math.inf:
            err = np.where(np.isfinite(err), err, math.inf)
            best = np.minimum.accumulate(np.minimum(err, self.best_error))
        start = self.used
        self.used += len(err)
        self.best_error = float(best[-1])
        if self.trajectory is not None:
            self.trajectory.append(best)
        if self.best_error <= self.target:
            self.hit_index = start + 1 + int(np.argmax(best <= self.target))
            raise _RunOver
        if len(rows) < len(X):
            raise _RunOver
        return err


class _ColumnProblem:
    """A problem whose error of a row is the row's first entry."""

    def error(self, X):
        return X[:, 0].copy()


_ERRORS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, 1e-9, 0.5, 3.0]
) | st.floats(0.0, 10.0)


@settings(max_examples=400)
@given(
    blocks=st.lists(st.lists(_ERRORS, min_size=1, max_size=8),
                    min_size=1, max_size=10),
    budget=st.integers(1, 40),
    target=st.sampled_from([1e-8, 0.5, 2.0]),
    record=st.booleans(),
)
def test_accountant_matches_reference(blocks, budget, target, record):
    lean = _Accountant(_ColumnProblem(), budget, target, record)
    ref = _ReferenceAccountant(_ColumnProblem(), budget, target, record)
    for block in blocks:
        X = np.column_stack((block, np.zeros(len(block))))
        # Calls go on after the run is over, to reach the spent budget.
        try:
            want = ref(X.copy())
        except _RunOver:
            with pytest.raises(_RunOver):
                lean(X.copy())
        else:
            assert lean(X.copy()).tobytes() == want.tobytes()
        assert (lean.used, lean.hit_index) == (ref.used, ref.hit_index)
        assert type(lean.best_error) is float
        assert repr(lean.best_error) == repr(ref.best_error)
        if record:
            assert len(lean.trajectory) == len(ref.trajectory)
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(lean.trajectory, ref.trajectory))
