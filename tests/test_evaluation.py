import math

import numpy as np
import pytest
from scipy.integrate import quad

from modcmaes import evaluation
from modcmaes.benchmarks import make_problem
from modcmaes.core import RunRecord
from modcmaes.evaluation import (
    FitnessSummary,
    MalformedInputError,
    ResultsCache,
    compare,
    compute_ert,
    execute_runs,
    run_batch,
    run_map,
    subsample_uncertainty,
    summarize,
    welch_uncertainty,
)


def _rec(evals, hit, err=1.0, seed=0):
    return RunRecord(
        config="00000000000",
        function_id="sphere",
        dimension=2,
        seed=seed,
        evaluations_used=evals,
        best_error=err,
        hit_index=hit,
    )


def _summary(ert, fce, n=32, std=0.1):
    return FitnessSummary(
        config="x",
        function_id="sphere",
        dimension=2,
        n=n,
        ert=ert,
        fce=fce,
        std_error=std,
    )


class TestComputeErt:
    def test_all_success(self):
        runs = [_rec(100, 100, err=0.0, seed=i) for i in range(4)]
        assert compute_ert(runs) == 100.0

    def test_one_success_one_failure(self):
        runs = [_rec(500, 500, err=0.0), _rec(5000, None, err=2.0, seed=1)]
        assert compute_ert(runs) == 5500.0

    def test_no_success_is_none(self):
        runs = [_rec(5000, None, err=2.0, seed=i) for i in range(3)]
        assert compute_ert(runs) is None

    def test_matches_brute_force_resummation(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            runs = []
            for i in range(n):
                evals = int(rng.integers(1, 10_000))
                hit = evals if rng.random() < 0.5 else None
                runs.append(_rec(evals, hit, err=float(rng.random()), seed=i))
            total = 0
            successes = 0
            for r in runs:
                total += r.evaluations_used
                if r.hit_index is not None:
                    successes += 1
            oracle = None if successes == 0 else total / successes
            assert compute_ert(runs) == oracle


class TestSummarize:
    def test_single_run(self):
        s = summarize([_rec(100, None, err=0.25)])
        assert s.fce == 0.25
        assert s.std_error == 0.0
        assert s.ert is None
        assert s.n == 1

    def test_all_success_has_ert(self):
        s = summarize([_rec(100, 100, err=0.0, seed=i) for i in range(3)])
        assert s.ert == 100.0

    def test_std_error_population_style(self):
        errs = [1.0, 2.0, 3.0, 4.0]
        runs = [_rec(10, None, err=e, seed=i) for i, e in enumerate(errs)]
        s = summarize(runs)
        mean = sum(errs) / 4
        expected = math.sqrt(sum((e - mean) ** 2 for e in errs) / 4)
        assert s.std_error == pytest.approx(expected, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestCompare:
    def test_lower_ert_wins(self):
        res = compare(_summary(100.0, 1e-8), _summary(200.0, 1e-8))
        assert res.winner == "A"
        assert res.basis == "ert"

    def test_ert_dominates_fce(self):
        # B has much better FCE but no ERT; A still wins.
        res = compare(_summary(5000.0, 3.0), _summary(None, 0.001))
        assert res.winner == "A"
        assert res.basis == "ert"

    def test_fce_fallback(self):
        res = compare(_summary(None, 2.0), _summary(None, 1.0))
        assert res.winner == "B"
        assert res.basis == "fce"

    def test_loser_fce_below_target_is_distance_zero(self):
        # B never hit its own (lower) target but averages below 1e-8.
        for fce in (0.0, 5e-9, 1e-8):
            res = compare(_summary(100.0, 1e-9, n=4, std=1e-10),
                          _summary(None, fce, n=4))
            assert (res.winner, res.basis, res.d) == ("A", "ert", 0.0)
            assert res.uncertainty == 1.0

    def test_winner_with_infinite_fce_is_certain(self):
        res = compare(_summary(None, 0.0, n=2, std=0.0),
                      _summary(1.0, math.inf, n=2, std=1.0))
        assert (res.winner, res.uncertainty) == ("B", 0.0)

    def test_tie_on_equal_fce(self):
        res = compare(_summary(None, 1.5), _summary(None, 1.5))
        assert res.winner == "tie"
        assert res.uncertainty == 1.0

    def test_antisymmetry_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            def make():
                ert = float(rng.uniform(10, 1e4)) if rng.random() < 0.6 else None
                return _summary(ert, float(rng.uniform(1e-9, 10.0)))

            a, b = make(), make()
            ab = compare(a, b)
            ba = compare(b, a)
            if ab.winner == "A":
                assert ba.winner == "B"
            elif ab.winner == "B":
                assert ba.winner == "A"
            else:
                assert ba.winner == "tie"

    def test_uncertainty_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            a = _summary(
                float(rng.uniform(10, 1000)), float(rng.uniform(0.1, 5.0))
            )
            b = _summary(
                float(rng.uniform(10, 1000)), float(rng.uniform(0.1, 5.0))
            )
            res = compare(a, b)
            assert 0.0 <= res.uncertainty <= 1.0


def _t_tail_oracle(t: float, df: int) -> float:
    """Two-sided tail of the t-distribution via direct quadrature."""
    c = math.gamma((df + 1) / 2) / (
        math.sqrt(df * math.pi) * math.gamma(df / 2)
    )

    def pdf(x):
        return c * (1 + x * x / df) ** (-(df + 1) / 2)

    tail, _ = quad(pdf, t, np.inf)
    return 2.0 * tail


class TestWelchUncertainty:
    def test_zero_distance_is_certain_tie(self):
        assert welch_uncertainty(0.0, 0.5, 32) == 1.0
        assert welch_uncertainty(0.0, 0.01, 2) == 1.0

    def test_matches_quadrature_oracle(self):
        d, s_rel, n = 1.0, 0.5, 32
        s_e = math.sqrt((s_rel**2 + ((1 + d) * s_rel) ** 2) / n)
        t = d / s_e
        expected = _t_tail_oracle(t, 2 * n - 2)
        got = welch_uncertainty(d, s_rel, n)
        assert abs(got - expected) <= 1e-9
        # Frozen from a 50-digit computation of the same integral.
        assert got == pytest.approx(4.003982163e-6, abs=1e-9)

    def test_strictly_decreasing_in_n(self):
        values = [welch_uncertainty(1.0, 0.5, n) for n in range(2, 257)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_decreasing_in_distance(self):
        values = [welch_uncertainty(d, 0.5, 16) for d in (0.0, 0.5, 1.0, 2.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            welch_uncertainty(1.0, 0.5, 1)
        with pytest.raises(ValueError):
            welch_uncertainty(-0.5, 0.5, 8)
        with pytest.raises(ValueError):
            welch_uncertainty(1.0, 0.0, 8)


class TestRunBatch:
    def test_seeds_and_determinism(self):
        p = make_problem("sphere", 2)
        a = run_batch("00000000000", p, n=4, budget=400, seed=10)
        b = run_batch("00000000000", p, n=4, budget=400, seed=10)
        assert [r.seed for r in a.runs] == [10, 11, 12, 13]
        assert a.fce == b.fce
        assert a.ert == b.ert
        assert [r.best_error for r in a.runs] == [r.best_error for r in b.runs]

    def test_budget_zero_rejected(self):
        p = make_problem("sphere", 2)
        with pytest.raises(ValueError):
            run_batch("00000000000", p, n=2, budget=0, seed=0)

    def test_n_must_be_positive(self):
        p = make_problem("sphere", 2)
        with pytest.raises(ValueError):
            run_batch("00000000000", p, n=0, budget=100, seed=0)

    def test_parallel_matches_serial(self):
        p = make_problem("sphere", 2)
        serial = run_batch("00000000000", p, n=4, budget=300, seed=0, jobs=1)
        parallel = run_batch("00000000000", p, n=4, budget=300, seed=0, jobs=2)
        assert serial.fce == parallel.fce
        assert serial.ert == parallel.ert
        assert [r.best_error for r in serial.runs] == [
            r.best_error for r in parallel.runs
        ]


class TestExecuteRuns:
    def test_serial_map_is_builtin(self):
        with run_map(1) as map_fn:
            assert map_fn is map

    def test_records_in_seed_order_through_pool(self):
        p = make_problem("sphere", 2)
        seeds = [5, 3, 4]
        serial = execute_runs("00000000000", p, 300, seeds)
        with run_map(2) as map_fn:
            pooled = execute_runs("00000000000", p, 300, seeds, None, map_fn)
        assert [r.seed for r in pooled] == seeds
        assert pooled == serial

    def test_budget_defaults_to_1000_d(self, monkeypatch):
        budgets = []

        def fake_run(cfg_str, problem, budget, seed, target=None):
            budgets.append(budget)

        monkeypatch.setattr(evaluation, "run", fake_run)
        execute_runs("00000000000", make_problem("sphere", 5), None, [0, 1])
        assert budgets == [5000, 5000]


class TestSubsampleUncertainty:
    def test_full_pool_subsample_degenerate(self):
        rng = np.random.default_rng(0)
        pools = {
            "a": rng.lognormal(0.0, 0.4, size=16),
            "b": rng.lognormal(0.7, 0.4, size=16),
        }
        out = subsample_uncertainty(pools, folds=7, n_grid=[16], seed=1)
        # With n == pool size every fold sees the whole pool, so the
        # uncertainty per percentile is a single deterministic value.
        repeat = subsample_uncertainty(pools, folds=3, n_grid=[16], seed=99)
        assert np.allclose(out["uncertainty"], repeat["uncertainty"])

    def test_shapes_and_bounds(self):
        rng = np.random.default_rng(1)
        pools = {
            "a": rng.lognormal(0.0, 0.5, size=64),
            "b": rng.lognormal(1.0, 0.5, size=64),
            "c": rng.lognormal(2.0, 0.5, size=64),
        }
        out = subsample_uncertainty(pools, folds=20, n_grid=[2, 8, 32], seed=2)
        assert out["uncertainty"].shape == (20, 3)
        assert np.all(out["uncertainty"] >= 0.0)
        assert np.all(out["uncertainty"] <= 1.0)
        assert len(out["distances"]) == 20

    def test_insufficient_pool_rejected(self):
        pools = {"a": np.ones(4), "b": np.ones(4)}
        with pytest.raises(ValueError):
            subsample_uncertainty(pools, n_grid=[8])

    def test_wide_pools_span_decades_of_distance(self):
        # Qualitative shape check: strategy pools spread over decades
        # give small relative distances at low percentiles (d <= 1) and
        # huge ones (d >= 100) at the top.
        rng = np.random.default_rng(3)
        means = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 3.5, 6.5, 9.0]
        pools = {
            f"s{i}": rng.lognormal(mean=m, sigma=0.3, size=32)
            for i, m in enumerate(means)
        }
        out = subsample_uncertainty(pools, folds=10, n_grid=[8, 32], seed=0)
        pct = dict(zip(out["percentiles"], out["distances"]))
        assert pct[40.0] <= 1.0
        assert pct[100.0] >= 100.0
        u = out["uncertainty"]
        assert np.all(u[:, 1] <= u[:, 0] + 1e-12)


class TestResultsCache:
    def test_round_trip(self, tmp_path):
        cache = ResultsCache(str(tmp_path / "cache.tsv"))
        recs = [
            _rec(500, 500, err=1e-9, seed=3),
            _rec(900, None, err=0.125, seed=4),
        ]
        cache.append(recs)
        back = cache.records()
        assert len(back) == 2
        assert back[0].hit_index == 500
        assert back[1].hit_index is None
        assert back[1].best_error == 0.125
        assert back[0].seed == 3

    def test_empty_cache(self, tmp_path):
        cache = ResultsCache(str(tmp_path / "missing.tsv"))
        assert cache.records() == []

    def test_tolerates_torn_line(self, tmp_path):
        path = tmp_path / "cache.tsv"
        cache = ResultsCache(str(path))
        cache.append([_rec(100, 100, err=0.0, seed=1)])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("00000000000\tsphere\t2\t9")  # torn write
        assert len(cache.records()) == 1

    def test_torn_hit_index_is_not_read_back(self, tmp_path):
        # A write cut inside hit_index ("...\t245\n" -> "...\t24") still
        # has seven fields; it must not read back as hit_index=24, and the
        # next append must not be glued onto it.
        path = tmp_path / "cache.tsv"
        cache = ResultsCache(str(path))
        cache.append([_rec(100, 100, seed=1)])
        line = ResultsCache.format_record(_rec(300, 245, seed=2))
        assert line.endswith("\t245\n")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line[:-2])
        assert [r.seed for r in cache.records()] == [1]
        cache.append([_rec(400, None, seed=3)])
        back = cache.records()
        assert [(r.seed, r.hit_index) for r in back] == [(1, 100), (3, None)]
        assert path.read_text().count("\n") == 2

    @pytest.mark.parametrize("line", [
        "00000000000\tsphere\t2\t9\t100",
        "00000000000\tsphere\t2\t9\t100\t0.5\tNA\tx",
        "00000000000\tsphere\t2\tnine\t100\t0.5\tNA",
        "00000000000\tsphere\t2\t9\t100\tsmall\tNA",
    ], ids=["short", "long", "non-numeric-seed", "non-numeric-error"])
    def test_malformed_line_names_path_and_line(self, tmp_path, line):
        path = tmp_path / "cache.tsv"
        cache = ResultsCache(str(path))
        cache.append([_rec(100, 100, seed=1)])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        cache.append([_rec(100, 100, seed=2)])
        with pytest.raises(MalformedInputError) as exc:
            cache.records()
        assert str(exc.value).startswith(f"{path}:2: ")

    def test_append_after_torn_first_line(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("00000000000\tsphere\t2\t9")
        cache = ResultsCache(str(path))
        cache.append([_rec(100, 100, seed=1)])
        assert [r.seed for r in cache.records()] == [1]
        assert path.read_text() == ResultsCache.format_record(_rec(100, 100, seed=1))
