import math
import os
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from modcmaes import evaluation
from modcmaes.benchmarks import make_problem
from modcmaes.configuration import encode, enumerate_all
from modcmaes.core import ENGINE_VERSION, RunRecord
from modcmaes.evaluation import (
    CACHE_HEADER,
    CachedEvaluator,
    FitnessSummary,
    MalformedInputError,
    ResultsCache,
    compare,
    compute_ert,
    fitness_key,
    run_batch,
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

    def test_success_counts_up_to_its_hit_index(self):
        # the rest of the block that reached the target is not counted
        runs = [_rec(506, 500, err=0.0), _rec(5000, None, err=2.0, seed=1)]
        assert compute_ert(runs) == 5500.0

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


def _reference_compare(ert_a, fce_a, ert_b, fce_b):
    """The ERT-first branches of compare's (winner, basis), spelled out."""
    if ert_a is not None and ert_b is not None:
        if ert_a < ert_b:
            return "A", "ert"
        if ert_b < ert_a:
            return "B", "ert"
        return "tie", "ert"
    if ert_a is not None:
        return "A", "ert"
    if ert_b is not None:
        return "B", "ert"
    if fce_a < fce_b:
        return "A", "fce"
    if fce_b < fce_a:
        return "B", "fce"
    return "tie", "fce"


_ERT = st.one_of(st.none(), st.floats(1.0, 1e6))
_FCE = st.one_of(st.sampled_from([0.0, math.inf, math.nan]),
                 st.floats(0.0, 1e6))


@settings(max_examples=500, deadline=None)
@given(ert_a=_ERT, fce_a=_FCE, ert_b=_ERT, fce_b=_FCE,
       same_ert=st.booleans(), same_fce=st.booleans())
def test_compare_truth_table(ert_a, fce_a, ert_b, fce_b, same_ert, same_fce):
    """compare and fitness_key keep the reference's order; NaN compares
    false both ways, so it ties."""
    if same_ert:
        ert_b = ert_a
    if same_fce:
        fce_b = fce_a
    expected = _reference_compare(ert_a, fce_a, ert_b, fce_b)
    if ert_a is not None and ert_a == ert_b:
        assert expected == ("tie", "ert")  # whatever the FCEs
    summary = _summary(ert_a, fce_a)
    res = compare(summary, _summary(ert_b, fce_b))
    assert (res.winner, res.basis) == expected
    a, b = fitness_key(ert_a, fce_a), fitness_key(ert_b, fce_b)
    assert ("A" if a < b else "B" if b < a else "tie") == expected[0]
    assert summary.key == a
    assert summary.key is summary.key  # built once


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


class TestEvaluatorArguments:
    def test_n_runs_checked_before_the_cache_is_read(self, tmp_path):
        cache = ResultsCache(str(tmp_path / "no-such-dir" / "c.tsv"))
        with pytest.raises(ValueError, match="n_runs must be >= 1"):
            CachedEvaluator(make_problem("sphere", 2), cache, n_runs=0)

    def test_no_cache_touches_no_file_and_equals_run_batch(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        problem = make_problem("sphere", 2)
        with CachedEvaluator(problem, None, n_runs=3, budget=200,
                             base_seed=5) as ev:
            summary = ev("10100000000")
        assert os.listdir(tmp_path) == []
        assert ev.runs_executed == 3
        assert summary == run_batch("10100000000", problem, n=3, budget=200,
                                    seed=5)

    def test_leaving_the_block_shuts_the_pool(self, monkeypatch):
        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", _StubPool)
        with CachedEvaluator(make_problem("sphere", 2), None, jobs=2):
            assert _StubPool.last.cancelled is None
        assert _StubPool.last.cancelled is True


class TestRunSeeds:
    def test_serial_map_is_builtin(self):
        with CachedEvaluator(make_problem("sphere", 2), None, jobs=1) as ev:
            ev.plan(["00000000000"])
            assert type(ev._stream) is map

    def test_records_in_seed_order_through_pool(self):
        p = make_problem("sphere", 2)
        seeds = [5, 3, 4]
        plan = [("00000000000", seeds)]
        run_seeds = partial(evaluation._run_seeds, p, 300)
        serial, = map(run_seeds, plan)
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled, = evaluation._ReadAhead(pool, 2, run_seeds, plan)
        assert [r.seed for r in pooled] == seeds
        assert pooled == serial

    def test_budget_defaults_to_1000_d(self, monkeypatch):
        budgets = []

        def fake_run(cfg_str, problem, budget, seed):
            budgets.append(budget)
            return _rec(budget, None, seed=seed)

        monkeypatch.setattr(evaluation, "run", fake_run)
        run_batch("00000000000", make_problem("sphere", 5), n=2)
        assert budgets == [5000, 5000]


class _StubPool:
    """A pool stand-in: it runs a chunk when the chunk is submitted and
    counts the chunks submitted but not yet read back."""

    def __init__(self, max_workers):
        self.in_flight = self.most = 0
        self.chunks: list[int] = []  # the seed count of each chunk
        self.cancelled = None  # cancel_futures, once shut down
        _StubPool.last = self

    def shutdown(self, cancel_futures=False):
        self.cancelled = cancel_futures

    def submit(self, fn, task):
        self.in_flight += 1
        self.most = max(self.most, self.in_flight)
        self.chunks.append(len(task[1]))
        records = fn(task)

        def result():
            self.in_flight -= 1
            return records

        return SimpleNamespace(result=result)


class TestStream:
    CFGS = [encode(c) for c in enumerate_all({0, 1, 2, 3, 4})]

    def test_read_ahead_is_bounded_and_lazy(self, tmp_path, monkeypatch):
        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", _StubPool)
        problem = make_problem("sphere", 2)
        with CachedEvaluator(problem, ResultsCache(str(tmp_path / "a")),
                             n_runs=5, budget=100, jobs=2) as ev:
            pool = _StubPool.last
            ev.plan(self.CFGS)
            assert pool.chunks == []
            for cfg in self.CFGS:
                ev(cfg)
                assert pool.in_flight <= 8
        # Four chunks in flight per worker, and never more; 5 seeds in
        # chunks of ceil(5 / 4) = 2, and the last structure one per seed.
        assert pool.most == 8
        assert pool.in_flight == 0
        assert pool.chunks == [2, 2, 1] * (len(self.CFGS) - 1) + [1] * 5
        serial = CachedEvaluator(problem, ResultsCache(str(tmp_path / "b")),
                                 n_runs=5, budget=100)
        for cfg in self.CFGS:
            serial(cfg)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_a_lone_structure_goes_one_seed_per_chunk(self, monkeypatch):
        """With no structure behind it, each run is its own chunk, all
        in flight at once even past four chunks per worker."""
        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", _StubPool)
        problem = make_problem("sphere", 2)
        pooled = run_batch(self.CFGS[3], problem, n=12, budget=100, jobs=2)
        assert _StubPool.last.chunks == [1] * 12
        assert _StubPool.last.most == 12
        assert pooled == run_batch(self.CFGS[3], problem, n=12, budget=100)

    def test_serial_plan_runs_nothing_ahead(self, tmp_path, monkeypatch):
        calls = []
        run = evaluation.run

        def counted_run(cfg_str, *args):
            calls.append(cfg_str)
            return run(cfg_str, *args)

        monkeypatch.setattr(evaluation, "run", counted_run)
        ev = CachedEvaluator(make_problem("sphere", 2),
                             ResultsCache(str(tmp_path / "c.tsv")),
                             n_runs=3, budget=100)
        ev.plan(self.CFGS)
        assert calls == []
        ev(self.CFGS[0])
        assert calls == [self.CFGS[0]] * 3
        ev(self.CFGS[1])
        assert calls == [self.CFGS[0]] * 3 + [self.CFGS[1]] * 3

    def test_plan_returns_the_structures_it_queued(self, tmp_path):
        problem = make_problem("sphere", 2)
        cache = ResultsCache(str(tmp_path / "c.tsv"))
        run = evaluation.run
        cache.append([run(self.CFGS[0], problem, 100, s) for s in (0, 1)]
                     + [run(self.CFGS[1], problem, 100, 1)])
        ev = CachedEvaluator(problem, cache, n_runs=2, budget=100)
        cfgs = self.CFGS[:4]
        assert ev.plan(cfgs + cfgs[::-1]) == cfgs[1:]
        assert ev.plan(cfgs[:1]) == []

    def test_a_call_out_of_plan_order_streams_its_structure(self, tmp_path):
        problem = make_problem("sphere", 2)
        ev = CachedEvaluator(problem, ResultsCache(str(tmp_path / "a")),
                             n_runs=2, budget=100)
        ev.plan(self.CFGS[:3])
        assert ev(self.CFGS[2]).config == self.CFGS[2]
        assert ev(self.CFGS[0]).config == self.CFGS[0]
        fresh = CachedEvaluator(problem, ResultsCache(str(tmp_path / "b")),
                                n_runs=2, budget=100)
        assert ev(self.CFGS[0]) == fresh(self.CFGS[0])

    def test_a_failed_run_fails_only_its_structure(self, tmp_path, monkeypatch):
        """Pool workers inherit a run that raises for one seed of one
        structure."""
        run = evaluation.run
        bad = self.CFGS[1]

        def flaky_run(cfg_str, problem, budget, seed):
            if cfg_str == bad and seed == 2:
                raise RuntimeError("engine down")
            return run(cfg_str, problem, budget, seed)

        monkeypatch.setattr(evaluation, "run", flaky_run)
        problem = make_problem("sphere", 2)
        cfgs = self.CFGS[:3]
        path = str(tmp_path / "pool.tsv")
        with CachedEvaluator(problem, ResultsCache(path), n_runs=4,
                             budget=200, jobs=2) as ev:
            ev.plan(cfgs)
            first = ev(cfgs[0])
            with pytest.raises(RuntimeError, match="engine down"):
                ev(bad)
            third = ev(cfgs[2])
        serial = CachedEvaluator(problem, ResultsCache(str(tmp_path / "s")),
                                 n_runs=4, budget=200)
        assert first == serial(cfgs[0])
        assert third == serial(cfgs[2])
        assert {r.config for r in ResultsCache(path).records()} == {
            cfgs[0], cfgs[2]}


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
        assert path.read_text().count("\n") == 3  # the header and two records

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
        assert str(exc.value).startswith(f"{path}:3: ")  # line 1 is the header

    def test_append_after_torn_first_line(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("00000000000\tsphere\t2\t9")
        cache = ResultsCache(str(path))
        cache.append([_rec(100, 100, seed=1)])
        assert [r.seed for r in cache.records()] == [1]
        assert path.read_text() == CACHE_HEADER + ResultsCache.format_record(
            _rec(100, 100, seed=1))

    def test_header_written_once_and_records_round_trip(self, tmp_path):
        path = tmp_path / "cache.tsv"
        cache = ResultsCache(str(path))
        recs = [_rec(506, 500, err=5e-324, seed=1), _rec(7, None, err=0.1, seed=2),
                _rec(900, None, err=math.inf, seed=3)]
        cache.append(recs[:1])
        cache.append(recs[1:])
        text = path.read_text()
        assert text.startswith(CACHE_HEADER)
        assert text.count(CACHE_HEADER) == 1
        assert f"engine_version={ENGINE_VERSION}" in CACHE_HEADER
        assert cache.records() == recs

    def test_reading_never_writes(self, tmp_path):
        missing = tmp_path / "missing.tsv"
        assert ResultsCache(str(missing)).records() == []
        assert not missing.exists()
        path = tmp_path / "cache.tsv"
        ResultsCache(str(path)).append([_rec(100, 100, seed=1)])
        before = (path.read_bytes(), os.stat(path).st_mtime_ns)
        for _ in range(2):
            assert [r.seed for r in ResultsCache(str(path)).records()] == [1]
        assert (path.read_bytes(), os.stat(path).st_mtime_ns) == before

    @pytest.mark.parametrize("first, found", [
        (ResultsCache.format_record(_rec(100, 100, seed=1)), "1 (no header)"),
        *((f"#modcmaes results cache\tengine_version={v}\n", str(v))
          for v in (ENGINE_VERSION - 1, ENGINE_VERSION + 1)),
    ], ids=["headerless", "version-1", "version+1"])
    def test_other_engine_version_refused(self, tmp_path, first, found):
        path = tmp_path / "cache.tsv"
        path.write_text(first + ResultsCache.format_record(_rec(9, None, seed=2)))
        before = path.read_bytes()
        cache = ResultsCache(str(path))
        for action in (cache.records, lambda: cache.append([_rec(5, 5, seed=3)])):
            with pytest.raises(MalformedInputError) as exc:
                action()
            message = str(exc.value)
            assert message.startswith(f"{path}:1: ")
            assert f"engine version {found};" in message
            assert f"version {ENGINE_VERSION} " in message
        assert path.read_bytes() == before
