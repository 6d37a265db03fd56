import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcmaes import core, metaga
from modcmaes.benchmarks import make_problem
from modcmaes.configuration import ConfigurationVector, encode, enumerate_all
from modcmaes.evaluation import FitnessSummary, compare, summarize
from modcmaes.metaga import (
    P_INIT,
    P_MAX,
    P_MIN,
    ga_run,
    ga_step,
    mutate_rate,
    random_individual,
)


class _FixedNormal:
    """Stub generator returning a fixed standard-normal draw."""

    def __init__(self, value):
        self.value = value

    def standard_normal(self):
        return self.value


def _summary_for(cfg_str, ert=None, fce=1.0):
    return FitnessSummary(
        config=cfg_str,
        function_id="sphere",
        dimension=2,
        n=4,
        ert=ert,
        fce=fce,
        std_error=0.1,
    )


class TestMutateRate:
    def test_gamma_zero_is_identity(self):
        # A zero draw makes gamma * g zero, whatever GAMMA is.
        for p in (0.12, 0.2, 0.35, 0.5):
            assert mutate_rate(p, _FixedNormal(0.0)) == pytest.approx(p)

    def test_logistic_symmetry_at_half(self):
        assert mutate_rate(0.5, _FixedNormal(0.0)) == pytest.approx(0.5)

    def test_median_preserved(self):
        rng = np.random.default_rng(1)
        draws = np.array([mutate_rate(0.2, rng) for _ in range(100_000)])
        assert abs(np.median(draws) - 0.2) <= 0.02

    def test_clamped_to_valid_range(self):
        rng = np.random.default_rng(2)
        p = 0.2
        for _ in range(5000):
            p = mutate_rate(p, rng)
            assert P_MIN <= p <= P_MAX

    def test_rejects_degenerate_rate(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            mutate_rate(0.0, rng)
        with pytest.raises(ValueError):
            mutate_rate(1.0, rng)


class TestGaStep:
    def test_offspring_count_equals_lambda(self):
        calls = []

        def evaluator(cfg):
            calls.append(encode(cfg))
            return _summary_for(encode(cfg), fce=len(calls))

        rng = np.random.default_rng(3)
        parent = random_individual(rng)
        new_parent, offspring = ga_step(parent, evaluator, rng, lambda_=12)
        assert len(offspring) == 12
        assert len(calls) == 12

    def test_comma_replaces_parent_even_when_worse(self):
        # Parent carries a perfect fitness; all offspring are poor, yet
        # one of them must become the next parent.
        def evaluator(cfg):
            return _summary_for(encode(cfg), ert=None, fce=100.0)

        rng = np.random.default_rng(4)
        parent = random_individual(rng)
        parent.fitness = _summary_for(encode(parent.r), ert=1.0, fce=0.0)
        new_parent, offspring = ga_step(parent, evaluator, rng, lambda_=6)
        assert new_parent in offspring
        assert new_parent.fitness.fce == 100.0

    def test_best_offspring_selected(self):
        scores = {}

        def evaluator(cfg):
            s = encode(cfg)
            if s not in scores:
                scores[s] = float(len(scores))
            return _summary_for(s, ert=None, fce=scores[s])

        rng = np.random.default_rng(5)
        parent = random_individual(rng)
        new_parent, offspring = ga_step(parent, evaluator, rng, lambda_=8)
        best = min(offspring, key=lambda o: o.fitness.fce)
        assert new_parent.fitness.fce == best.fitness.fce

    def test_mutation_respects_frozen(self):
        free = {0, 1, 2}

        def evaluator(cfg):
            return _summary_for(encode(cfg))

        rng = np.random.default_rng(6)
        parent = random_individual(rng, free=free)
        for _ in range(5):
            parent, offspring = ga_step(
                parent, evaluator, rng, lambda_=12, free=free
            )
            for child in offspring:
                assert child.r.genes[3:] == (0,) * 8

    def test_rejects_bad_lambda(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ga_step(random_individual(rng), lambda cfg: None, rng, lambda_=0)

    def test_evaluator_failure_marks_offspring_worst(self):
        calls = []

        def evaluator(cfg):
            calls.append(encode(cfg))
            if len(calls) % 2:
                raise RuntimeError("backend down")
            return _summary_for(encode(cfg), ert=None, fce=1.0)

        rng = np.random.default_rng(8)
        parent = random_individual(rng)
        new_parent, offspring = ga_step(parent, evaluator, rng, lambda_=6)
        assert len(offspring) == 6
        failed = [o for i, o in enumerate(offspring) if i % 2 == 0]
        assert all(o.fitness.fce == float("inf") for o in failed)
        assert new_parent.fitness.fce == 1.0


class TestGaRun:
    def test_budget_240_gives_20_generations(self):
        def evaluator(cfg):
            return _summary_for(encode(cfg), fce=float(sum(cfg.genes)))

        trace = ga_run(evaluator, budget=240, lambda_=12, seed=0)
        assert len(trace.entries) == 20
        assert trace.evaluations == 240
        assert [e.generation for e in trace.entries] == list(range(1, 21))

    def test_budget_12_gives_one_generation(self):
        def evaluator(cfg):
            return _summary_for(encode(cfg), fce=1.0)

        trace = ga_run(evaluator, budget=12, lambda_=12, seed=0)
        assert len(trace.entries) == 1
        assert trace.evaluations == 12

    def test_evaluator_failures_counted_in_trace(self):
        calls = []

        def evaluator(cfg):
            calls.append(encode(cfg))
            if len(calls) % 3 == 0:
                raise RuntimeError("backend down")
            return _summary_for(encode(cfg), fce=1.0)

        trace = ga_run(evaluator, budget=24, lambda_=6, seed=0)
        assert trace.evaluations == 24
        assert trace.failures == 8
        assert "inf" not in trace.to_lines()

    def test_no_failures_counted_when_all_succeed(self):
        trace = ga_run(
            lambda cfg: _summary_for(encode(cfg)), budget=24, lambda_=6, seed=0
        )
        assert trace.failures == 0

    def test_first_failure_reason_kept_on_trace(self, monkeypatch):
        problem = make_problem("sphere", 2)
        free = {0, 1, 2}

        def evaluator(cfg):
            runs = [core.run(encode(cfg), problem, 100, seed=s) for s in (1, 2)]
            return summarize(runs)

        clean = ga_run(evaluator, budget=24, lambda_=12, seed=0, free=free)
        assert clean.failures == 0 and clean.first_error is None
        run = core.run

        def broken_run(cfg_str, *args, **kwargs):
            if cfg_str == "11100000000":
                raise RuntimeError("engine down")
            return run(cfg_str, *args, **kwargs)

        monkeypatch.setattr(core, "run", broken_run)
        trace = ga_run(evaluator, budget=24, lambda_=12, seed=0, free=free)
        assert trace.failures > 0
        assert trace.first_error == "RuntimeError: engine down"
        assert "engine down" not in trace.to_lines()

    def test_budget_smaller_than_lambda_rejected(self):
        with pytest.raises(ValueError):
            ga_run(lambda cfg: None, budget=6, lambda_=12, seed=0)

    def test_best_so_far_monotone_under_compare(self):
        rng_scores = np.random.default_rng(7)
        scores = {}

        def evaluator(cfg):
            s = encode(cfg)
            if s not in scores:
                ert = (
                    float(rng_scores.uniform(100, 1000))
                    if rng_scores.random() < 0.5
                    else None
                )
                scores[s] = _summary_for(s, ert=ert, fce=float(rng_scores.uniform(0.1, 5)))
            return scores[s]

        trace = ga_run(evaluator, budget=240, lambda_=12, seed=1)
        for prev, cur in zip(trace.entries, trace.entries[1:]):
            a = scores[prev.best_config]
            b = scores[cur.best_config]
            # The incumbent never gets worse under the ERT-first order.
            assert compare(b, a).winner != "B"

    def test_every_genome_valid(self):
        seen = []

        def evaluator(cfg):
            seen.append(cfg)
            return _summary_for(encode(cfg), fce=1.0)

        ga_run(evaluator, budget=120, lambda_=12, seed=3)
        for cfg in seen:
            assert isinstance(cfg, ConfigurationVector)
            assert len(cfg.genes) == 11

    def test_deterministic_given_seed(self):
        def evaluator(cfg):
            return _summary_for(encode(cfg), fce=float(sum(cfg.genes)))

        a = ga_run(evaluator, budget=120, lambda_=12, seed=11)
        b = ga_run(evaluator, budget=120, lambda_=12, seed=11)
        assert a.to_lines() == b.to_lines()

    def test_reduced_space_recovers_brute_force_best(self):
        # Genes 1-3 free, the tail all zero: 8 structures; fitness
        # minimized at a known genome. The GA must find it with its
        # standard budget.
        free = {0, 1, 2}
        target = (1, 0, 1)

        def evaluator(cfg):
            dist = sum(
                abs(a - b) for a, b in zip(cfg.genes[:3], target)
            )
            return _summary_for(encode(cfg), ert=None, fce=float(dist))

        best_by_bf = min(
            enumerate_all(free),
            key=lambda cfg: sum(abs(a - b) for a, b in zip(cfg.genes[:3], target)),
        )
        hits = 0
        for seed in range(10):
            trace = ga_run(evaluator, budget=240, lambda_=12, seed=seed, free=free)
            if trace.best_config == encode(best_by_bf):
                hits += 1
        assert hits == 10

    def test_trace_serialization(self):
        def evaluator(cfg):
            return _summary_for(encode(cfg), ert=None, fce=0.5)

        trace = ga_run(evaluator, budget=24, lambda_=12, seed=0)
        text = trace.to_lines()
        lines = text.strip().split("\n")
        assert lines[0] == "generation\tbest_config\tert\tfce"
        assert len(lines) == 3
        gen, cfg, ert, fce = lines[1].split("\t")
        assert ert == "NA"
        assert float(fce) == 0.5


def test_random_individual_initial_rate():
    rng = np.random.default_rng(0)
    ind = random_individual(rng)
    assert ind.p_m == P_INIT
    assert ind.fitness is None


def test_random_individual_uniform_coverage():
    rng = np.random.default_rng(1)
    seen = {encode(random_individual(rng).r) for _ in range(2000)}
    # 4608 genomes; 2000 uniform draws should hit a large spread.
    assert len(seen) > 1500


_ERT = st.one_of(st.none(), st.floats(1.0, 1e6))
_FCE = st.one_of(st.just(0.0), st.just(math.inf), st.floats(1e-12, 1e6))
_STD = st.one_of(st.just(0.0), st.floats(1e-12, 1e6))
_SUMMARY = st.builds(
    lambda n, ert, fce, std: FitnessSummary(
        "00000000000", "sphere", 2, n, ert, fce, std),
    st.integers(0, 32), _ERT, _FCE, _STD,
)


@settings(max_examples=200, deadline=None)
@given(a=_SUMMARY, b=_SUMMARY, same_ert=st.booleans(),
       same_fce=st.booleans())
def test_better_is_compare_winner(a, b, same_ert, same_fce):
    """The GA's ordering is compare's winner without the Welch test."""
    if same_ert:
        b = dataclasses.replace(b, ert=a.ert)
    if same_fce:
        b = dataclasses.replace(b, fce=a.fce)
    assert metaga._better(a, b) == (compare(a, b).winner == "A")
    assert metaga._better(b, a) == (compare(b, a).winner == "A")
