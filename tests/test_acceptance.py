"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in captured output) and asserts the criterion at its stated tolerance.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from modcmaes.benchmarks import make_problem
from modcmaes.cli import CachedEvaluator, main
from modcmaes.configuration import decode, encode, enumerate_all
from modcmaes.core import default_lambda, resolve_interactions, run
from modcmaes.evaluation import (
    FitnessSummary,
    ResultsCache,
    compare,
    compute_ert,
    subsample_uncertainty,
    welch_uncertainty,
)
from modcmaes.metaga import ga_run
from modcmaes.sampling import SamplerSpec, next_batch, quasi_uniform


def _verdict(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {name}"


def test_01_configuration_space_round_trip():
    seen = set()
    ok = True
    for cfg in enumerate_all():
        text = encode(cfg)
        seen.add(text)
        if decode(text) != cfg:
            ok = False
            break
    ok = ok and len(seen) == 4608
    _verdict("01 configuration-space", ok)


def test_02_interaction_rules_all_configs():
    lam0 = default_lambda(5)  # 8, with mu0 = 4: exactly lambda = 2*mu
    mu0 = lam0 // 2
    ok = True
    for cfg in enumerate_all():
        lam, mu, lam_eff, cutoff = resolve_interactions(cfg, lam0, mu0)
        if cfg.pairwise and cfg.sequential:
            if lam < 2 * mu or cutoff != 2 * mu:
                ok = False
                break
        if cfg.pairwise and cfg.tpa:
            # entry condition lambda == 2*mu held, so mu must shrink
            if mu != lam_eff // 2:
                ok = False
                break
        if cfg.pairwise and lam < 2 * mu:
            ok = False
            break
    _verdict("02 interaction-rules", ok)


def test_03_sampling_contracts():
    mirrored = next_batch(
        SamplerSpec(base="gaussian", mirrored=True, dimension=3, seed=1), 8
    )
    ok = bool(np.all(mirrored.sum(axis=0) == 0.0))

    orth = next_batch(
        SamplerSpec(base="gaussian", orthogonal=True, dimension=5, seed=2), 5
    )
    gram = orth @ orth.T
    off = gram - np.diag(np.diag(gram))
    ok = ok and np.max(np.abs(off)) <= 1e-10

    halton_prefix = [quasi_uniform("halton", 2, i)[0] for i in (1, 2, 3, 4)]
    ok = ok and halton_prefix == [0.5, 0.25, 0.75, 0.125]

    for base in ("sobol", "halton"):
        batch = next_batch(SamplerSpec(base=base, dimension=2, seed=99), 4096)
        ok = ok and bool(np.all(np.abs(batch.mean(axis=0)) <= 0.05))
        ok = ok and bool(np.all(np.abs(batch.var(axis=0) - 1.0) <= 0.1))
    _verdict("03 sampling", ok)


def test_04_solver_sanity_sphere_5d():
    problem = make_problem("sphere", 5)
    successes = sum(
        run("00000000000", problem, budget=5000, seed=s).success
        for s in range(32)
    )
    print(f"  sphere 5-D successes: {successes}/32")
    _verdict("04 solver-sanity", successes >= 28)


def test_05_elitism_monotonicity():
    problem = make_problem("rastrigin_separable", 2)
    ok = True
    for seed in range(100):
        rec = run(
            "01000000000",
            problem,
            budget=1500,
            seed=seed,
            record_generations=True,
        )
        g = rec.generation_best_f
        if any(b > a + 1e-15 for a, b in zip(g, g[1:])):
            ok = False
            break
    _verdict("05 elitism-monotonicity", ok)


def test_06_welch_calculus():
    ok = welch_uncertainty(0.0, 0.5, 32) == 1.0
    ok = ok and welch_uncertainty(0.0, 2.0, 7) == 1.0

    d, s_rel, n = 1.0, 0.5, 32
    s_e = math.sqrt((s_rel**2 + ((1 + d) * s_rel) ** 2) / n)
    t = d / s_e
    df = 2 * n - 2
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    tail, _ = quad(lambda x: c * (1 + x * x / df) ** (-(df + 1) / 2), t, np.inf)
    oracle = 2.0 * tail
    got = welch_uncertainty(d, s_rel, n)
    ok = ok and abs(got - oracle) <= 1e-6

    values = [welch_uncertainty(1.0, 0.5, n) for n in range(2, 257)]
    ok = ok and all(b < a for a, b in zip(values, values[1:]))
    _verdict("06 welch-calculus", ok)


def test_07_ert_oracle():
    from modcmaes.core import RunRecord

    rng = np.random.default_rng(20)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 16))
        runs = []
        for i in range(n):
            evals = int(rng.integers(1, 100_000))
            hit = evals if rng.random() < 0.4 else None
            runs.append(
                RunRecord(
                    config="00000000000",
                    function_id="f",
                    dimension=2,
                    seed=i,
                    evaluations_used=evals,
                    best_error=float(rng.random()),
                    hit_index=hit,
                )
            )
        total = 0
        successes = 0
        for r in runs:
            total += r.evaluations_used
            if r.hit_index is not None:
                successes += 1
        oracle = None if successes == 0 else total / successes
        if compute_ert(runs) != oracle:
            ok = False
            break
    _verdict("07 ert-oracle", ok)


def test_08_comparison_ordering():
    rng = np.random.default_rng(21)

    def make(force_ert=None):
        has_ert = force_ert if force_ert is not None else rng.random() < 0.5
        return FitnessSummary(
            config="x",
            function_id="f",
            dimension=2,
            n=32,
            ert=float(rng.uniform(10, 1e5)) if has_ert else None,
            fce=float(rng.uniform(1e-9, 100.0)),
            std_error=float(rng.uniform(0.0, 1.0)),
        )

    ok = True
    for _ in range(10_000):
        a, b = make(), make()
        ab, ba = compare(a, b), compare(b, a)
        if ab.winner == "A" and ba.winner != "B":
            ok = False
        elif ab.winner == "B" and ba.winner != "A":
            ok = False
        elif ab.winner == "tie" and ba.winner != "tie":
            ok = False
        if not ok:
            break
        # ERT dominance regardless of FCE values.
        with_ert, without = make(True), make(False)
        if compare(with_ert, without).winner != "A":
            ok = False
            break
    _verdict("08 comparison-ordering", ok)


@pytest.fixture(scope="module")
def reduced_space_cache(tmp_path_factory):
    """Brute-force cache of the 8-config space on the 2-D sphere."""
    tmp = tmp_path_factory.mktemp("acceptance")
    cache = ResultsCache(str(tmp / "cache.tsv"))
    problem = make_problem("sphere", 2)
    evaluator = CachedEvaluator(
        problem, cache, n_runs=32, budget=2000, base_seed=0
    )
    free = {0, 1, 2}
    summaries = {}
    for cfg in enumerate_all(free):
        summaries[encode(cfg)] = evaluator(encode(cfg))
    best = None
    for s in summaries.values():
        if best is None or compare(s, best).winner == "A":
            best = s
    return evaluator, free, best.config


def test_09_ga_recovers_brute_force_best(reduced_space_cache):
    evaluator, free, best_config = reduced_space_cache
    executed_before = evaluator.runs_executed
    hits = 0
    for seed in range(30):
        trace = ga_run(evaluator, budget=240, lambda_=12, seed=seed, free=free)
        if trace.best_config == best_config:
            hits += 1
    print(f"  GA recovered brute-force best {best_config}: {hits}/30")
    ok = hits >= 27
    ok = ok and evaluator.runs_executed == executed_before  # cache only
    _verdict("09 ga-vs-brute-force", ok)


def test_10_ga_budget_accounting(reduced_space_cache):
    evaluator, free, _ = reduced_space_cache
    ok = True
    for seed in range(30):
        trace = ga_run(evaluator, budget=240, lambda_=12, seed=seed, free=free)
        if trace.evaluations != 240 or len(trace.entries) != 20:
            ok = False
            break
    _verdict("10 ga-budget-accounting", ok)


def test_11_subsampling_monotone():
    rng = np.random.default_rng(2024)
    pools = {
        "a": rng.lognormal(mean=0.0, sigma=0.6, size=256),
        "b": rng.lognormal(mean=0.9, sigma=0.6, size=256),
    }
    out = subsample_uncertainty(
        pools, folds=100, n_grid=[2, 4, 8, 16, 32, 64, 128, 256], seed=7
    )
    ok = True
    for row in out["uncertainty"]:
        inversions = sum(1 for a, b in zip(row, row[1:]) if b > a + 1e-15)
        if inversions > 1:
            ok = False
            break
    _verdict("11 subsampling-monotone", ok)


def test_12_cli_determinism_and_jobs(tmp_path, capsys):
    args = ["run", "--config", "00000000000", "--function", "sphere",
            "--dim", "2", "--runs", "4", "--budget", "400", "--seed", "7"]

    cache_a = str(tmp_path / "a.tsv")
    main([*args, "--cache", cache_a])
    out_a = capsys.readouterr().out

    cache_b = str(tmp_path / "b.tsv")
    main([*args, "--cache", cache_b])
    out_b = capsys.readouterr().out

    cache_c = str(tmp_path / "c.tsv")
    main([*args, "--cache", cache_c, "--jobs", "2"])
    out_c = capsys.readouterr().out

    bytes_a = open(cache_a, "rb").read()
    ok = bytes_a == open(cache_b, "rb").read()
    ok = ok and bytes_a == open(cache_c, "rb").read()
    ok = ok and out_a == out_b == out_c

    # bruteforce over the reduced space, serial vs parallel
    bf_args = ["bruteforce", "--function", "sphere", "--dim", "2",
               "--runs", "2", "--budget", "300", "--seed", "0",
               "--free", "1,2"]
    cache_d = str(tmp_path / "d.tsv")
    main([*bf_args, "--cache", cache_d])
    capsys.readouterr()
    cache_e = str(tmp_path / "e.tsv")
    main([*bf_args, "--cache", cache_e, "--jobs", "2"])
    capsys.readouterr()
    ok = ok and open(cache_d, "rb").read() == open(cache_e, "rb").read()
    _verdict("12 determinism-and-jobs", ok)
