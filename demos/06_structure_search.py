#!/usr/bin/env python3
"""Searching the structure space: brute force versus the GA.

On a reduced space (three free modules, eight structures) over the 2-D
sphere, sweep everything by brute force, then let the self-adaptive
(1,12) GA search the same space against the shared results cache. The
GA reads cached fitness for every genome it revisits, so its 240
structure evaluations cost almost nothing on top of the sweep.
"""

import os
import tempfile

from modcmaes import ResultsCache, compare, enumerate_all, encode, make_problem
from modcmaes.cli import CachedEvaluator, rank_aggregate
from modcmaes.metaga import ga_run

FREE = {0, 1, 2}  # free modules: 1..3, every other gene 0

problem = make_problem("sphere", 2)
workdir = tempfile.mkdtemp(prefix="structure-search-")
cache = ResultsCache(os.path.join(workdir, "cache.tsv"))
evaluator = CachedEvaluator(problem, cache, n_runs=32, budget=2000, base_seed=0)

print("brute force over the 8 reduced structures (32 runs each)")
summaries = {}
for cfg in enumerate_all(FREE):
    s = evaluator(encode(cfg))
    summaries[s.config] = s
    ert = "NA" if s.ert is None else f"{s.ert:8.1f}"
    print(f"  {s.config}  ert {ert}  fce {s.fce:.2e}")

best = None
for s in summaries.values():
    if best is None or compare(s, best).winner == "A":
        best = s
print(f"brute-force best: {best.config} (ert {best.ert:.1f})")
print(f"ES runs executed so far: {evaluator.runs_executed}")

print("\nGA searches the same space, 10 seeded runs of 20 generations")
hits = 0
for seed in range(10):
    trace = ga_run(evaluator, budget=240, lambda_=12, seed=seed, free=FREE)
    found = trace.best_config
    hits += found == best.config
    print(
        f"  seed {seed}: found {found} after {trace.evaluations} "
        f"structure evaluations"
    )
print(f"GA recovered the brute-force best in {hits}/10 runs")
print(f"additional ES runs beyond the sweep: {evaluator.runs_executed - 256}")

bf_fitness = [(s.ert, s.fce) for s in summaries.values()]
ga_rank = rank_aggregate(bf_fitness, (best.ert, best.fce))
print(f"aggregate rank of the GA result among brute force: {ga_rank}")
print(f"\nworkdir with the shared cache: {workdir}")
