#!/usr/bin/env python3
"""Check the run invariants over the whole structure space.

For each problem below, ``modcmaes bruteforce --jobs 2`` runs every one
of the 4,608 structures with two seeds, streamed through the pool as the
command streams them, and every run is checked inside the worker that
ran it:

- ``evaluations_used <= budget``;
- the objective evaluated exactly as many points as the run charged,
  counted by a wrapper on ``Problem.error``;
- ``hit_index`` is set exactly when ``best_error <= target_precision``;
- no ``RuntimeWarning`` is raised (warnings become errors).

A breach raises inside the run, which fails the sweep. The checked
runs are counted across processes, and the sweep fails unless every
run was checked: the workers see the checks only by inheriting them
through a forked pool. Then a sampled
subset of the structures runs again under ``--jobs 1`` and must write
the same cache lines. The script prints each problem's wall time and a
digest of its cache (reported, not compared) and exits non-zero on the
first breach.

Run it from the root of a checkout::

    PYTHONPATH=src python3 scripts/check_space.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import multiprocessing
import os
import random
import sys
import tempfile
import time
import warnings

import numpy as np

from modcmaes import benchmarks, cli, evaluation

# (function, dimension, budget). Sphere 2-D has no rotation; rastrigin
# rotated 3-D has a rotation, restarts and an odd default lambda of 7.
PROBLEMS = (("sphere", 2, 400), ("rastrigin_rotated", 3, 300))
SEEDS = 2
SAMPLE = 48
SPACE = 4608

_points = [0]  # objective points evaluated by the current run
_checked = multiprocessing.Value("q", 0)  # runs checked, in any process


def _count_points(error):
    def counted(self, x):
        _points[0] += 1 if np.ndim(x) == 1 else len(x)
        return error(self, x)
    return counted


def _check_run(run):
    def checked(cfg, problem, budget, seed):
        _points[0] = 0
        r = run(cfg, problem, budget, seed)
        where = f"{r.config} on {problem.function_id}-{problem.dimension} seed {seed}"
        if r.evaluations_used > budget:
            raise AssertionError(f"{where}: used {r.evaluations_used} > {budget}")
        if _points[0] != r.evaluations_used:
            raise AssertionError(f"{where}: evaluated {_points[0]} points, "
                                 f"charged {r.evaluations_used}")
        if (r.hit_index is None) == (r.best_error <= problem.target_precision):
            raise AssertionError(f"{where}: hit_index {r.hit_index} with "
                                 f"best_error {r.best_error!r}")
        with _checked.get_lock():
            _checked.value += 1
        return r
    return checked


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"modcmaes {' '.join(argv)} exited {code}")
    return out.getvalue()


def _lines_by_config(path: str) -> dict[str, list[str]]:
    with open(path, encoding="utf-8") as fh:
        next(fh)  # the header
        lines: dict[str, list[str]] = {}
        for line in fh:
            lines.setdefault(line.split("\t", 1)[0], []).append(line)
    return lines


def check_problem(fid: str, dim: int, budget: int, workdir: str) -> str:
    common = ["--function", fid, "--dim", str(dim), "--runs", str(SEEDS),
              "--budget", str(budget), "--seed", "0"]
    pooled = os.path.join(workdir, f"{fid}-{dim}-jobs2.tsv")
    _checked.value = 0
    t0 = time.perf_counter()
    out = _cli(["bruteforce", *common, "--jobs", "2", "--cache", pooled])
    wall = time.perf_counter() - t0
    checked = _checked.value
    if checked != SPACE * SEEDS:
        raise SystemExit(f"{fid}-{dim}: {checked} of {SPACE * SEEDS} runs "
                         "were checked; the pool workers must be forked")
    if out != f"configs\t{SPACE}\nexecuted\t{SPACE}\nskipped\t0\n":
        raise SystemExit(f"{fid}-{dim}: bruteforce printed {out!r}")
    lines = _lines_by_config(pooled)
    if len(lines) != SPACE or any(len(v) != SEEDS for v in lines.values()):
        raise SystemExit(f"{fid}-{dim}: cache holds {len(lines)} structures, "
                         f"expected {SPACE} with {SEEDS} runs each")

    serial = os.path.join(workdir, f"{fid}-{dim}-jobs1.tsv")
    sample = random.Random(0).sample(sorted(lines), SAMPLE)
    for cfg in sample:
        _cli(["run", *common, "--config", cfg, "--jobs", "1", "--cache", serial])
    again = _lines_by_config(serial)
    differ = [cfg for cfg in sample if again[cfg] != lines[cfg]]
    if differ:
        raise SystemExit(f"{fid}-{dim}: --jobs 1 wrote other lines for "
                         f"{len(differ)} of {SAMPLE} structures, first {differ[0]}")
    with open(pooled, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()[:16]
    return (f"{fid}-{dim} budget {budget}: {checked} runs checked in "
            f"{wall:.1f} s, {SAMPLE} structures identical under --jobs 1, "
            f"cache digest {digest}")


def main() -> int:
    # Set before the pool forks, so every worker inherits them.
    warnings.simplefilter("error", RuntimeWarning)
    benchmarks.Problem.error = _count_points(benchmarks.Problem.error)
    evaluation.run = _check_run(evaluation.run)
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="check-space-") as workdir:
        for fid, dim, budget in PROBLEMS:
            print(check_problem(fid, dim, budget, workdir), flush=True)
    print(f"whole-space check: {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
