"""Fixed-target performance measurement and strategy comparison.

A strategy's quality on a problem is summarized from n independent runs
as the pair (ERT, FCE): estimated running time when at least one run
reaches the target, and the mean best error at budget exhaustion
otherwise. Comparisons are ERT-first; the probability that two
strategies are actually indistinguishable is estimated with a Welch
t-statistic on relative distances.
"""

from __future__ import annotations

import contextlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache, partial
from typing import Iterator

import numpy as np

from .benchmarks import default_budget
from .configuration import ConfigurationVector
from .core import RunRecord, run

__all__ = [
    "RunRecord",
    "FitnessSummary",
    "ComparisonResult",
    "run_map",
    "execute_runs",
    "run_batch",
    "compute_ert",
    "summarize",
    "compare",
    "compare_fitness",
    "welch_uncertainty",
    "subsample_uncertainty",
    "ResultsCache",
    "MalformedInputError",
    "format_float",
]


def format_float(x: float | None) -> str:
    """The TSV form of a value: ``NA`` for ``None``, else the shortest
    round-trip decimal form, stable across reruns."""
    return "NA" if x is None else repr(float(x))


class MalformedInputError(ValueError):
    """A malformed cache, trace or winners file; the message starts with
    ``<file>:<line>:``."""


@dataclass(frozen=True)
class FitnessSummary:
    """Aggregate of n runs of one configuration on one problem; one
    summary may be shared by many callers, so it is immutable."""

    config: str
    function_id: str
    dimension: int
    n: int
    ert: float | None
    fce: float
    std_error: float
    runs: tuple[RunRecord, ...] = ()


@dataclass(frozen=True)
class ComparisonResult:
    winner: str  # "A", "B" or "tie"
    basis: str  # "ert" or "fce"
    d: float
    uncertainty: float


def compute_ert(runs: list[RunRecord]) -> float | None:
    """Total evaluations over all runs divided by the success count.

    Failed runs contribute everything they consumed; returns ``None``
    when no run reached the target.
    """
    successes = sum(1 for r in runs if r.hit_index is not None)
    if successes == 0:
        return None
    total = sum(r.evaluations_used for r in runs)
    return total / successes


def summarize(runs: list[RunRecord]) -> FitnessSummary:
    """Build the (ERT, FCE) fitness summary of a batch of runs."""
    if not runs:
        raise ValueError("cannot summarize an empty run list")
    errors = np.array([r.best_error for r in runs], dtype=float)
    fce = float(np.mean(errors))
    std_error = float(np.sqrt(np.mean((errors - fce) ** 2)))
    first = runs[0]
    return FitnessSummary(
        config=first.config,
        function_id=first.function_id,
        dimension=first.dimension,
        n=len(runs),
        ert=compute_ert(runs),
        fce=fce,
        std_error=std_error,
        runs=tuple(runs),
    )


@contextlib.contextmanager
def run_map(jobs: int) -> Iterator:
    """Yield the ``map`` that runs go through: the builtin for ``jobs <= 1``,
    else the ``map`` of one pool of ``jobs`` workers, open for the block."""
    if jobs <= 1:
        yield map
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield pool.map


def execute_runs(
    cfg: ConfigurationVector | str,
    problem,
    budget: int | None,
    seeds,
    target: float | None = None,
    map_fn=map,
) -> list[RunRecord]:
    """One seeded run per seed through ``map_fn``, in seed order.

    ``budget=None`` means :func:`benchmarks.default_budget`. A run
    depends only on its arguments, so the map never changes a record.
    """
    if budget is None:
        budget = default_budget(problem.dimension)
    return list(map_fn(partial(run, cfg, problem, budget, target=target), seeds))


def run_batch(
    cfg: ConfigurationVector | str,
    problem,
    n: int = 32,
    budget: int | None = None,
    seed: int = 0,
    target: float | None = None,
    jobs: int = 1,
) -> FitnessSummary:
    """n independent seeded runs (seeds ``seed + i``), aggregated.

    With ``jobs > 1`` the runs execute in a process pool; the summary is
    reduced in run-index order, so parallelism never changes the result.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    seeds = range(seed, seed + n)
    with run_map(min(jobs, n)) as map_fn:
        records = execute_runs(cfg, problem, budget, seeds, target, map_fn)
    return summarize(records)


def compare_fitness(
    ert_a: float | None, fce_a: float, ert_b: float | None, fce_b: float
) -> tuple[str, str]:
    """ERT-first ordering on two (ERT, FCE) pairs -> (winner, basis)."""
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


def _relative_distance(
    a: FitnessSummary, b: FitnessSummary, winner: str, basis: str, target: float
) -> float:
    """Relative distance of the two summaries on the comparison basis.

    With both values on the same scale, d = (worse - better) / better.
    When only one side has an ERT, the distance is taken between the
    loser's FCE and the target value, on the target's scale; it is 0
    when that FCE is at or below ``target``, as it can be when the
    loser's runs aimed at a lower target.
    """
    if winner == "tie":
        return 0.0
    if basis == "ert":
        if a.ert is None or b.ert is None:
            loser_fce = b.fce if winner == "A" else a.fce
            return max(loser_fce - target, 0.0) / target
        lo, hi = sorted((a.ert, b.ert))
    else:
        lo, hi = sorted((a.fce, b.fce))
    if lo <= 0.0:
        return math.inf
    return (hi - lo) / lo


def compare(
    a: FitnessSummary, b: FitnessSummary, target: float = 1e-8
) -> ComparisonResult:
    """ERT-first comparison of two summaries over the same problem."""
    winner, basis = compare_fitness(a.ert, a.fce, b.ert, b.fce)
    d = _relative_distance(a, b, winner, basis, target)
    better = a if winner != "B" else b
    n = min(a.n, b.n)
    if winner == "tie":
        uncertainty = 1.0
    elif (n < 2 or not 0.0 < better.fce < math.inf
          or better.std_error <= 0.0 or not math.isfinite(d)):
        uncertainty = 0.0
    else:
        uncertainty = welch_uncertainty(d, better.std_error / better.fce, n)
    return ComparisonResult(winner=winner, basis=basis, d=d, uncertainty=uncertainty)


@cache
def _betainc():
    """scipy's ``betainc``, imported on first use: ``scipy.special`` is a
    costly import, and an import statement per comparison costs 1 µs."""
    from scipy.special import betainc

    return betainc


def welch_uncertainty(d: float, s_rel: float, n: int) -> float:
    """P(A and B indistinguishable) for relative distance d at n runs.

    Models the better strategy at mean 1 with relative standard error
    ``s_rel`` and the worse at 1 + d with proportional spread, then
    returns the two-sided Welch tail probability 2*(1 - cdf_t(d/s_e))
    with 2n - 2 degrees of freedom. Equal means give exactly 1.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if d < 0:
        raise ValueError("relative distance must be >= 0")
    if s_rel <= 0:
        raise ValueError("relative standard error must be > 0")
    s_a = s_rel
    s_b = (1.0 + d) * s_rel
    s_e = math.sqrt((s_a * s_a + s_b * s_b) / n)
    t = d / s_e
    df = 2 * n - 2
    # Two-sided tail of the t-distribution via the regularized
    # incomplete beta: 2*(1 - cdf(t)) = I_{df/(df+t^2)}(df/2, 1/2).
    return float(_betainc()(df / 2.0, 0.5, df / (df + t * t)))


def subsample_uncertainty(
    pools: dict[str, np.ndarray],
    folds: int = 100,
    n_grid: list[int] | None = None,
    percentiles: list[float] | None = None,
    seed: int = 0,
) -> dict:
    """Simulate comparison uncertainty at reduced run counts.

    ``pools`` maps strategy labels to their full per-run best-error
    samples. Pairwise relative distances over the full pools give an
    empirical distance distribution, read off at 5% percentile steps.
    For each n, ``folds`` subsamples are drawn without replacement per
    strategy; the relative standard error is averaged over folds and
    strategies and fed to :func:`welch_uncertainty` per percentile.

    Returns a dict with ``percentiles`` (P,), ``n_grid`` (N,),
    ``distances`` (P,) and ``uncertainty`` (P, N) arrays.
    """
    if len(pools) < 2:
        raise ValueError("need at least two strategy pools")
    sizes = {k: len(v) for k, v in pools.items()}
    if n_grid is None:
        n_grid = [2, 4, 8, 16, 32, 64, 128, 256]
    n_max = max(n_grid)
    for label, size in sizes.items():
        if size < n_max:
            raise ValueError(
                f"pool {label!r} has {size} runs, need >= {n_max}"
            )
    if percentiles is None:
        percentiles = [5.0 * k for k in range(1, 21)]

    labels = sorted(pools)
    means = {k: float(np.mean(pools[k])) for k in labels}
    dists = []
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            lo, hi = sorted((means[a], means[b]))
            if lo > 0:
                dists.append((hi - lo) / lo)
    if not dists:
        raise ValueError("no usable pairwise distances")
    dist_at_pct = np.percentile(np.array(dists), percentiles)

    rng = np.random.default_rng(seed)
    uncertainty = np.empty((len(percentiles), len(n_grid)))
    for j, n in enumerate(n_grid):
        rel_errors = []
        for label in labels:
            pool = np.asarray(pools[label], dtype=float)
            for _ in range(folds):
                sub = rng.choice(pool, size=n, replace=False)
                mean = float(np.mean(sub))
                std = float(np.sqrt(np.mean((sub - mean) ** 2)))
                if mean > 0 and std > 0:
                    rel_errors.append(std / mean)
        s_rel = float(np.mean(rel_errors)) if rel_errors else 0.0
        for i, d in enumerate(dist_at_pct):
            if s_rel <= 0:
                uncertainty[i, j] = 1.0 if d == 0 else 0.0
            else:
                uncertainty[i, j] = welch_uncertainty(float(d), s_rel, n)
    return {
        "percentiles": np.array(percentiles),
        "n_grid": np.array(n_grid),
        "distances": dist_at_pct,
        "uncertainty": uncertainty,
    }


def _last_line_end(fh, end: int) -> int:
    """Offset just past the last newline before ``end`` (0 if none): the
    end of the last complete line of a binary file."""
    while end > 0:
        start = max(end - 4096, 0)
        fh.seek(start)
        nl = fh.read(end - start).rfind(b"\n")
        if nl >= 0:
            return start + nl + 1
        end = start
    return 0


class ResultsCache:
    """Append-only tab-separated store of individual run results.

    One line per run: config, function_id, dimension, seed,
    evaluations_used, best_error, hit_index (``NA`` when the target was
    never reached). A line counts only once its newline is written, so
    a torn tail left by an interrupted write is never read back, and
    ``append`` cuts it off before writing; any other line that is not
    a record raises :class:`MalformedInputError`. There must be only one
    writer at a time. The class holds the storage format only; the commands
    read runs back through ``cli.CachedEvaluator``'s index.
    """

    def __init__(self, path: str):
        self.path = path

    def append(self, records: list[RunRecord]) -> None:
        with open(self.path, "a+b") as fh:
            fh.truncate(_last_line_end(fh, fh.seek(0, os.SEEK_END)))
            fh.write("".join(map(self.format_record, records)).encode())

    @staticmethod
    def format_record(r: RunRecord) -> str:
        hit = "NA" if r.hit_index is None else str(r.hit_index)
        return (
            f"{r.config}\t{r.function_id}\t{r.dimension}\t{r.seed}\t"
            f"{r.evaluations_used}\t{format_float(r.best_error)}\t{hit}\n"
        )

    def records(self) -> list[RunRecord]:
        if not os.path.exists(self.path):
            return []
        out = []
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith("\n"):
                    continue  # a torn tail: the write never finished
                try:
                    cfg, fid, dim, seed, used, err, hit = line[:-1].split("\t")
                    out.append(
                        RunRecord(
                            config=cfg,
                            function_id=fid,
                            dimension=int(dim),
                            seed=int(seed),
                            evaluations_used=int(used),
                            best_error=float(err),
                            hit_index=None if hit == "NA" else int(hit),
                        )
                    )
                except ValueError:
                    raise MalformedInputError(
                        f"{self.path}:{lineno}: need config, function_id, "
                        "dimension, seed, evaluations_used, best_error and "
                        f"hit_index, tab-separated, got {line.rstrip()!r}"
                    ) from None
        return out
