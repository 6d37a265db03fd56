"""Fixed-target performance measurement and strategy comparison.

A strategy's quality on a problem is summarized from n independent runs
as the pair (ERT, FCE): estimated running time when at least one run
reaches the target, and the mean best error at budget exhaustion
otherwise. Comparisons are ERT-first, by one sort key,
:func:`fitness_key`; the probability that two strategies are actually
indistinguishable is estimated with a Welch t-statistic on relative
distances. :class:`CachedEvaluator` is the one executor of seeded runs,
serial or pooled, and the one reader of the append-only
:class:`ResultsCache`; :func:`run_batch` is one uncached evaluator call.
"""

from __future__ import annotations

import math
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .benchmarks import DEFAULT_TARGET, default_budget
from .configuration import ConfigurationVector, encode
from .core import ENGINE_VERSION, RunRecord, run

__all__ = [
    "RunRecord",
    "FitnessSummary",
    "ComparisonResult",
    "run_batch",
    "compute_ert",
    "summarize",
    "compare",
    "fitness_key",
    "welch_uncertainty",
    "subsample_uncertainty",
    "ResultsCache",
    "CachedEvaluator",
    "CACHE_HEADER",
    "MalformedInputError",
    "format_float",
]


def format_float(x: float | None) -> str:
    """The TSV form of a value: ``NA`` for ``None``, else the shortest
    round-trip decimal form, stable across reruns."""
    return "NA" if x is None else repr(float(x))


class MalformedInputError(ValueError):
    """A malformed cache, trace or winners file; the message starts with
    ``<file>:``, then ``<line>:`` when one line is at fault."""


def fitness_key(ert: float | None, fce: float) -> tuple[int, float]:
    """The ERT-first order as a sort key: ``(0, ert)`` when some run hit
    the target, else ``(1, fce)``. The lower key wins and equal keys
    tie; a NaN compares false both ways under tuple ``<``, as under
    ``<`` on the values."""
    return (1, fce) if ert is None else (0, ert)


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

    @cached_property
    def key(self) -> tuple[int, float]:
        """:func:`fitness_key` of this summary, built on first use."""
        return fitness_key(self.ert, self.fce)


@dataclass(frozen=True)
class ComparisonResult:
    winner: str  # "A", "B" or "tie"
    basis: str  # "fce" when neither side has an ERT, else "ert"
    d: float
    uncertainty: float


def compute_ert(runs: list[RunRecord]) -> float | None:
    """Evaluations spent until success over all runs, per success.

    A successful run counts up to its ``hit_index``, so the rest of the
    block that reached the target is not charged to the ERT; a failed
    run counts everything it consumed. Returns ``None`` when no run
    reached the target.
    """
    successes = sum(1 for r in runs if r.hit_index is not None)
    if successes == 0:
        return None
    total = sum(
        r.evaluations_used if r.hit_index is None else r.hit_index for r in runs
    )
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


def _run_seeds(problem, budget, task) -> list[RunRecord]:
    """The records of ``task``, a structure and some of its seeds: one
    :func:`~modcmaes.core.run` per seed, in seed order."""
    cfg, seeds = task
    return [run(cfg, problem, budget, seed) for seed in seeds]


class _ReadAhead:
    """``map(fn, tasks)`` over a pool of ``jobs`` workers, for an ``fn``
    that maps a (structure, seeds) task to one result per seed.

    Each task goes to the pool as contiguous chunks of about
    ``len(seeds) / (2 * jobs)`` seeds, one pool task per chunk; the last
    task, with none behind it to keep the workers busy, goes one seed
    per chunk, so no worker waits on a long chunk at its tail. Tasks are
    read lazily, one ahead, and at most ``4 * jobs`` chunks, or the
    first task's chunks if more, are in flight, so the workers keep busy
    between calls while memory stays bounded. Results come back in task
    order, a task's chunks concatenated. As with the builtin ``map``, a
    task whose ``fn`` raised raises from its ``next`` and the iteration
    goes on with the next task.
    """

    def __init__(self, pool, jobs: int, fn, tasks):
        self._submit = partial(pool.submit, fn)
        self._width = 2 * jobs
        self._depth = 4 * jobs
        self._chunks = self._split(iter(tasks))
        self._sizes: list[int] = []  # the chunk count of each task read
        self._pending: list = []  # the futures of the chunks, in order

    def _split(self, tasks):
        task = next(tasks, None)
        while task is not None:
            (cfg, seeds), task = task, next(tasks, None)
            step = 1 if task is None else -(-len(seeds) // self._width)
            starts = range(0, len(seeds), step)
            self._sizes.append(len(starts))
            for i in starts:
                yield cfg, seeds[i:i + step]

    def __iter__(self):
        return self

    def __next__(self) -> list:
        while len(self._pending) < max(
                self._depth, self._sizes[0] if self._sizes else 0):
            chunk = next(self._chunks, None)
            if chunk is None:
                break
            self._pending.append(self._submit(chunk))
        if not self._pending:
            raise StopIteration
        n = self._sizes.pop(0)
        head, self._pending = self._pending[:n], self._pending[n:]
        return [r for future in head for r in future.result()]


def run_batch(
    cfg: ConfigurationVector | str,
    problem,
    n: int = 32,
    budget: int | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> FitnessSummary:
    """n independent seeded runs (seeds ``seed + i``), aggregated: one
    call of an uncached :class:`CachedEvaluator`.

    With ``jobs > 1`` the runs execute in a process pool; the summary is
    reduced in run-index order, so parallelism never changes the result.
    """
    with CachedEvaluator(problem, None, n, budget, seed, min(jobs, n)) as ev:
        return ev(cfg)


def _relative_distance(
    a: FitnessSummary, b: FitnessSummary, winner: str, basis: str
) -> float:
    """Relative distance of the two summaries on the comparison basis.

    With both values on the same scale, d = (worse - better) / better.
    When only one side has an ERT, the distance is taken between the
    loser's FCE and :data:`~modcmaes.benchmarks.DEFAULT_TARGET`, on the
    target's scale; it is 0 when that FCE is at or below the target, as
    it can be for a problem whose own target is lower.
    """
    if winner == "tie":
        return 0.0
    if basis == "ert":
        if a.ert is None or b.ert is None:
            loser_fce = b.fce if winner == "A" else a.fce
            return max(loser_fce - DEFAULT_TARGET, 0.0) / DEFAULT_TARGET
        lo, hi = sorted((a.ert, b.ert))
    else:
        lo, hi = sorted((a.fce, b.fce))
    if lo <= 0.0:
        return math.inf
    return (hi - lo) / lo


def compare(a: FitnessSummary, b: FitnessSummary) -> ComparisonResult:
    """ERT-first comparison of two summaries over the same problem: the
    lower :attr:`FitnessSummary.key` wins."""
    winner = "A" if a.key < b.key else "B" if b.key < a.key else "tie"
    basis = "fce" if a.key[0] and b.key[0] else "ert"
    d = _relative_distance(a, b, winner, basis)
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


def welch_uncertainty(d: float, s_rel: float, n: int) -> float:
    """P(A and B indistinguishable) for relative distance d at n runs.

    Models the better strategy at mean 1 with relative standard error
    ``s_rel`` and the worse at 1 + d with proportional spread, then
    returns the two-sided Welch tail probability 2*(1 - cdf_t(d/s_e))
    with 2n - 2 degrees of freedom. Equal means give exactly 1.
    """
    from scipy.special import betainc  # costly import; comparisons only

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
    return float(betainc(df / 2.0, 0.5, df / (df + t * t)))


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


_HEADER_TAG = "#modcmaes results cache\t"
CACHE_HEADER = f"{_HEADER_TAG}engine_version={ENGINE_VERSION}\n"


class ResultsCache:
    """Append-only tab-separated store of individual run results.

    The first line is the header :data:`CACHE_HEADER`, which holds the
    :data:`~modcmaes.core.ENGINE_VERSION` that wrote the records; the
    first append to a new file writes it. Reading or appending a file
    with no header or with another engine version raises
    :class:`MalformedInputError` naming ``<file>:1:`` and both versions;
    there is no migration, and reading never writes.

    Then one line per run: config, function_id, dimension, seed,
    evaluations_used, best_error, hit_index (``NA`` when the target was
    never reached). A line counts only once its newline is written, so
    a torn tail left by an interrupted write is never read back, and
    ``append`` cuts it off before writing; any other line that is not
    a record raises :class:`MalformedInputError`. There must be only one
    writer at a time. The class holds the storage format only; the commands
    read runs back through :class:`CachedEvaluator`'s index.
    """

    def __init__(self, path: str):
        self.path = path

    def _check_header(self, line: str) -> None:
        if line == CACHE_HEADER:
            return
        found = "1 (no header)"
        if line.startswith(_HEADER_TAG):
            m = re.search(r"engine_version=(\S+)", line)
            found = m.group(1) if m else "unknown"
        raise MalformedInputError(
            f"{self.path}:1: results cache of engine version {found}; this "
            f"engine is version {ENGINE_VERSION} and reads no other, so use "
            "a new cache file"
        )

    def append(self, records: list[RunRecord]) -> None:
        text = "".join(map(self.format_record, records))
        with open(self.path, "a+b") as fh:
            end = _last_line_end(fh, fh.seek(0, os.SEEK_END))
            if end:
                fh.seek(0)
                self._check_header(fh.readline().decode("utf-8", "replace"))
            else:
                text = CACHE_HEADER + text
            fh.truncate(end)
            fh.write(text.encode())

    @staticmethod
    def format_record(r: RunRecord) -> str:
        hit = "NA" if r.hit_index is None else str(r.hit_index)
        return (
            f"{r.config}\t{r.function_id}\t{r.dimension}\t{r.seed}\t"
            f"{r.evaluations_used}\t{format_float(r.best_error)}\t{hit}\n"
        )

    def records(self) -> list[RunRecord]:
        """The records in file order: none when the file is absent from
        an existing directory; an absent directory raises, as open does."""
        out = []
        try:
            fh = open(self.path, encoding="utf-8")
        except FileNotFoundError:
            if os.path.isdir(os.path.dirname(self.path) or "."):
                return out
            raise
        with fh:
            header = fh.readline()
            if not header.endswith("\n"):
                return out  # empty, or the first write never finished
            self._check_header(header)
            for lineno, line in enumerate(fh, start=2):
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


class CachedEvaluator:
    """The one executor of seeded runs: a fitness evaluator backed by
    the append-only results cache (none for ``cache=None``), and the
    cache's only reader: it indexes the runs of its own (function,
    dimension) once. :meth:`cached` returns a structure's summary when
    all n seeded runs are there and never executes a run. A call takes
    the missing runs of its structure from a stream (the builtin ``map``,
    or for ``jobs > 1`` a :class:`_ReadAhead` over one pool, built after
    the cache is read and closed when the ``with`` block ends), waits
    for them and appends them in seed order. :meth:`plan` queues the
    structures the caller asks for next, so that a pool runs ahead of
    the calls; a call for a structure that is not next in the plan
    drops the plan and streams that structure alone. A call whose run
    raised appends nothing, and the next call goes on with the stream.
    Each structure is summarized once, into one immutable summary. A
    record written at another target raises :class:`MalformedInputError`.
    ``budget=None`` is resolved once, to :func:`benchmarks.default_budget`:
    :attr:`budget` is the int that every run of the evaluator gets.
    """

    def __init__(
        self,
        problem,
        cache: ResultsCache | None,
        n_runs: int = 32,
        budget: int | None = None,
        base_seed: int = 0,
        jobs: int = 1,
    ):
        if n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        if budget is not None and budget < 1:
            raise ValueError("budget must be >= 1")
        self.problem = problem
        self.cache = cache
        self.n_runs = n_runs
        self.budget = (default_budget(problem.dimension) if budget is None
                       else budget)
        self.base_seed = base_seed
        self.jobs = jobs
        self.runs_executed = 0
        self.seeds = [base_seed + i for i in range(n_runs)]
        # Keyed by the argument as given and by its string, so a vector
        # and its string share one summary.
        self._summaries: dict[ConfigurationVector | str, FitnessSummary] = {}
        self._mem: dict[str, dict[int, RunRecord]] = {}
        # The planned structures, the number of them taken by calls, and
        # the stream of their records.
        self._plan: list[str] = []
        self._taken = 0
        self._stream = iter(())
        target = problem.target_precision
        for r in cache.records() if cache is not None else ():
            if (r.function_id == problem.function_id
                    and r.dimension == problem.dimension):
                if (r.hit_index is None) == (r.best_error <= target):
                    hit = "NA" if r.hit_index is None else r.hit_index
                    raise MalformedInputError(
                        f"{cache.path}: {r.config} seed {r.seed} has best_error "
                        f"{r.best_error!r} and hit_index {hit}, so it was "
                        f"written at a target other than {target!r}")
                self._mem.setdefault(r.config, {})[r.seed] = r
        self._pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None

    def __enter__(self) -> CachedEvaluator:
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)

    def missing_seeds(self, cfg_str: str) -> list[int]:
        have = self._mem.get(cfg_str, {})
        return [s for s in self.seeds if s not in have]

    def cached(self, cfg_str: str) -> FitnessSummary | None:
        """The summary of ``cfg_str`` when all n seeds are cached, else
        ``None``; never executes a run."""
        summary = self._summaries.get(cfg_str)
        if summary is None and not self.missing_seeds(cfg_str):
            have = self._mem[cfg_str]
            summary = summarize([have[s] for s in self.seeds])
            self._summaries[cfg_str] = summary
        return summary

    def plan(self, cfg_strs) -> list[str]:
        """Queue the structures the caller will ask for next, in this
        order, in place of any earlier plan, and return the queue: those
        with missing runs, each once, so its seeds are still missing
        when the stream reads it. The stream reads them as it needs
        them; without a pool it runs nothing before the call that asks
        for it."""
        self._plan = list(dict.fromkeys(
            c for c in cfg_strs if self.missing_seeds(c)))
        self._taken = 0
        run_seeds = partial(_run_seeds, self.problem, self.budget)
        tasks = ((c, self.missing_seeds(c)) for c in self._plan)
        self._stream = (map(run_seeds, tasks) if self._pool is None
                        else _ReadAhead(self._pool, self.jobs, run_seeds, tasks))
        return self._plan

    def __call__(self, cfg: ConfigurationVector | str) -> FitnessSummary:
        summary = self._summaries.get(cfg)
        if summary is not None:
            return summary
        cfg_str = cfg if isinstance(cfg, str) else encode(cfg)
        summary = self.cached(cfg_str)
        if summary is None:
            if self._plan[self._taken:self._taken + 1] != [cfg_str]:
                self.plan([cfg_str])
            self._taken += 1
            new = next(self._stream)
            self.runs_executed += len(new)
            if self.cache is not None:
                self.cache.append(new)
            self._mem.setdefault(cfg_str, {}).update((r.seed, r) for r in new)
            summary = self.cached(cfg_str)
        self._summaries[cfg] = summary
        return summary
