"""Command-line orchestration of experiments and reports.

Subcommands: ``run`` (one configuration, n seeded runs), ``bruteforce``
(sweep a configuration space), ``ga`` (repeated structure search),
``suite`` (benchmark manifest), and the pure-report commands
``report-rank``, ``report-activation``, ``report-convergence``. All
outputs are UTF-8 tab-separated text with ``NA`` for missing values.
Runs are cached per (config, function, dimension, seed); every command,
``report-rank`` included, reads the cache once through one
:class:`CachedEvaluator`, so nothing is recomputed and reports never
execute a run.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Iterator, Sequence

import numpy as np

from . import benchmarks
from .configuration import (
    CATALOG,
    ConfigError,
    ConfigurationVector,
    decode,
    encode,
    enumerate_all,
)
from .core import RunRecord
from .evaluation import (
    FitnessSummary,
    MalformedInputError,
    ResultsCache,
    compare_fitness,
    execute_runs,
    format_float,
    run_map,
    summarize,
)
from .metaga import GARunTrace, TraceEntry, ga_run

__all__ = [
    "CachedEvaluator",
    "cmd_run",
    "cmd_bruteforce",
    "cmd_ga",
    "rank_aggregate",
    "rank_table",
    "report_rank",
    "report_activation",
    "report_convergence",
    "main",
    "RANK_BUCKETS",
]

RANK_BUCKETS = (
    ("1", 1),
    ("2", 2),
    ("3", 3),
    ("4-5", 5),
    ("6-9", 9),
    ("10-17", 17),
    ("18+", None),
)


class CachedEvaluator:
    """Fitness evaluator backed by the append-only results cache, and
    the cache's only reader: it indexes the runs of its own (function,
    dimension) once. :meth:`cached` returns a structure's summary when
    all n seeded runs are there and never executes a run; a call first
    executes the missing runs through ``map_fn`` (the builtin ``map``,
    or a pool's from :func:`run_map`) and appends them in seed order.
    Each structure is summarized once, into one immutable summary.
    """

    def __init__(
        self,
        problem,
        cache: ResultsCache,
        n_runs: int = 32,
        budget: int | None = None,
        base_seed: int = 0,
        target: float | None = None,
        map_fn=map,
    ):
        self.problem = problem
        self.cache = cache
        self.n_runs = n_runs
        self.budget = budget
        self.base_seed = base_seed
        self.target = target
        self.map_fn = map_fn
        self.runs_executed = 0
        self.seeds = [base_seed + i for i in range(n_runs)]
        # Keyed by the argument as given and by its string, so a vector
        # and its string share one summary.
        self._summaries: dict[ConfigurationVector | str, FitnessSummary] = {}
        self._mem: dict[str, dict[int, RunRecord]] = {}
        for r in cache.records():
            if (r.function_id == problem.function_id
                    and r.dimension == problem.dimension):
                self._mem.setdefault(r.config, {})[r.seed] = r

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

    def __call__(self, cfg: ConfigurationVector | str) -> FitnessSummary:
        summary = self._summaries.get(cfg)
        if summary is not None:
            return summary
        cfg_str = cfg if isinstance(cfg, str) else encode(cfg)
        summary = self.cached(cfg_str)
        if summary is None:
            new = execute_runs(
                cfg_str, self.problem, self.budget,
                self.missing_seeds(cfg_str), self.target, self.map_fn,
            )
            self.runs_executed += len(new)
            self.cache.append(new)
            self._mem.setdefault(cfg_str, {}).update((r.seed, r) for r in new)
            summary = self.cached(cfg_str)
        self._summaries[cfg] = summary
        return summary


@contextlib.contextmanager
def _open_evaluator(args) -> Iterator[CachedEvaluator]:
    """The command's evaluator, with one run pool of ``--jobs`` workers
    (capped at ``--runs``) held open for the whole block."""
    problem = benchmarks.make_problem(args.function, args.dim)
    with run_map(min(args.jobs, args.runs)) as map_fn:
        yield CachedEvaluator(
            problem, ResultsCache(args.cache), n_runs=args.runs,
            budget=args.budget, base_seed=args.seed, target=args.target,
            map_fn=map_fn,
        )


def _summary_line(s: FitnessSummary) -> str:
    return (
        f"{s.config}\t{s.function_id}\t{s.dimension}\t{s.n}\t"
        f"{format_float(s.ert)}\t{format_float(s.fce)}\t"
        f"{format_float(s.std_error)}"
    )


SUMMARY_HEADER = "config\tfunction_id\tdimension\tn\tert\tfce\tstd_error"


def cmd_run(args, out=None) -> int:
    out = out or sys.stdout
    with _open_evaluator(args) as evaluator:
        summary = evaluator(args.config)
    print(SUMMARY_HEADER, file=out)
    print(_summary_line(summary), file=out)
    return 0


def cmd_bruteforce(args, out=None) -> int:
    out = out or sys.stdout
    executed = swept = 0
    with _open_evaluator(args) as evaluator:
        for cfg in enumerate_all(args.free):
            cfg_str = encode(cfg)
            swept += 1
            if evaluator.missing_seeds(cfg_str):
                evaluator(cfg_str)
                executed += 1
    print(f"configs\t{swept}", file=out)
    print(f"executed\t{executed}", file=out)
    print(f"skipped\t{swept - executed}", file=out)
    return 0


def cmd_ga(args, out=None) -> int:
    out = out or sys.stdout
    os.makedirs(args.out, exist_ok=True)
    print(
        "run\tga_seed\tfunction_id\tdimension\tbest_config\tert\tfce",
        file=out,
    )
    with _open_evaluator(args) as evaluator:
        problem = evaluator.problem
        for i in range(args.ga_runs):
            ga_seed = args.seed + i
            trace = ga_run(
                evaluator,
                budget=args.ga_budget,
                lambda_=args.ga_lambda,
                seed=ga_seed,
                free=args.free,
            )
            if trace.failures:
                print(f"ga run {i}: {trace.failures} of {trace.evaluations} "
                      "structure evaluations failed; first: "
                      f"{trace.first_error}", file=sys.stderr)
            path = os.path.join(args.out, f"trace_{i:03d}.tsv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(trace.to_lines())
            last = trace.entries[-1]
            print(
                f"{i}\t{ga_seed}\t{problem.function_id}\t{problem.dimension}\t"
                f"{last.best_config}\t{format_float(last.ert)}\t"
                f"{format_float(last.fce)}",
                file=out,
            )
    return 0


def rank_aggregate(
    bf_fitness: Sequence[tuple[float | None, float]],
    ga_fitness: tuple[float | None, float],
) -> int:
    """1-based rank of the GA aggregate among brute-force fitnesses."""
    better = 0
    for ert, fce in bf_fitness:
        winner, _ = compare_fitness(ert, fce, ga_fitness[0], ga_fitness[1])
        if winner == "A":
            better += 1
    return better + 1


def rank_table(ranks: Sequence[int]) -> list[tuple[str, float]]:
    """Cumulative percentage of experiments reaching each rank bucket."""
    if not ranks:
        raise ValueError("no ranks to tabulate")
    rows = []
    total = len(ranks)
    for label, upper in RANK_BUCKETS:
        if upper is None:
            pct = 100.0
        else:
            pct = 100.0 * sum(1 for r in ranks if r <= upper) / total
        rows.append((label, pct))
    return rows


def _aggregate_fitness(
    items: Sequence[FitnessSummary | TraceEntry],
) -> tuple[float | None, float]:
    """Mean ERT over the items that have one (else ``None``), mean FCE."""
    erts = [s.ert for s in items if s.ert is not None]
    ert = float(np.mean(erts)) if erts else None
    fce = float(np.mean([s.fce for s in items]))
    return ert, fce


def _read_trace(path: str) -> GARunTrace:
    trace = GARunTrace()
    with open(path, encoding="utf-8") as fh:
        if not fh.readline().startswith("generation"):
            raise MalformedInputError(f"{path}:1: not a trace file header")
        for lineno, line in enumerate(fh, start=2):
            try:
                gen, cfg, ert, fce = line.rstrip("\n").split("\t")
                if not trace.entries or cfg != trace.best_config:
                    decode(cfg)  # the best-so-far mostly repeats
                entry = TraceEntry(
                    generation=int(gen),
                    best_config=cfg,
                    ert=None if ert == "NA" else float(ert),
                    fce=float(fce),
                )
            except ValueError:
                raise MalformedInputError(
                    f"{path}:{lineno}: need generation, a valid best_config, "
                    f"ert and fce, tab-separated, got {line.rstrip()!r}"
                ) from None
            trace.entries.append(entry)
    return trace


def _trace_paths(directory: str) -> list[str]:
    if not os.path.isdir(directory):
        return []
    names = sorted(
        n for n in os.listdir(directory) if n.startswith("trace_")
    )
    return [os.path.join(directory, n) for n in names]


def _incomplete(summaries: Sequence[FitnessSummary | None], what: str) -> bool:
    """Whether a summary is missing; if so, say how many on stderr."""
    missing = sum(s is None for s in summaries)
    if missing:
        print(f"cache incomplete: {missing} {what} missing runs", file=sys.stderr)
    return missing > 0


def report_rank(args, out=None) -> int:
    out = out or sys.stdout
    with _open_evaluator(args) as evaluator:
        bf = [evaluator.cached(encode(cfg)) for cfg in enumerate_all(args.free)]
        if _incomplete(bf, "configurations"):
            return 3
        traces = [_read_trace(p) for p in _trace_paths(args.traces)]
        if not traces:
            print("no trace files found", file=sys.stderr)
            return 3
        ga_summaries = [evaluator.cached(t.best_config) for t in traces]
    if _incomplete(ga_summaries, "GA best structures"):
        return 3
    ga_fit = _aggregate_fitness(ga_summaries)
    rank = rank_aggregate([(s.ert, s.fce) for s in bf], ga_fit)

    print(f"ga_aggregate_ert\t{format_float(ga_fit[0])}", file=out)
    print(f"ga_aggregate_fce\t{format_float(ga_fit[1])}", file=out)
    print(f"rank\t{rank}", file=out)
    print("bucket\tcumulative_pct", file=out)
    for label, pct in rank_table([rank]):
        print(f"{label}\t{pct:.2f}", file=out)
    return 0


def report_activation(
    winners: Sequence[tuple[ConfigurationVector, str]],
) -> dict[str, list[str]]:
    """Activation percentages of each module per group label.

    ``winners`` pairs a configuration with its group label. Binary
    modules report the share of non-default activations; the two
    ternary modules report both alternatives as "a/b" percentages.
    """
    if not winners:
        raise ValueError("no winning configurations given")
    groups = sorted({label for _, label in winners})
    table: dict[str, list[str]] = {}
    for m, entry in enumerate(CATALOG.entries):
        row = []
        for g in groups:
            genes = [cfg.genes[m] for cfg, label in winners if label == g]
            n = len(genes)
            if entry.option_count == 2:
                pct = 100.0 * sum(1 for v in genes if v == 1) / n
                row.append(f"{pct:.1f}")
            else:
                p1 = 100.0 * sum(1 for v in genes if v == 1) / n
                p2 = 100.0 * sum(1 for v in genes if v == 2) / n
                row.append(f"{p1:.1f}/{p2:.1f}")
        table[entry.name] = row
    table["__groups__"] = groups
    return table


def cmd_report_activation(args, out=None) -> int:
    out = out or sys.stdout
    winners: list[tuple[ConfigurationVector, str]] = []
    with open(args.winners, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        try:
            c_cfg = header.index("best_config")
            c_fid = header.index("function_id")
            c_dim = header.index("dimension")
        except ValueError:
            raise MalformedInputError(
                f"{args.winners}:1: winners file needs best_config, "
                "function_id and dimension columns"
            ) from None
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split("\t")
            where = f"{args.winners}:{lineno}"
            if len(parts) < len(header):
                raise MalformedInputError(
                    f"{where}: {len(parts)} of {len(header)} fields")
            try:
                cfg = decode(parts[c_cfg])
                if args.group_by == "dimension":
                    label = parts[c_dim]
                else:
                    label = benchmarks.subgroup_of(parts[c_fid])
            except (ConfigError, KeyError) as exc:
                raise MalformedInputError(
                    f"{where}: bad config or function: {exc}") from None
            winners.append((cfg, label))
    try:
        table = report_activation(winners)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    groups = table.pop("__groups__")
    print("module\t" + "\t".join(groups), file=out)
    for name, row in table.items():
        print(name + "\t" + "\t".join(row), file=out)
    return 0


def report_convergence(
    traces: Sequence[GARunTrace],
) -> list[tuple[int, float | None, float]]:
    """Mean best-so-far ERT (where defined) and FCE per generation."""
    if not traces:
        raise ValueError("need at least one trace")
    generations = len(traces[0].entries)
    rows = []
    for g in range(generations):
        entries = [t.entries[g] for t in traces if g < len(t.entries)]
        rows.append((g + 1, *_aggregate_fitness(entries)))
    return rows


def cmd_report_convergence(args, out=None) -> int:
    out = out or sys.stdout
    traces = [_read_trace(p) for p in _trace_paths(args.traces)]
    if not traces:
        print("no trace files found", file=sys.stderr)
        return 3
    print("generation\tmean_ert\tmean_fce", file=out)
    for gen, ert, fce in report_convergence(traces):
        print(f"{gen}\t{format_float(ert)}\t{format_float(fce)}", file=out)
    return 0


def cmd_suite(args, out=None) -> int:
    out = out or sys.stdout
    out.write(benchmarks.suite_manifest(benchmarks.make_suite()))
    return 0


def positive_int(text: str) -> int:
    """argparse type for counts and budgets: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def free_genes(text: str) -> set[int]:
    """argparse type for ``--free 1,2,3``: the 1-based gene positions
    become the set of 0-based free genes; every other gene is 0."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not all(tok.isdecimal() and 1 <= int(tok) <= 11 for tok in tokens):
        raise argparse.ArgumentTypeError(
            f"gene positions must be >= 1 and <= 11, got {text!r}"
        )
    return {int(tok) - 1 for tok in tokens}


def structure(text: str) -> ConfigurationVector:
    """argparse type for ``--config``: an 11-digit structure string."""
    try:
        return decode(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(
            f"invalid configuration string: {exc}") from None


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--function", required=True, choices=sorted(benchmarks.FUNCTIONS))
    p.add_argument("--dim", type=int, required=True, choices=benchmarks.DIMENSIONS)
    p.add_argument("--runs", type=positive_int, default=32)
    p.add_argument("--budget", type=positive_int, default=None,
                   help="evaluations per run (default 1000*dim)")
    p.add_argument("--target", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--cache", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modcmaes",
        description="Modular CMA-ES experiments: runs, sweeps, structure search, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one configuration n times")
    p.add_argument("--config", type=structure, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bruteforce", help="sweep a configuration space")
    _add_common(p)
    p.add_argument("--free", type=free_genes, default=None,
                   help="comma list of free 1-based gene positions; "
                        "every other gene is 0")
    p.set_defaults(func=cmd_bruteforce)

    p = sub.add_parser("ga", help="run the structure-search GA")
    _add_common(p)
    p.add_argument("--ga-runs", type=positive_int, default=30)
    p.add_argument("--ga-budget", type=positive_int, default=240)
    p.add_argument("--ga-lambda", type=positive_int, default=12)
    p.add_argument("--out", required=True, help="directory for trace files")
    p.add_argument("--free", type=free_genes, default=None)
    p.set_defaults(func=cmd_ga)

    p = sub.add_parser("report-rank", help="rank GA aggregate among brute force")
    _add_common(p)
    p.add_argument("--traces", required=True)
    p.add_argument("--free", type=free_genes, default=None)
    p.set_defaults(func=report_rank)

    p = sub.add_parser("report-activation", help="module activation table")
    p.add_argument("--winners", required=True)
    p.add_argument("--group-by", choices=("subgroup", "dimension"),
                   default="subgroup")
    p.set_defaults(func=cmd_report_activation)

    p = sub.add_parser("report-convergence", help="mean convergence series")
    p.add_argument("--traces", required=True)
    p.set_defaults(func=cmd_report_convergence)

    p = sub.add_parser("suite", help="emit the benchmark suite manifest")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MalformedInputError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
