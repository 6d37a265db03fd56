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
import os
import sys
from typing import Sequence

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
from .evaluation import (
    CachedEvaluator,
    FitnessSummary,
    MalformedInputError,
    ResultsCache,
    fitness_key,
    format_float,
)
from .metaga import GARunTrace, TraceEntry, ga_run

__all__ = [
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


def _open_evaluator(args) -> CachedEvaluator:
    """The command's evaluator, used as a ``with`` block that holds its
    one run pool of ``--jobs`` workers open."""
    return CachedEvaluator(
        benchmarks.make_problem(args.function, args.dim),
        ResultsCache(args.cache), n_runs=args.runs, budget=args.budget,
        base_seed=args.seed, jobs=args.jobs,
    )


def _summary_line(s: FitnessSummary) -> str:
    return (
        f"{s.config}\t{s.function_id}\t{s.dimension}\t{s.n}\t"
        f"{format_float(s.ert)}\t{format_float(s.fce)}\t"
        f"{format_float(s.std_error)}"
    )


SUMMARY_HEADER = "config\tfunction_id\tdimension\tn\tert\tfce\tstd_error"


def cmd_run(args) -> int:
    args.jobs = min(args.jobs, args.runs)  # a worker beyond --runs gets no seed
    with _open_evaluator(args) as evaluator:
        summary = evaluator(args.config)
    print(SUMMARY_HEADER)
    print(_summary_line(summary))
    return 0


def cmd_bruteforce(args) -> int:
    with _open_evaluator(args) as evaluator:
        swept = [encode(cfg) for cfg in enumerate_all(args.free)]
        todo = evaluator.plan(swept)
        for cfg_str in todo:
            evaluator(cfg_str)
    print(f"configs\t{len(swept)}")
    print(f"executed\t{len(todo)}")
    print(f"skipped\t{len(swept) - len(todo)}")
    return 0


def cmd_ga(args) -> int:
    texts = {}  # trace file name -> text, written once the search ends
    with _open_evaluator(args) as evaluator:  # reads and checks the cache
        os.makedirs(args.out, exist_ok=True)  # an unusable --out ends it here
        print("run\tga_seed\tfunction_id\tdimension\tbest_config\tert\tfce")
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
            texts[f"trace_{i:03d}.tsv"] = trace.to_lines()
            last = trace.entries[-1]
            print(
                f"{i}\t{ga_seed}\t{problem.function_id}\t{problem.dimension}\t"
                f"{last.best_config}\t{format_float(last.ert)}\t"
                f"{format_float(last.fce)}"
            )
    for name in os.listdir(args.out):  # an earlier, longer command's traces
        if name.startswith("trace_") and name not in texts:
            os.remove(os.path.join(args.out, name))
    for name, text in texts.items():
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def rank_aggregate(
    bf_fitness: Sequence[tuple[float | None, float]],
    ga_fitness: tuple[float | None, float],
) -> int:
    """1-based rank of the GA aggregate among brute-force fitnesses: 1
    plus the number of them that beat it ERT-first."""
    ga_key = fitness_key(*ga_fitness)
    return 1 + sum(fitness_key(ert, fce) < ga_key for ert, fce in bf_fitness)


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
    if not trace.entries:
        raise MalformedInputError(f"{path}:2: no generation line")
    return trace


def _load_traces(directory: str) -> list[GARunTrace]:
    """The ``trace_*`` files of ``directory`` in name order; when there
    are none, say so on stderr (the caller exits 3)."""
    names = os.listdir(directory) if os.path.isdir(directory) else []
    traces = [_read_trace(os.path.join(directory, n))
              for n in sorted(names) if n.startswith("trace_")]
    if not traces:
        print("no trace files found", file=sys.stderr)
    return traces


def _incomplete(summaries: Sequence[FitnessSummary | None], what: str) -> bool:
    """Whether a summary is missing; if so, say how many on stderr."""
    missing = sum(s is None for s in summaries)
    if missing:
        print(f"cache incomplete: {missing} {what} missing runs", file=sys.stderr)
    return missing > 0


def report_rank(args) -> int:
    with _open_evaluator(args) as evaluator:
        bf = [evaluator.cached(encode(cfg)) for cfg in enumerate_all(args.free)]
        if _incomplete(bf, "configurations"):
            return 3
        traces = _load_traces(args.traces)
        if not traces:
            return 3
        ga_summaries = [evaluator.cached(t.best_config) for t in traces]
    if _incomplete(ga_summaries, "GA best structures"):
        return 3
    ga_fit = _aggregate_fitness(ga_summaries)
    rank = rank_aggregate([(s.ert, s.fce) for s in bf], ga_fit)

    print(f"ga_aggregate_ert\t{format_float(ga_fit[0])}")
    print(f"ga_aggregate_fce\t{format_float(ga_fit[1])}")
    print(f"rank\t{rank}")
    print("bucket\tcumulative_pct")
    for label, pct in rank_table([rank]):
        print(f"{label}\t{pct:.2f}")
    return 0


def report_activation(
    winners: Sequence[tuple[ConfigurationVector, str | int]],
) -> tuple[list[str | int], dict[str, list[str]]]:
    """The sorted group labels, and per module its activation
    percentages in each group.

    ``winners`` pairs a configuration with its group label, a subgroup
    name or a dimension, which sorts as a number. Binary modules report
    the share of non-default activations; the two ternary modules report
    both alternatives as "a/b" percentages.
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
    return groups, table


def cmd_report_activation(args) -> int:
    winners: list[tuple[ConfigurationVector, str | int]] = []
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
            if parts == header:
                continue  # the header of a next, concatenated output
            where = f"{args.winners}:{lineno}"
            if len(parts) < len(header):
                raise MalformedInputError(
                    f"{where}: {len(parts)} of {len(header)} fields")
            try:
                cfg = decode(parts[c_cfg])
                label = (int(parts[c_dim]) if args.group_by == "dimension"
                         else benchmarks.subgroup_of(parts[c_fid]))
            except (ValueError, KeyError) as exc:  # ConfigError is a ValueError
                raise MalformedInputError(
                    f"{where}: bad config, function or dimension: {exc}") from None
            winners.append((cfg, label))
    if not winners:
        raise MalformedInputError(f"{args.winners}:2: no winner line")
    groups, table = report_activation(winners)
    print("module\t" + "\t".join(map(str, groups)))
    for name, row in table.items():
        print(name + "\t" + "\t".join(row))
    return 0


def report_convergence(
    traces: Sequence[GARunTrace],
) -> list[tuple[int, float | None, float]]:
    """Mean best-so-far ERT (where defined) and FCE per generation, up
    to the longest trace, each over the traces that reach it."""
    if not traces:
        raise ValueError("need at least one trace")
    generations = max(len(t.entries) for t in traces)
    rows = []
    for g in range(generations):
        entries = [t.entries[g] for t in traces if g < len(t.entries)]
        rows.append((g + 1, *_aggregate_fitness(entries)))
    return rows


def cmd_report_convergence(args) -> int:
    traces = _load_traces(args.traces)
    if not traces:
        return 3
    print("generation\tmean_ert\tmean_fce")
    for gen, ert, fce in report_convergence(traces):
        print(f"{gen}\t{format_float(ert)}\t{format_float(fce)}")
    return 0


def cmd_suite(args) -> int:
    sys.stdout.write(benchmarks.suite_manifest(benchmarks.make_suite()))
    return 0


def positive_int(text: str) -> int:
    """argparse type for counts and budgets: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """argparse type for seeds: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def free_genes(text: str) -> set[int]:
    """argparse type for ``--free 1,2,3``: the 1-based gene positions
    become the set of 0-based free genes; every other gene is 0. At
    least one position is required."""
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not tokens or not all(
            tok.isdecimal() and 1 <= int(tok) <= 11 for tok in tokens):
        raise argparse.ArgumentTypeError(
            f"one or more gene positions, each must be >= 1 and <= 11, "
            f"got {text!r}"
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
    p.add_argument("--seed", type=non_negative_int, default=0)
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
    p.add_argument("--jobs", type=positive_int, default=1)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bruteforce", help="sweep a configuration space")
    _add_common(p)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--free", type=free_genes, default=None,
                   help="comma list of free 1-based gene positions; "
                        "every other gene is 0")
    p.set_defaults(func=cmd_bruteforce)

    p = sub.add_parser("ga", help="run the structure-search GA")
    _add_common(p)
    p.add_argument("--jobs", type=positive_int, default=1)
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
    p.set_defaults(func=report_rank, jobs=1)  # it never runs an ES run

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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "ga" and args.ga_budget < args.ga_lambda:
        parser.error(f"--ga-budget must be >= --ga-lambda, got "
                     f"{args.ga_budget} < {args.ga_lambda}")
    try:
        return args.func(args)
    except MalformedInputError as exc:
        print(exc, file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None:
            raise
        print(f"{exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
