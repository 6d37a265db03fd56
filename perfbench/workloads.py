"""The three benchmark workloads, run inside a fresh interpreter.

Each workload has a ``setup`` (imports, problem construction, opening
the cache), an untimed ``warmup`` that walks the same code paths on a
small input, and a ``run_pass`` that does the workload's fixed job once
and checks its outputs. Passes of one run repeat identical inputs, so
their counters and digests must match exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import time

from speed import SpeedClock

TARGET = 1e-8


class Pass:
    """Outcome of one pass: timings, counts, failures and a digest."""

    def __init__(self):
        self.wall_s = 0.0  # corrected for host speed, see speed.py
        self.raw_wall_s = 0.0
        self.elapsed_s = 0.0  # wall time including the reference runs
        self.latencies: list[float] = []
        self.struct_evals = 0
        self.runs = 0
        self.evals = 0
        self.hits = 0
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.counts: dict[str, int] = {}
        self.digest = ""
        self.pair_us_per_eval: dict[str, float] = {}

    def note(self, message: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(message)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.note(message)

    def check(self, condition: bool, message: str) -> None:
        """One pass-level invariant; it counts as an attempted operation."""
        self.attempted += 1
        if not condition:
            self.fail(message)


def check_records(records, budget: int, where: str, out: Pass) -> bool:
    """Per-run invariants of the fixed-target protocol; notes violations."""
    ok = True
    for r in records:
        hit = r.hit_index is not None
        if r.evaluations_used > budget:
            out.note(f"{where}: seed {r.seed} used {r.evaluations_used} > {budget}")
            ok = False
        if hit != (r.best_error <= TARGET):
            out.note(f"{where}: seed {r.seed} hit={hit} best_error={r.best_error!r}")
            ok = False
        if hit and r.hit_index > r.evaluations_used:
            out.note(f"{where}: seed {r.seed} hit_index > evaluations_used")
            ok = False
    return ok


def record_line(r) -> str:
    hit = "NA" if r.hit_index is None else r.hit_index
    return (
        f"{r.config}\t{r.function_id}\t{r.dimension}\t{r.seed}\t"
        f"{r.evaluations_used}\t{r.best_error!r}\t{hit}\n"
    )


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
    return h.hexdigest()


def in_space(config: str, free_genes: int) -> bool:
    return len(config) == 11 and set(config[free_genes:]) <= {"0"}


class Workload:
    jobs = 1
    executes = True  # whether the pass runs the engine or reads the cache
    # Calibrate from an interval timer; a pool workload instead calibrates
    # between structure evaluations, while its workers are idle.
    timer = True

    def __init__(self, inputs: dict, workdir: str):
        self.inputs = inputs
        self.workdir = workdir
        self.recorder = None
        self.clock = SpeedClock()
        self.calibrating = False

    @contextlib.contextmanager
    def measured(self, out: "Pass"):
        """Time one pass on the corrected clock."""
        clock = self.clock
        t0, r0, e0 = clock.now(), clock.raw_now(), time.perf_counter()
        ticking = self.calibrating and self.timer
        with clock.ticking() if ticking else contextlib.nullcontext():
            yield
        out.wall_s = clock.now() - t0
        out.raw_wall_s = clock.raw_now() - r0
        out.elapsed_s = time.perf_counter() - e0

    @contextlib.contextmanager
    def untraced(self):
        """Keep the benchmark's own checks out of the trace."""
        rec = self.recorder
        enabled = rec.enabled if rec else False
        if rec:
            rec.enabled = False
        try:
            yield
        finally:
            if rec:
                rec.enabled = enabled


class EvaluatorProbe:
    """Times each call of ``CachedEvaluator.__call__``: one structure
    evaluation, executed or served from the cache."""

    def __init__(self, cli_module, workload: "Workload"):
        self.latencies: list[float] = []
        self.results: list = []
        cls = getattr(cli_module, "CachedEvaluator", None)
        original = getattr(cls, "__call__", None)
        if original is None:
            return  # the pass checks then report no structure evaluations
        probe = self
        clock = workload.clock
        between = not workload.timer

        def __call__(evaluator, cfg):
            if between and workload.calibrating:
                clock.maybe_calibrate()
            t0 = clock.now()
            result = original(evaluator, cfg)
            probe.latencies.append(clock.now() - t0)
            probe.results.append(result)
            return result

        cls.__call__ = __call__

    def take(self) -> tuple[list[float], list]:
        out = self.latencies, self.results
        self.latencies, self.results = [], []
        return out


class CliWorkload(Workload):
    """Runs ``modcmaes.cli.main`` in-process and keeps its stdout."""

    def setup(self) -> None:
        from modcmaes import benchmarks, cli, evaluation

        self.cli = cli
        self.evaluation = evaluation
        self.benchmarks = benchmarks
        self.probe = EvaluatorProbe(cli, self)

    def command(self, argv: list[str], out: Pass) -> str | None:
        """Run one CLI command; a raise or non-zero exit is a failure."""
        out.attempted += 1
        buf, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the benchmark must report, not crash
            out.fail(f"{argv[0]}: {type(exc).__name__}: {exc}")
            return None
        if code not in (0, None):
            out.fail(f"{argv[0]} exited {code}: {err.getvalue().strip()[:200]}")
            return None
        return buf.getvalue()

    def cache_records(self, path: str, out: Pass) -> list:
        with self.untraced():
            try:
                return self.evaluation.ResultsCache(path).records()
            except Exception as exc:
                out.fail(f"cache read: {type(exc).__name__}: {exc}")
                return []

    def evaluations_of(self, results, budget: int, free_genes: int, out: Pass):
        """Count runs, evaluations and hits behind delivered summaries."""
        seen: dict[str, tuple[int, int, int, bool]] = {}
        for summary in results:
            cfg = summary.config
            if cfg not in seen:
                runs = summary.runs
                ok = (
                    summary.n == self.n_runs
                    and len(runs) == self.n_runs
                    and in_space(cfg, free_genes)
                    and check_records(runs, budget, cfg, out)
                )
                seen[cfg] = (
                    len(runs),
                    sum(r.evaluations_used for r in runs),
                    sum(r.hit_index is not None for r in runs),
                    ok,
                )
            runs, evals, hits, ok = seen[cfg]
            out.struct_evals += 1
            out.attempted += 1
            out.runs += runs
            out.evals += evals
            out.hits += hits
            if not ok:
                out.fail(f"{cfg}: invalid structure evaluation")


class Engine20D(Workload):
    """Serial library ``run_batch`` on 20-D and 10-D problems, no cache."""

    def setup(self) -> None:
        from modcmaes import benchmarks, evaluation

        self.run_batch = evaluation.run_batch
        self.n = self.inputs["n"]
        self.pairs = []
        for fid, dim in self.inputs["problems"]:
            problem = benchmarks.make_problem(fid, dim)
            for cfg in self.inputs["structures"]:
                seed = self.inputs["seeds"][f"{cfg}/{fid}-{dim}"]
                self.pairs.append((cfg, problem, seed))

    def warmup(self) -> None:
        for cfg, problem, seed in self.pairs:
            self.run_batch(cfg, problem, n=1, budget=50 * problem.dimension,
                           seed=seed, jobs=1)

    def run_pass(self) -> Pass:
        out = Pass()
        lines: list[str] = []
        with self.measured(out):
            restarts = self._pairs(out, lines)
        out.counts = {
            "runs": out.runs,
            "evals": out.evals,
            "hits": out.hits,
            "restarts": restarts,
        }
        out.digest = digest(sorted(lines))
        return out

    def _pairs(self, out: Pass, lines: list[str]) -> int:
        """Every structure evaluation of the pass; returns the restarts."""
        clock = self.clock
        restarts = 0
        for cfg, problem, seed in self.pairs:
            where = f"{cfg}/{problem.function_id}-{problem.dimension}"
            budget = 1000 * problem.dimension
            out.attempted += 1
            t0 = clock.now()
            try:
                summary = self.run_batch(cfg, problem, n=self.n, seed=seed, jobs=1)
            except Exception as exc:
                out.fail(f"{where}: {type(exc).__name__}: {exc}")
                continue
            latency = clock.now() - t0
            with self.untraced():
                runs = summary.runs
                out.latencies.append(latency)
                out.struct_evals += 1
                evals = sum(r.evaluations_used for r in runs)
                out.runs += len(runs)
                out.evals += evals
                out.hits += sum(r.hit_index is not None for r in runs)
                restarts += sum(r.restarts for r in runs)
                out.pair_us_per_eval[where] = 1e6 * latency / max(evals, 1)
                if len(runs) != self.n or not check_records(runs, budget, where, out):
                    out.fail(f"{where}: invalid structure evaluation")
                lines.extend(record_line(r) for r in runs)
        return restarts


class Sweep2D(CliWorkload):
    """CLI ``bruteforce`` over 32 structures on sphere 2-D, cold cache."""

    jobs = 2
    timer = False

    def setup(self) -> None:
        super().setup()
        self.argv = self.inputs["argv"]
        self.n_runs = self.inputs["runs"]
        self.space = self.inputs["space"]
        self.budget = self.inputs["budget"]
        self.benchmarks.make_problem("sphere", 2)
        self.passes = 0

    def warmup(self) -> None:
        warm = Pass()
        cache = os.path.join(self.workdir, "warmup.tsv")
        self.command(self.inputs["warmup_argv"] + ["--cache", cache], warm)
        self.probe.take()
        if warm.failed:
            raise RuntimeError("; ".join(warm.messages))

    def run_pass(self) -> Pass:
        out = Pass()
        self.passes += 1
        cache = os.path.join(self.workdir, f"sweep-{self.passes}.tsv")
        with self.measured(out):
            stdout = self.command(self.argv + ["--cache", cache], out)
        latencies, results = self.probe.take()
        with self.untraced():
            out.latencies = latencies
            self.evaluations_of(results, self.budget, 5, out)
            fields = dict(
                line.split("\t", 1) for line in (stdout or "").splitlines()
                if "\t" in line
            )
            expect = {"configs": str(self.space), "executed": str(self.space),
                      "skipped": "0"}
            out.check(fields == expect,
                      f"bruteforce reported {fields}, expected {expect}")
            records = self.cache_records(cache, out)
            keys = {(r.config, r.seed) for r in records}
            total = self.space * self.n_runs
            out.check(len(records) == total and len(keys) == total,
                      f"cache holds {len(records)} records, {len(keys)} "
                      f"distinct (structure, seed); expected {total}")
            out.check(out.struct_evals == self.space,
                      f"{out.struct_evals} structure evaluations, "
                      f"expected {self.space}")
            raw = ""
            if os.path.exists(cache):
                with open(cache, encoding="utf-8") as fh:
                    raw = fh.read()
                os.remove(cache)
            out.counts = {
                "runs": out.runs,
                "evals": out.evals,
                "hits": out.hits,
                "structure_evaluations": out.struct_evals,
                "cache_records": len(records),
                "cache_bytes": len(raw.encode()),
            }
            out.digest = digest(sorted(raw.splitlines(True)) + [stdout or ""])
        return out


class SearchWarm(CliWorkload):
    """CLI ``ga`` plus two reports over a warm, shared cache."""

    executes = False

    def setup(self) -> None:
        super().setup()
        self.cache = os.path.join(self.workdir, "warm.tsv")
        self.n_runs = self.inputs["runs"]
        self.budget = self.inputs["budget"]
        self.ga_runs = self.inputs["ga_runs"]
        problem = self.benchmarks.make_problem("sphere", 2)
        # Opening the cache: the index the commands build, or a plain
        # read where the evaluator's signature has moved on.
        cache = self.evaluation.ResultsCache(self.cache)
        try:
            self.cli.CachedEvaluator(problem, cache, n_runs=self.n_runs)
        except (AttributeError, TypeError):
            cache.records()
        self.cache_size = os.path.getsize(self.cache)

    def sequence(self, ga_runs: int, traces: str, out: Pass) -> list[str]:
        common = self.inputs["common"] + ["--cache", self.cache]
        ga = ["ga"] + common + ["--out", traces, "--ga-runs", str(ga_runs)]
        rank = ["report-rank"] + common + ["--traces", traces]
        conv = ["report-convergence", "--traces", traces]
        return [self.command(argv, out) for argv in (ga, rank, conv)]

    def warmup(self) -> None:
        warm = Pass()
        self.sequence(1, os.path.join(self.workdir, "warmup-traces"), warm)
        self.probe.take()
        if warm.failed:
            raise RuntimeError("; ".join(warm.messages))

    def run_pass(self) -> Pass:
        out = Pass()
        traces = os.path.join(self.workdir, "traces")
        with self.measured(out):
            stdouts = self.sequence(self.ga_runs, traces, out)
        latencies, results = self.probe.take()
        with self.untraced():
            out.latencies = latencies
            self.evaluations_of(results, self.budget, 5, out)
            ga_out, rank_out, conv_out = (s or "" for s in stdouts)
            rows = ga_out.splitlines()[1:]
            out.check(
                len(rows) == self.ga_runs
                and all(in_space((row.split("\t") + [""] * 5)[4], 5) for row in rows),
                f"ga printed {len(rows)} rows, expected {self.ga_runs} in the space",
            )
            names = sorted(
                n for n in (os.listdir(traces) if os.path.isdir(traces) else [])
                if n.startswith("trace_")
            )
            out.check(len(names) == self.ga_runs,
                      f"{len(names)} GA traces for {self.ga_runs} GA runs")
            trace_text = []
            for name in names:
                with open(os.path.join(traces, name), encoding="utf-8") as fh:
                    trace_text.append(fh.read())
            out.check("\nrank\t" in "\n" + rank_out, "report-rank printed no rank")
            out.check(len(conv_out.splitlines()) > 1,
                      "report-convergence printed no rows")
            lookups = self.ga_runs * self.inputs["ga_budget"]
            out.check(out.struct_evals == lookups,
                      f"{out.struct_evals} lookups, expected {lookups}")
            size = os.path.getsize(self.cache)
            out.check(size == self.cache_size,
                      f"warm cache changed size: {self.cache_size} -> {size}")
            out.counts = {
                "runs": out.runs,
                "evals": out.evals,
                "hits": out.hits,
                "structure_evaluations": out.struct_evals,
                "cache_bytes": size,
            }
            out.digest = digest([ga_out, rank_out, conv_out] + trace_text)
        return out


def prepare_search(inputs: dict, workdir: str) -> Pass:
    """Fill the warm cache through the CLI and check what it holds."""
    wl = CliWorkload(inputs, workdir)
    wl.setup()
    out = Pass()
    cache = os.path.join(workdir, "warm.tsv")
    for argv in inputs["prep"]:
        wl.command(argv + ["--cache", cache], out)
    records = wl.cache_records(cache, out)
    groups: dict[tuple[str, int], set] = {}
    for r in records:
        groups.setdefault((r.function_id, r.dimension), set()).add((r.config, r.seed))
    expected = inputs["prep_records"]
    found = {f"{fid}-{dim}": len(keys) for (fid, dim), keys in groups.items()}
    out.check(len(records) == sum(expected.values()) and found == expected,
              f"warm cache holds {found} in {len(records)} records, "
              f"expected {expected}")
    budgets = inputs["prep_budgets"]
    bad = [r for r in records if not check_records(
        [r], budgets.get(f"{r.function_id}-{r.dimension}", 0), "warm cache", out)]
    out.check(not bad, f"{len(bad)} warm-cache records break an invariant")
    out.counts = {"cache_records": len(records)}
    return out


WORKLOADS = {
    "engine-20d": Engine20D,
    "sweep-2d": Sweep2D,
    "search-warm": SearchWarm,
}
