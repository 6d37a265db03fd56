"""Workload process of the modcmaes benchmark.

Usage: ``python perfbench/child.py {setup|prep|run} SPEC.json``

``setup`` builds the workload, prints ``READY`` and exits; the parent
times it from spawn to that line. ``prep`` fills the search workload's
cache through the CLI. ``run`` builds, prints ``READY``, warms up, times
identical passes for the spec's seconds (at least two) and, when
tracing, times passes for half the seconds (at least one) and then one
more pass under the span recorder. Results go to the spec's JSON file.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

import numpy as np

import spans
import workloads

# Tail percentile candidates; the benchmark reports the highest that
# leaves at least ten samples beyond it in the fewest passes a run makes.
# The grid stops at p99: beyond it, sub-millisecond cache lookups are
# ranked by the host's preemptions rather than by the program.
TAIL_GRID = (99.0, 95.0, 90.0, 75.0, 50.0)
MIN_PASSES = 2


def tail_percentile(samples_per_pass: int) -> float:
    n = samples_per_pass * MIN_PASSES
    for p in TAIL_GRID:
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 100.0


def cpu_seconds() -> tuple[float, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def pass_dict(p: workloads.Pass) -> dict:
    return {
        "wall_s": p.wall_s,
        "raw_wall_s": p.raw_wall_s,
        "elapsed_s": p.elapsed_s,
        "struct_evals": p.struct_evals,
        "runs": p.runs,
        "evals": p.evals,
        "hits": p.hits,
        "attempted": p.attempted,
        "failed": p.failed,
        "messages": p.messages,
        "counts": p.counts,
        "digest": p.digest,
    }


def timed_passes(wl, seconds: float, min_passes: int):
    passes, cpu = [], []
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        before = cpu_seconds()
        passes.append(wl.run_pass())
        after = cpu_seconds()
        cpu.append((after[0] - before[0], after[1] - before[1]))
    return passes, cpu


def same_output(first: workloads.Pass, other: workloads.Pass, out: workloads.Pass):
    """Identical inputs must give identical counts and bytes."""
    out.check(
        other.counts == first.counts and other.digest == first.digest,
        f"pass differs from the first: {other.counts} vs {first.counts}",
    )


def layer_metrics(wl, passes, cpu, traced, split, missing) -> dict:
    """Per-layer split of the traced pass, with counts from all passes."""
    names = split["names"]
    counters = split["counters"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def self_s(name):
        return names.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return names.get(name, {}).get("total_s", 0.0)

    def us_per_call(name):
        n = calls(name)
        return 1e6 * total_s(name) / n if n else 0.0

    untraced_wall = float(np.median([p.raw_wall_s for p in passes]))
    latencies = [x for p in passes for x in p.latencies]
    evaluator_calls = calls("cli.evaluator_call")
    executed = counters.get("evaluation.records_appended", 0)
    requested = evaluator_calls * wl.inputs.get("runs", 0)
    loads = calls("evaluation.cache_load")
    out = {
        "struct_eval_p50_s": float(np.median(latencies)) if latencies else 0.0,
        "quality.hit_rate": passes[0].hits / max(passes[0].runs, 1),
        "core.generations": calls("core.adapt"),
        "core.restarts": counters.get("core.restarts", 0),
        "evaluation.cache_append.s": total_s("evaluation.cache_append"),
        "evaluation.cache_bytes_written": names.get(
            "evaluation.cache_append", {}).get("amount", 0),
        "evaluation.cache_load.s": total_s("evaluation.cache_load"),
        "evaluation.cache_loads": loads,
        "evaluation.cache_bytes_read": names.get(
            "evaluation.cache_load", {}).get("amount", 0),
        "evaluation.cache_hit_ratio": (
            1.0 - executed / requested if requested else 0.0
        ),
        "cli.evaluator_call.p50_s": (
            float(np.median(latencies)) if evaluator_calls and latencies else 0.0
        ),
        "cli.runs_executed": executed,
        "cli.pool.wait_s": self_s("cli.evaluator_call"),
        "cli.pool.worker_cpu_s": float(np.median([c[1] for c in cpu])),
        "cli.pool.cpu_util": float(np.median([
            (own + kids) / (p.elapsed_s * wl.jobs) for p, (own, kids) in zip(passes, cpu)
        ])),
        "metaga.lookups": split["ga_lookups"],
        "trace.wall_s": traced.elapsed_s,
        "trace.overhead_frac": traced.elapsed_s / untraced_wall - 1.0,
        "trace.unattributed_s": traced.elapsed_s - split["main_covered_s"],
        "trace.worker_self_s": split["worker_self_s"],
        "trace.missing_targets": len(missing),
    }
    for name, _, _ in spans.TARGETS:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.us_per_call"] = us_per_call(name)
        out[f"{name}.self_s"] = self_s(name)
    for pair in wl.inputs.get("pairs", []):
        values = [p.pair_us_per_eval.get(pair, 0.0) for p in passes]
        out["core.us_per_eval." + pair.replace("/", ".")] = float(np.median(values))
    return out


def run(spec: dict, mode: str) -> dict:
    name, inputs, workdir = spec["workload"], spec["inputs"], spec["workdir"]
    if mode == "prep":
        prep = workloads.prepare_search(inputs, workdir)
        return {"prep": pass_dict(prep)}

    wl = workloads.WORKLOADS[name](inputs, workdir)
    wl.setup()
    print("READY", os.path.abspath(sys.modules["modcmaes"].__file__), flush=True)
    if mode == "setup":
        return {}
    wl.warmup()
    wl.calibrating = True
    wl.clock.calibrate()

    trace = spec["trace"]
    seconds = spec["seconds"] / 2.0 if trace else spec["seconds"]
    passes, cpu = timed_passes(wl, seconds, 1 if trace else MIN_PASSES)
    peak = peak_rss_mb()
    checks = workloads.Pass()
    for p in passes[1:]:
        same_output(passes[0], p, checks)

    walls = [p.wall_s for p in passes]
    total_wall = sum(walls)
    refs = [end - start for start, end, _ in wl.clock.calibrations]
    per_pass = len(passes[0].latencies)
    latencies = [x for p in passes for x in p.latencies]
    pct = tail_percentile(per_pass)
    result = {
        "passes": [pass_dict(p) for p in passes],
        "exact": dict(passes[0].counts, digest=passes[0].digest),
        "tail": {
            "percentile": pct,
            "samples": len(latencies),
            "beyond": int(len(latencies) * (1.0 - pct / 100.0)),
        },
        "end_to_end": {
            "wall_s": float(np.median(walls)),
            "structures_per_s": sum(p.struct_evals for p in passes) / total_wall,
            "evals_per_s": sum(p.evals for p in passes) / total_wall,
            # Without latencies the pass checks have failed; a pass bounds
            # any structure evaluation in it.
            "struct_eval_tail_s": (
                float(np.percentile(latencies, pct)) if latencies else max(walls)
            ),
            "peak_rss_mb": peak,
        },
        "raw": {
            "wall_s": float(np.median([p.raw_wall_s for p in passes])),
            "structures_per_s": sum(p.struct_evals for p in passes)
            / sum(p.raw_wall_s for p in passes),
            "reference_s_median": float(np.median(refs)),
            "reference_s_p10_p90": [float(np.percentile(refs, q)) for q in (10, 90)],
            "calibrations": len(refs),
        },
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
        },
    }
    if trace:
        span_dir = os.path.join(workdir, "spans")
        os.makedirs(span_dir, exist_ok=True)
        recorder = spans.Recorder(span_dir)
        wl.recorder = recorder
        wl.calibrating = False
        recorder.install()
        traced = wl.run_pass()
        recorder.enabled = False
        split = spans.split(recorder.take())
        same_output(passes[0], traced, checks)
        names = split["names"]
        points = names.get("benchmarks.error", {}).get("amount", 0)
        charged = names.get("core.run", {}).get("amount", 0)
        executed = traced.evals if wl.executes else 0
        checks.check(
            points == charged == executed,
            f"objective points {points}, evaluations charged {charged}, "
            f"in executed results {executed}",
        )
        result["traced"] = pass_dict(traced)
        result["missing"] = recorder.missing
        result["split"] = {k: v for k, v in split.items() if k != "names"}
        result["split_names"] = names
        result["per_layer"] = layer_metrics(
            wl, passes, cpu, traced, split, recorder.missing
        )
        for key in ("core.generations", "core.restarts", "cli.runs_executed",
                    "evaluation.cache_loads", "evaluation.cache_bytes_read",
                    "evaluation.cache_bytes_written", "metaga.lookups"):
            result["exact"][key] = result["per_layer"][key]
        for name, _, _ in spans.TARGETS:
            result["exact"][f"{name}.calls"] = result["per_layer"][f"{name}.calls"]
    result["checks"] = pass_dict(checks)
    return result


def main() -> int:
    mode, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec, mode)
    if mode != "setup":
        with open(spec["result"], "w", encoding="utf-8") as fh:
            json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
