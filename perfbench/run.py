"""Benchmark of modcmaes: three workloads, end-to-end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload engine-20d --seed 1 --seconds 15 --trace 0

Every workload runs in fresh interpreters against ``src/`` of the
checkout. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
adds one pass under the outside-in span recorder and prints the
per-layer metrics. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a full report is
written to ``.perfbench/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

THREAD_LIMITS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# One BLAS thread per process, here and in every child, so that --jobs 2
# never puts more than two busy threads on a two-core machine. Set before
# numpy is first imported.
for _name in THREAD_LIMITS:
    os.environ[_name] = "1"

import speed  # noqa: E402  (needs the thread limits above)

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
STATE = os.path.join(ROOT, ".perfbench")
DEADLINE_S = 170.0
SETUP_PROBES = 2

STRUCTURES = ("00000000000", "00010000000", "11111111122", "00000000021")
ENGINE_PROBLEMS = (("rastrigin_rotated", 20), ("gallagher", 10))
FREE = "1,2,3,4,5"  # genes 1-5 free: 2^5 = 32 structures
RUNS = 32
GA_RUNS = 300
GA_BUDGET = 240
# Records of other problems and budgets that share the search's cache,
# three times the searched problem's 1024: (function, dim, budget).
SHARED_CACHE = (
    ("rastrigin_separable", 2, 20),
    ("ellipsoid_separable", 3, 30),
    ("sphere", 5, 50),
)


def make_inputs(workload: str, seed: int) -> dict:
    """Everything the program is given, drawn from the workload seed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "engine-20d":
        pairs = [f"{cfg}/{fid}-{dim}" for fid, dim in ENGINE_PROBLEMS
                 for cfg in STRUCTURES]
        return {
            "structures": list(STRUCTURES),
            "problems": [list(p) for p in ENGINE_PROBLEMS],
            "n": 2,
            "pairs": pairs,
            "seeds": {pair: rng.randrange(1, 2**31) for pair in pairs},
        }
    run_seed = rng.randrange(1, 10**6)
    common = ["--function", "sphere", "--dim", "2", "--runs", str(RUNS),
              "--seed", str(run_seed), "--free", FREE]
    if workload == "sweep-2d":
        return {
            "argv": ["bruteforce"] + common + ["--jobs", "2"],
            "warmup_argv": ["bruteforce", "--function", "sphere", "--dim", "2",
                            "--runs", "2", "--seed", str(run_seed), "--free",
                            "1", "--jobs", "2"],
            "space": 32,
            "runs": RUNS,
            "budget": 2000,
        }
    prep = [["bruteforce"] + common + ["--jobs", "2"]]
    for fid, dim, budget in SHARED_CACHE:
        prep.append(["bruteforce", "--function", fid, "--dim", str(dim),
                     "--runs", str(RUNS), "--seed", str(run_seed),
                     "--free", FREE, "--budget", str(budget)])
    return {
        "common": common,
        "runs": RUNS,
        "budget": 2000,
        "ga_runs": GA_RUNS,
        "ga_budget": GA_BUDGET,
        "prep": prep,
        "prep_records": {f"{fid}-{dim}": 32 * RUNS
                         for fid, dim, _ in (("sphere", 2, 0),) + SHARED_CACHE},
        "prep_budgets": {"sphere-2": 2000, **{f"{fid}-{dim}": budget
                                              for fid, dim, budget in SHARED_CACHE}},
    }


WORKLOADS = ("engine-20d", "sweep-2d", "search-warm")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "") if env.get(
        "PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time")
    return left


def spawn(mode: str, spec_path: str, deadline: float, log_path: str):
    """Run one child to completion.

    Returns the seconds from spawn to READY, raw and corrected for host
    speed by the median of three reference runs just before the spawn
    (see speed.py).
    """
    cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, spec_path]
    refs = []
    for _ in range(3):
        t_ref = time.perf_counter()
        speed.reference()
        refs.append(time.perf_counter() - t_ref)
    factor = speed.NOMINAL_REF_S / statistics.median(refs)
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=log,
                                start_new_session=True)
    ready_s = None
    output = b""
    try:
        while True:
            readable, _, _ = select.select([proc.stdout], [], [],
                                           remaining(deadline))
            if not readable:
                raise BenchError(f"{mode}: child ran out of time")
            chunk = os.read(proc.stdout.fileno(), 4096)
            if not chunk:
                break
            output += chunk
            if ready_s is None and b"\n" in output:
                ready_s = time.perf_counter() - t0
        code = proc.wait(timeout=remaining(deadline))
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if code != 0:
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{mode} child exited {code}:\n{tail}")
    if mode == "prep":
        return 0.0, 0.0
    first = output.split(b"\n", 1)[0].decode(errors="replace")
    expected = "READY " + os.path.join(ROOT, "src", "modcmaes")
    if not first.startswith(expected):
        raise BenchError(f"{mode}: expected {expected!r}, child said {first!r}")
    return ready_s, ready_s * factor


def src_digest() -> str:
    """Hash of the program and benchmark sources, keying the count memo."""
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def src_lines() -> int:
    total = 0
    for dirpath, _, filenames in os.walk(os.path.join(ROOT, "src")):
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def compare_counts(key: str, exact: dict) -> tuple[bool, str]:
    """Exact counts of one seed must repeat between runs of the same code."""
    path = os.path.join(STATE, "counts", key + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    previous = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
    diff = {k: (previous[k], v) for k, v in exact.items()
            if k in previous and previous[k] != v}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**previous, **exact}, fh, indent=1, sort_keys=True)
    return not diff, (f"counts differ from an earlier run: {diff}" if diff else "")


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(STATE, "work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        spec = {
            "workload": workload,
            "inputs": make_inputs(workload, seed),
            "workdir": workdir,
            "seconds": seconds,
            "trace": trace,
            "result": os.path.join(workdir, "result.json"),
        }
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        log = os.path.join(workdir, "child.log")

        prep = None
        if workload == "search-warm":
            spawn("prep", spec_path, deadline, log)
            with open(spec["result"], encoding="utf-8") as fh:
                prep = json.load(fh)["prep"]
        setup = [spawn("setup", spec_path, deadline, log)
                 for _ in range(SETUP_PROBES)]
        setup.append(spawn("run", spec_path, deadline, log))
        with open(spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_raw_s"] = [raw for raw, _ in setup]
    result["setup_samples"] = [corrected for _, corrected in setup]
    result["prep"] = prep
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "modcmaes", "__init__.py")):
        print("perfbench: no src/modcmaes in the current directory; run from "
              "the root of a modcmaes checkout", file=sys.stderr)
        return 2
    if not os.path.isfile(spec_path):
        print("perfbench: BENCHMARK.json not found", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        bench = json.load(fh)

    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    parts = [result["checks"]] + result["passes"]
    if result.get("prep"):
        parts.append(result["prep"])
    if result.get("traced"):
        parts.append(result["traced"])
    attempted = sum(p["attempted"] for p in parts) + 1
    failed = sum(p["failed"] for p in parts)
    messages = [m for p in parts for m in p["messages"]]
    same, message = compare_counts(
        f"{args.workload}-{args.seed}-{src_digest()}", result["exact"])
    if not same:
        failed += 1
        messages.append(message)

    if args.trace:
        listed = bench["per_layer"]
        values = dict(result["per_layer"], **{"quality.fail_rate": failed / attempted})
    else:
        listed = bench["end_to_end"]
        values = dict(result["end_to_end"],
                      setup_s=statistics.median(result["setup_samples"]))
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in listed}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "metrics": metrics,
        "tail": result["tail"],
        "raw": result["raw"],
        "setup_samples": result["setup_samples"],
        "setup_raw_s": result["setup_raw_s"],
        "exact": result["exact"],
        "missing_targets": result.get("missing", []),
        "split": result.get("split"),
        "split_names": result.get("split_names"),
        "versions": result["versions"],
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "passes": result["passes"],
    }
    out_dir = os.path.join(STATE, "results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    tail = result["tail"]
    print(f"perfbench {args.workload} seed={args.seed}: {len(result['passes'])} "
          f"passes, tail = p{tail['percentile']:g} of {tail['samples']} "
          f"structure evaluations ({tail['beyond']} beyond), "
          f"digest {result['exact'].get('digest', '')[:16]}, "
          f"report {os.path.relpath(out_path, ROOT)}", file=sys.stderr)
    if report["missing_targets"]:
        print("perfbench: missing trace targets: "
              + ", ".join(report["missing_targets"]), file=sys.stderr)
    for m in messages:
        print(f"perfbench: FAILED {m}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
