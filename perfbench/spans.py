"""Outside-in span recorder for the modcmaes benchmark.

The recorder wraps functions and methods of an already imported
``modcmaes`` at the attribute each caller resolves at call time: every
module-level alias of a function (``cli.summarize`` and
``evaluation.summarize`` are the same object), or the class attribute of
a method. Each call becomes one span: name, start, end, parent span and
an optional amount (points evaluated, bytes read, records appended).

Spans stay in memory. Pool workers forked from the traced process
inherit the wrappers; each worker writes its spans to ``out_dir`` when
one of its top-level spans ends, because a pool worker leaves through
``os._exit`` and never runs exit handlers. A target that no longer
exists is listed in ``missing`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute path). Module functions are replaced in
# every modcmaes module that holds them; methods on their class.
TARGETS = (
    ("core.run", "modcmaes.core", "run"),
    ("core.evaluate_offspring", "modcmaes.core", "evaluate_offspring"),
    ("core.select", "modcmaes.core", "select"),
    ("core.recombine", "modcmaes.core", "recombine"),
    ("core.adapt", "modcmaes.core", "adapt"),
    ("core.decompose", "modcmaes.core", "StrategyParams.decompose"),
    ("sampling.next_batch", "modcmaes.sampling", "Sampler.next_batch"),
    ("benchmarks.error", "modcmaes.benchmarks", "Problem.error"),
    ("evaluation.cache_append", "modcmaes.evaluation", "ResultsCache.append"),
    ("evaluation.cache_load", "modcmaes.evaluation", "ResultsCache.records"),
    ("evaluation.summarize", "modcmaes.evaluation", "summarize"),
    ("evaluation.compare", "modcmaes.evaluation", "compare"),
    ("configuration.mutate", "modcmaes.configuration", "mutate"),
    ("metaga.ga_step", "modcmaes.metaga", "ga_step"),
    ("cli.evaluator_call", "modcmaes.cli", "CachedEvaluator.__call__"),
)


def _file_size(cache) -> int:
    path = getattr(cache, "path", None)
    try:
        return os.path.getsize(path) if path else 0
    except OSError:
        return 0


def _points(args, result, before, counters) -> int:
    x = args[1] if len(args) > 1 else None
    return int(np.shape(x)[0]) if np.ndim(x) == 2 else 1


def _run_outcome(args, result, before, counters) -> int:
    counters["core.restarts"] += int(getattr(result, "restarts", 0) or 0)
    return int(getattr(result, "evaluations_used", 0))


def _bytes_written(args, result, before, counters) -> int:
    counters["evaluation.records_appended"] += len(args[1])
    return _file_size(args[0]) - before


def _bytes_read(args, result, before, counters) -> int:
    return _file_size(args[0])


# Span name -> (hook run before the call, hook giving the span's amount).
AMOUNTS = {
    "benchmarks.error": (None, _points),
    "core.run": (None, _run_outcome),
    "evaluation.cache_append": (lambda args: _file_size(args[0]), _bytes_written),
    "evaluation.cache_load": (None, _bytes_read),
}


class Recorder:
    """Records spans of the wrapped targets in this process and its forks."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.names: list[str] = []
        self.main_pid = os.getpid()
        self.enabled = False
        self.missing: list[str] = []
        self._clear()
        os.register_at_fork(after_in_child=self._after_fork)

    def _clear(self) -> None:
        self.nid = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("q")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {
            "core.restarts": 0,
            "evaluation.records_appended": 0,
        }

    def _after_fork(self) -> None:
        # A pool worker starts with an empty buffer; its spans are roots.
        self._clear()

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for name, module_name, path in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("modcmaes"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        self.enabled = True

    def _wrap(self, name: str, fn):
        rec = self
        self.names.append(name)
        nid = len(self.names) - 1
        before_hook, amount_hook = AMOUNTS.get(name, (None, None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            idx = len(rec.start)
            stack = rec.stack
            rec.nid.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.amount.append(0)
            rec.end.append(0.0)
            before = before_hook(args) if before_hook else 0
            stack.append(idx)
            rec.start.append(clock())
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                rec.end[idx] = clock()
                stack.pop()
                if done and amount_hook:
                    rec.amount[idx] = amount_hook(
                        args, result, before, rec.counters
                    )
                if not stack and os.getpid() != rec.main_pid:
                    rec._flush_worker()
            return result

        return wrapper

    def _flush_worker(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.pkl")
        with open(path, "ab") as fh:
            pickle.dump(self._snapshot(), fh, protocol=pickle.HIGHEST_PROTOCOL)
        self._clear()

    def _snapshot(self) -> dict:
        return {
            "names": list(self.names),
            "nid": self.nid.tobytes(),
            "parent": self.parent.tobytes(),
            "start": self.start.tobytes(),
            "end": self.end.tobytes(),
            "amount": self.amount.tobytes(),
            "counters": dict(self.counters),
        }

    def take(self) -> list[dict]:
        """Main-process spans, then every worker batch; buffers are reset."""
        main = self._snapshot()
        main["main"] = True
        self._clear()
        batches = [main]
        for entry in sorted(os.listdir(self.out_dir)):
            if not entry.startswith("spans-"):
                continue
            path = os.path.join(self.out_dir, entry)
            with open(path, "rb") as fh:
                while True:
                    try:
                        batch = pickle.load(fh)
                    except EOFError:
                        break
                    batch["main"] = False
                    batch["pid"] = entry
                    batches.append(batch)
            os.remove(path)
        return batches


def split(batches: list[dict]) -> dict:
    """Per-name calls, inclusive and self time and amount, plus totals.

    A span's self time is its duration minus the durations of its direct
    children. Main-process top-level spans telescope to the traced time
    the wrappers cover; worker self time runs alongside the parent's
    wait and is reported apart from it.
    """
    names: dict[str, dict] = {}
    counters: dict[str, int] = {}
    main_covered_s = worker_self_s = 0.0
    lookups = 0
    for batch in batches:
        for key, value in batch["counters"].items():
            counters[key] = counters.get(key, 0) + value
        nid = np.frombuffer(batch["nid"], dtype=np.int32)
        if not len(nid):
            continue
        parent = np.frombuffer(batch["parent"], dtype=np.int64)
        dur = np.frombuffer(batch["end"]) - np.frombuffer(batch["start"])
        amount = np.frombuffer(batch["amount"], dtype=np.int64)
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(nid)
        )
        own = dur - children
        if batch["main"]:
            main_covered_s += float(dur[~has_parent].sum())
        else:
            worker_self_s += float(own.sum())
        table = batch["names"]
        for k, name in enumerate(table):
            mask = nid == k
            calls = int(mask.sum())
            if not calls:
                continue
            entry = names.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "amount": 0}
            )
            entry["calls"] += calls
            entry["total_s"] += float(dur[mask].sum())
            entry["self_s"] += float(own[mask].sum())
            entry["amount"] += int(amount[mask].sum())
        if "metaga.ga_step" in table and "cli.evaluator_call" in table:
            step = table.index("metaga.ga_step")
            call = table.index("cli.evaluator_call")
            parent_nid = nid[np.where(has_parent, parent, 0)]
            lookups += int(
                ((nid == call) & has_parent & (parent_nid == step)).sum()
            )
    return {
        "names": names,
        "counters": counters,
        "main_covered_s": main_covered_s,
        "worker_self_s": worker_self_s,
        "ga_lookups": lookups,
    }
