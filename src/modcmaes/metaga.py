"""(1, lambda) self-adaptive search over the structure space.

A mutation-only genetic algorithm evolves 11-gene structure genomes:
each offspring copies the parent, perturbs its own mutation rate
through a log-normal logistic rule, mutates the genome at that rate,
and is scored by a fitness evaluator (ERT-first comparison). Pure comma
selection: the best offspring always replaces the parent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .configuration import ConfigurationVector, encode, mutate
from .evaluation import FitnessSummary, compare_fitness

__all__ = [
    "GAIndividual",
    "TraceEntry",
    "GARunTrace",
    "mutate_rate",
    "random_individual",
    "ga_step",
    "ga_run",
    "P_MIN",
    "P_MAX",
    "P_INIT",
    "GAMMA",
]

GAMMA = 0.22
P_MIN = 1.0 / 11.0
P_MAX = 0.5
P_INIT = 2.0 / 11.0


@dataclass
class GAIndividual:
    r: ConfigurationVector
    p_m: float
    fitness: FitnessSummary | None = None
    error: str | None = None  # "Type: message" when evaluation raised


@dataclass(frozen=True)
class TraceEntry:
    generation: int
    best_config: str
    ert: float | None
    fce: float


@dataclass
class GARunTrace:
    """Per-generation best-so-far trail of one GA run."""

    entries: list[TraceEntry] = field(default_factory=list)
    evaluations: int = 0
    failures: int = 0  # evaluations that raised; not in the trace file
    first_error: str | None = None  # the first one's "Type: message"

    @property
    def best_config(self) -> str:
        return self.entries[-1].best_config

    def to_lines(self) -> str:
        lines = ["generation\tbest_config\tert\tfce"]
        for e in self.entries:
            ert = "NA" if e.ert is None else repr(e.ert)
            lines.append(f"{e.generation}\t{e.best_config}\t{ert}\t{repr(e.fce)}")
        return "\n".join(lines) + "\n"


def mutate_rate(
    p: float, rng: np.random.Generator, gamma: float = GAMMA
) -> float:
    """Log-normal logistic perturbation of a mutation rate.

    p' = 1 / (1 + ((1-p)/p) * exp(-gamma * g)) with g ~ N(0,1); the rule
    is median-preserving and keeps p' in (0, 1), then clamps to
    [1/11, 0.5].
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    g = rng.standard_normal()
    p_new = 1.0 / (1.0 + ((1.0 - p) / p) * math.exp(-gamma * g))
    return min(max(p_new, P_MIN), P_MAX)


def random_individual(
    rng: np.random.Generator, frozen: Mapping[int, int] | None = None
) -> GAIndividual:
    """Uniformly random genome (free genes only), default rate 2/11."""
    from .configuration import CATALOG

    frozen = dict(frozen or {})
    genes = []
    for i, count in enumerate(CATALOG.option_counts):
        if i in frozen:
            genes.append(frozen[i])
        else:
            genes.append(int(rng.integers(count)))
    return GAIndividual(r=ConfigurationVector(tuple(genes)), p_m=P_INIT)


def _better(a: FitnessSummary, b: FitnessSummary) -> bool:
    """True when a strictly beats b under the ERT-first ordering.

    The winner of :func:`evaluation.compare` without its Welch
    uncertainty, which only the reports read.
    """
    return compare_fitness(a.ert, a.fce, b.ert, b.fce)[0] == "A"


def ga_step(
    parent: GAIndividual,
    evaluator: Callable[[ConfigurationVector], FitnessSummary],
    rng: np.random.Generator,
    lambda_: int = 12,
    frozen: Mapping[int, int] | None = None,
) -> tuple[GAIndividual, list[GAIndividual]]:
    """One comma generation: mutate-rate, mutate-genome, evaluate.

    Returns the new parent (single best of the lambda offspring) and
    the full offspring list. Every offspring costs one structure
    evaluation, cached or not.
    """
    if lambda_ < 1:
        raise ValueError("lambda must be >= 1")
    offspring: list[GAIndividual] = []
    for _ in range(lambda_):
        p_m = mutate_rate(parent.p_m, rng)
        genome = mutate(parent.r, p_m, rng, frozen=frozen)
        child = GAIndividual(r=genome, p_m=p_m)
        try:
            child.fitness = evaluator(child.r)
        except Exception as exc:
            # A failed evaluation must not kill the search; the child
            # simply can never win a comparison. n = 0 marks it failed.
            child.error = f"{type(exc).__name__}: {exc}"
            child.fitness = FitnessSummary(
                config=encode(genome),
                function_id="?",
                dimension=0,
                n=0,
                ert=None,
                fce=math.inf,
                std_error=0.0,
            )
        offspring.append(child)
    best = offspring[0]
    for child in offspring[1:]:
        if _better(child.fitness, best.fitness):
            best = child
    return best, offspring


def ga_run(
    evaluator: Callable[[ConfigurationVector], FitnessSummary],
    budget: int = 240,
    lambda_: int = 12,
    seed: int = 0,
    frozen: Mapping[int, int] | None = None,
) -> GARunTrace:
    """Run the (1, lambda) GA for ``budget // lambda`` generations.

    The trace records, per generation, the best structure seen so far
    under the ERT-first ordering together with its ERT and FCE; the
    comma parent itself may be worse than the incumbent.
    """
    if budget < lambda_:
        raise ValueError("budget must be at least lambda")
    rng = np.random.default_rng(seed)
    parent = random_individual(rng, frozen=frozen)
    generations = budget // lambda_
    trace = GARunTrace()
    incumbent: GAIndividual | None = None
    for gen in range(1, generations + 1):
        parent, offspring = ga_step(
            parent, evaluator, rng, lambda_=lambda_, frozen=frozen
        )
        trace.evaluations += lambda_
        trace.failures += sum(1 for c in offspring if c.fitness.n == 0)
        if trace.first_error is None:
            trace.first_error = next(
                (c.error for c in offspring if c.error), None
            )
        for child in offspring:
            if incumbent is None or _better(child.fitness, incumbent.fitness):
                incumbent = child
        trace.entries.append(
            TraceEntry(
                generation=gen,
                best_config=encode(incumbent.r),
                ert=incumbent.fitness.ert,
                fce=incumbent.fitness.fce,
            )
        )
    return trace
