"""(1, lambda) self-adaptive search over the structure space.

A mutation-only genetic algorithm evolves 11-gene structure genomes:
each offspring copies the parent, perturbs its own mutation rate
through a log-normal logistic rule, mutates the genome at that rate,
and is scored by a fitness evaluator (ERT-first comparison). Pure comma
selection: the best offspring always replaces the parent. A search over
a sub-space takes its set of free genes (0-based); every other gene
stays 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import AbstractSet, Callable

import numpy as np

from .configuration import CATALOG, ConfigurationVector, encode, mutate
from .evaluation import FitnessSummary, format_float

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
            lines.append(f"{e.generation}\t{e.best_config}\t"
                         f"{format_float(e.ert)}\t{format_float(e.fce)}")
        return "\n".join(lines) + "\n"


def mutate_rate(p: float, rng: np.random.Generator) -> float:
    """Log-normal logistic perturbation of a mutation rate.

    p' = 1 / (1 + ((1-p)/p) * exp(-GAMMA * g)) with g ~ N(0,1); the rule
    is median-preserving and keeps p' in (0, 1), then clamps to
    [1/11, 0.5].
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    g = rng.standard_normal()
    p_new = 1.0 / (1.0 + ((1.0 - p) / p) * math.exp(-GAMMA * g))
    return min(max(p_new, P_MIN), P_MAX)


def random_individual(
    rng: np.random.Generator, free: AbstractSet[int] | None = None
) -> GAIndividual:
    """Uniformly random genome over the free genes, the others 0; default
    rate 2/11. Draws one integer per free gene, in gene order."""
    genes = tuple(
        int(rng.integers(count)) if free is None or i in free else 0
        for i, count in enumerate(CATALOG.option_counts)
    )
    return GAIndividual(r=ConfigurationVector(genes), p_m=P_INIT)


# The fitness of every child whose evaluation raised: n = 0 marks it
# failed, and with no ERT and an infinite FCE it never wins a comparison.
_FAILED = FitnessSummary(config="?", function_id="?", dimension=0, n=0,
                         ert=None, fce=math.inf, std_error=0.0)


def _key(child: GAIndividual) -> tuple[int, float]:
    """The child's ERT-first sort key; the lower key is the better child."""
    return child.fitness.key


def ga_step(
    parent: GAIndividual,
    evaluator: Callable[[ConfigurationVector], FitnessSummary],
    rng: np.random.Generator,
    lambda_: int = 12,
    free: AbstractSet[int] | None = None,
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
        genome = mutate(parent.r, p_m, rng, free=free)
        child = GAIndividual(r=genome, p_m=p_m)
        try:
            child.fitness = evaluator(child.r)
        except Exception as exc:
            # A failed evaluation must not kill the search; the child
            # shares the failed fitness, which never wins a comparison.
            child.error = f"{type(exc).__name__}: {exc}"
            child.fitness = _FAILED
        offspring.append(child)
    # The first of several equally good children.
    return min(offspring, key=_key), offspring


def ga_run(
    evaluator: Callable[[ConfigurationVector], FitnessSummary],
    budget: int = 240,
    lambda_: int = 12,
    seed: int = 0,
    free: AbstractSet[int] | None = None,
) -> GARunTrace:
    """Run the (1, lambda) GA for ``budget // lambda`` generations.

    The trace records, per generation, the best structure seen so far
    under the ERT-first ordering together with its ERT and FCE; the
    comma parent itself may be worse than the incumbent. The ordering
    is a strict weak order, so only the generation's best child can
    replace the incumbent, and it does when any child would.
    """
    if budget < lambda_:
        raise ValueError("budget must be at least lambda")
    rng = np.random.default_rng(seed)
    parent = random_individual(rng, free=free)
    generations = budget // lambda_
    trace = GARunTrace()
    incumbent: GAIndividual | None = None
    for gen in range(1, generations + 1):
        parent, offspring = ga_step(
            parent, evaluator, rng, lambda_=lambda_, free=free
        )
        trace.evaluations += lambda_
        for child in offspring:
            if child.error:
                trace.failures += 1
                trace.first_error = trace.first_error or child.error
        if incumbent is None or _key(parent) < _key(incumbent):
            incumbent = parent
        trace.entries.append(
            TraceEntry(
                generation=gen,
                best_config=encode(incumbent.r),
                ert=incumbent.fitness.ert,
                fce=incumbent.fitness.fce,
            )
        )
    return trace
