"""Modular CMA-ES toolkit.

Eleven independently switchable strategy mechanisms span a space of
4608 evolution-strategy structures. The package provides the codec and
catalog for those structures, the configurable ES engine, a
representative fixed-target benchmark suite, ERT/FCE evaluation with
comparison-uncertainty estimates, and a self-adaptive (1, lambda) GA
that searches the structure space.
"""

from .configuration import (
    CATALOG,
    ConfigurationVector,
    decode,
    encode,
    enumerate_all,
    mutate,
)
from .sampling import Sampler, SamplerSpec, gaussian_transform, quasi_uniform
from .core import (
    ENGINE_VERSION,
    RunRecord,
    StrategyParams,
    apply_threshold,
    recombination_weights,
    resolve_interactions,
    run,
)
from .benchmarks import Problem, make_problem, make_suite, suite_manifest
from .evaluation import (
    CachedEvaluator,
    FitnessSummary,
    ResultsCache,
    compare,
    compute_ert,
    run_batch,
    subsample_uncertainty,
    summarize,
    welch_uncertainty,
)
from .metaga import GAIndividual, GARunTrace, ga_run, ga_step, mutate_rate

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "ConfigurationVector",
    "decode",
    "encode",
    "enumerate_all",
    "mutate",
    "Sampler",
    "SamplerSpec",
    "gaussian_transform",
    "quasi_uniform",
    "ENGINE_VERSION",
    "RunRecord",
    "StrategyParams",
    "apply_threshold",
    "recombination_weights",
    "resolve_interactions",
    "run",
    "Problem",
    "make_problem",
    "make_suite",
    "suite_manifest",
    "CachedEvaluator",
    "FitnessSummary",
    "ResultsCache",
    "compare",
    "compute_ert",
    "run_batch",
    "subsample_uncertainty",
    "summarize",
    "welch_uncertainty",
    "GAIndividual",
    "GARunTrace",
    "ga_run",
    "ga_step",
    "mutate_rate",
]
