"""The configurable evolution strategy engine.

One :func:`run` executes a nested loop: an outer restart loop around an
inner generation loop of mutation, evaluation (with optional sequential
early stopping), selection, recombination, and strategy-parameter
adaptation. All eleven switchable mechanisms are driven by a
:class:`~modcmaes.configuration.ConfigurationVector`.

A local run stops on the fixed thresholds below, or after no gain for
ceil(10 + 30 D / lambda) generations. Restart k uses lambda0 * 2**k under
IPOP (lambda0 = 4 + floor(3 ln D)); BIPOP doubles its largest lambda while
large runs have used no more evaluations than small ones, the first run
counting for neither, else it draws lambda0 * (lambda_large/(2 lambda0))**(u*u).

A generation is carried as arrays, one row per offspring: ``Z`` holds
the raw samples (lambda_eff, D) from the sampler, ``Y`` the scaled
steps (row i is ``B @ (d_sqrt * Z[i])``), ``X = mean + sigma * Y`` the
candidate solutions and the float array ``f`` the objective values of
the evaluated prefix of ``X`` (sequential selection may stop early).
The selected parents are an ``(f, Y, X)`` triple of mu rows ranked
best-first; elitism carries that triple into the next selection.

The objective sees blocks of rows, never single points: a generation is
one block, or under sequential selection its first ``seq_cutoff`` rows
and then one row per call; TPA's two probes are one block. Every row
evaluated is charged to the budget. A run that reaches the target pays
for the whole block it was reached in, so ``hit_index <=
evaluations_used < hit_index + block size``; the ERT counts it up to
``hit_index``. :data:`ENGINE_VERSION` names these numerics, and the
results cache stores it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo

from .configuration import ConfigurationVector, decode, encode
from .sampling import Sampler, SamplerSpec

__all__ = [
    "ENGINE_VERSION",
    "StrategyParams",
    "RunRecord",
    "SelectionShortfallError",
    "ZeroMutationError",
    "default_lambda",
    "resolve_interactions",
    "apply_threshold",
    "evaluate_offspring",
    "select",
    "recombination_weights",
    "recombine",
    "adapt",
    "run",
    "ALPHA_TPA",
    "C_ALPHA",
]

# The version of the engine's numerics. Bump it with every change that
# can change a run's record, so that a results cache written by another
# version is refused instead of read as this one's.
ENGINE_VERSION = 3

# Two-point step-size adaptation constants: probe offset factor and
# smoothing rate of the probe signal.
ALPHA_TPA = 0.5
C_ALPHA = 0.3

# Local stop thresholds: cond(C), sigma * sqrt(max eig C) / sigma0, gain.
CONDITION_LIMIT = 1e14
TOL_SIGMA = 1e-12
TOL_IMPROVEMENT = 1e-12


class SelectionShortfallError(RuntimeError):
    """Fewer candidates than parents survived the selection rules."""


class ZeroMutationError(ValueError):
    """A zero-length sample cannot be pushed out to the threshold."""


class _RunOver(Exception):
    """The budget is spent or the target is reached."""


def default_lambda(dimension: int) -> int:
    """Standard offspring count 4 + floor(3 ln D)."""
    return 4 + int(math.floor(3.0 * math.log(dimension)))


def resolve_interactions(
    cfg: ConfigurationVector, lambda_: int, mu: int
) -> tuple[int, int, int, int]:
    """Repair module interactions; returns (lambda, mu, lambda_eff, seq_cutoff).

    Pairwise selection consumes two candidates per surviving parent, so
    it forces lambda >= 2*mu (and an even lambda). Two-point adaptation
    reserves two offspring, shrinking the pool to lambda_eff; when that
    collides with pairwise at lambda == 2*mu, mu shrinks to
    lambda_eff/2. The sequential-selection cutoff is mu, or 2*mu under
    pairwise, which these repairs keep at or below lambda_eff.
    """
    if not 1 <= mu <= lambda_:
        raise ValueError(f"need 1 <= mu <= lambda, got mu={mu} lambda={lambda_}")
    if cfg.pairwise:
        lambda_ = max(lambda_, 2 * mu)
        if lambda_ % 2:
            lambda_ += 1
    lambda_eff = lambda_ - 2 if cfg.tpa else lambda_
    if cfg.pairwise and cfg.tpa and lambda_ == 2 * mu:
        mu = lambda_eff // 2
    seq_cutoff = 2 * mu if cfg.pairwise else mu
    return lambda_, mu, lambda_eff, seq_cutoff


def apply_threshold(z: np.ndarray, threshold: float) -> np.ndarray:
    """Push short sample vectors out across the length threshold.

    ``z`` is one vector (D,) or a stack of rows (n, D). Vectors at least
    ``threshold`` long pass unchanged; shorter ones are mirrored across
    the threshold to length ``2*threshold - |z|``, keeping the direction
    and avoiding a point mass at the threshold.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    if threshold == 0.0:
        return z
    # sqrt of the per-row BLAS dot, the bits of math.sqrt(z @ z)
    norm = np.sqrt(np.matmul(z[..., None, :], z[..., :, None])[..., 0, 0])
    short = ~(norm >= threshold)
    if not short.any():
        return z
    if not norm.all():  # only a short vector can be zero long
        raise ZeroMutationError("cannot scale a zero vector to the threshold")
    return z * np.where(short, (2.0 * threshold - norm) / norm, 1.0)[..., None]


def evaluate_offspring(
    X: np.ndarray,
    objective,
    cutoff: int,
    f_best: float = math.inf,
) -> np.ndarray:
    """Evaluate the rows of ``X`` in blocks, stopping at an improvement.

    ``objective`` takes a block of rows and returns their values. The
    first ``cutoff`` rows are one block (all of ``X`` when ``cutoff >=
    len(X)``), then one row per call until a row evaluated so far
    improves on ``f_best``. Returns the values of the evaluated prefix.
    """
    blocks = [objective(X[:cutoff])]
    for i in range(cutoff, len(X)):
        if (blocks[-1] < f_best).any():
            break
        blocks.append(objective(X[i : i + 1]))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def select(
    f: np.ndarray,
    Y: np.ndarray,
    X: np.ndarray,
    parents: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
    mu: int,
    cfg: ConfigurationVector,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pick the mu parents ``(f, Y, X)`` of the next generation, best first.

    Pairwise selection keeps the better of rows 2i and 2i+1, elitism adds
    the previous ``parents``; ties keep the earlier candidate.
    """
    if cfg.pairwise:
        a = np.arange(0, len(f), 2)
        b = np.minimum(a + 1, len(f) - 1)
        rows = np.where(f.take(b) < f.take(a), b, a)
        f, Y, X = f.take(rows), Y.take(rows, axis=0), X.take(rows, axis=0)
    if cfg.elitist and parents is not None:
        f_par, y_par, x_par = parents
        f = np.concatenate((f, f_par))
        Y = np.concatenate((Y, y_par))
        X = np.concatenate((X, x_par))
    if len(f) < mu:
        raise SelectionShortfallError(
            f"need {mu} parents but only {len(f)} candidates"
        )
    best = f.argsort(kind="stable")[:mu]
    return f.take(best), Y.take(best, axis=0), X.take(best, axis=0)


def recombination_weights(mu: int, option: str) -> np.ndarray:
    """Parent weights: normalized log-rank ("log") or uniform ("equal")."""
    if option == "equal":
        return np.full(mu, 1.0 / mu)
    if option == "log":
        w = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
        return w / w.sum()
    raise ValueError(f"unknown weights option {option!r}")


def recombine(X: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted average of the rows of ``X`` (parents ranked best-first)."""
    return weights @ X


def _symmetrize(C: np.ndarray, triu_mask: np.ndarray) -> np.ndarray:
    """Mirror the upper triangle into the lower; + 0.0 turns -0.0 into +0.0."""
    return np.where(triu_mask, C, C.T) + 0.0


# One errstate for every call: as a decorator it needs no new object a call.
@np.errstate(all="ignore", invalid="raise")
def _eigh(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(C)`` of a float matrix without its Python wrapper.

    Calls the LAPACK gufunc that ``eigh`` wraps, which reads the lower
    triangle and gives ascending eigenvalues with ``eigh``'s bits. The
    gufunc reports non-convergence only as an invalid-value
    floating-point error (with NaN outputs); like ``eigh``, this raises
    ``LinAlgError`` for it, and returns any other NaN result as it is.
    """
    try:
        return _eigh_lo(C, signature="d->dd")
    except FloatingPointError:
        raise np.linalg.LinAlgError("Eigenvalues did not converge") from None


class StrategyParams:
    """All endogenous state of one local ES run.

    Derived constants follow the standard published defaults. Those that
    depend only on D, lambda, mu and the weights are computed once per
    local run, each by the expression the update would evaluate:
    ``csa_coef`` = sqrt(c_sigma (2 - c_sigma) mu_eff), ``pc_coef`` =
    sqrt(c_c (2 - c_c) mu_eff), ``c_c_var`` = c_c (2 - c_c), ``c_keep`` =
    1 - c_1 - c_mu, ``h_sig_bound`` = (1.4 + 2 / (D + 1)) chi_n and
    ``stagnation_window`` = ceil(10 + 30 D / lambda). ``diameter`` scales
    threshold convergence's threshold, recomputed from the budget left.
    """

    def __init__(
        self,
        dimension: int,
        cfg: ConfigurationVector,
        lambda_: int,
        lower: np.ndarray,
        upper: np.ndarray,
        mean: np.ndarray,
        sampler_seed: int,
    ):
        d = dimension
        self.dimension = d
        self.lambda_, self.mu, self.lambda_eff, self.seq_cutoff = (
            resolve_interactions(cfg, lambda_, lambda_ // 2)
        )

        self.weights = recombination_weights(self.mu, cfg.weights_option)
        self.weight_col = self.weights[:, None]  # broadcasts over rows
        self.mu_eff = 1.0 / float(self.weights @ self.weights)

        m = self.mu_eff
        self.c_sigma = (m + 2.0) / (d + m + 5.0)
        self.d_sigma = (
            1.0 + 2.0 * max(0.0, math.sqrt((m - 1.0) / (d + 1.0)) - 1.0)
            + self.c_sigma
        )
        self.c_c = (4.0 + m / d) / (d + 4.0 + 2.0 * m / d)
        self.c_1 = 2.0 / ((d + 1.3) ** 2 + m)
        self.c_mu = min(
            1.0 - self.c_1, 2.0 * (m - 2.0 + 1.0 / m) / ((d + 2.0) ** 2 + m)
        )
        self.beta_active = (4.0 * m - 2.0) / ((d + 12.0) ** 2 + 4.0 * m)
        self.chi_n = math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d * d))
        self.csa_coef = math.sqrt(self.c_sigma * (2.0 - self.c_sigma) * m)
        self.pc_coef = math.sqrt(self.c_c * (2.0 - self.c_c) * m)
        self.c_c_var = self.c_c * (2.0 - self.c_c)
        self.c_keep = 1.0 - self.c_1 - self.c_mu
        self.h_sig_bound = (1.4 + 2.0 / (d + 1.0)) * self.chi_n
        self.stagnation_window = math.ceil(10 + 30.0 * d / self.lambda_)

        span = np.asarray(upper, dtype=float) - np.asarray(lower, dtype=float)
        self.sigma0 = 0.2 * float(span[0])
        self.sigma = self.sigma0
        self.mean = np.array(mean, dtype=float)

        self.C = np.eye(d)
        self.B = np.eye(d)
        self.eig_min = self.eig_max = 1.0
        self.d_sqrt = np.ones(d)
        self.inv_root_C = None if cfg.tpa else np.eye(d)  # read by CSA only
        self.p_sigma = np.zeros(d)
        self.p_c = np.zeros(d)
        self.tpa_state = 0.0
        self.t = 0
        self.repair_count = 0
        self.parents: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self.triu_mask = np.triu(np.ones((d, d), dtype=bool))

        self.diameter = float(np.linalg.norm(span))

        self.sampler = Sampler(
            SamplerSpec(
                base=cfg.base_sampler,
                mirrored=cfg.mirrored,
                orthogonal=cfg.orthogonal,
                dimension=d,
                seed=sampler_seed,
            ),
            self.lambda_eff,
        )

        # Local-run stop bookkeeping.
        self.best_f = math.inf
        self.last_improvement_gen = 0

    def decompose(self) -> None:
        """Refresh the eigendecomposition of C, repairing if needed."""
        if not np.isfinite(self.C).all():
            self.C = np.eye(self.dimension)
            self.p_c = np.zeros(self.dimension)
            self.repair_count += 1
        if not (1e-32 < self.sigma < 1e32) or not np.isfinite(self.mean).all():
            self.sigma = self.sigma0
            self.C = np.eye(self.dimension)
            self.p_c = np.zeros(self.dimension)
            self.p_sigma = np.zeros(self.dimension)
            self.mean = np.where(np.isfinite(self.mean), self.mean, 0.0)
            self.repair_count += 1
        vals, vecs = _eigh(self.C)
        if vals[0] <= 0.0:
            floor = max(vals[-1] * 1e-14, 1e-30)
            vals = np.maximum(vals, floor)
            self.C = _symmetrize((vecs * vals) @ vecs.T, self.triu_mask)
            self.repair_count += 1
        self.eig_min = float(vals[0])
        self.eig_max = float(vals[-1])
        self.d_sqrt = np.sqrt(vals)
        self.B = vecs
        if self.inv_root_C is not None:
            self.inv_root_C = (vecs / self.d_sqrt) @ vecs.T


def adapt(
    params: StrategyParams,
    selected_y: np.ndarray,
    evaluated_y: np.ndarray,
    evaluated_f: np.ndarray,
    cfg: ConfigurationVector,
    dm: np.ndarray,
    tpa_sign: int = 0,
) -> None:
    """One generation of strategy-parameter adaptation, in place, with
    ``dm`` the generation's mean step, the new mean less the old over sigma.

    Updates the evolution paths, the step size (cumulative adaptation
    or the two-point probe signal), and the covariance matrix (rank-one
    plus rank-mu over the rows of ``selected_y``, ranked best-first,
    optionally with the negative update built from the rows of
    ``evaluated_y`` with the worst ``evaluated_f``).
    """
    p = params
    if not cfg.tpa:
        p.p_sigma = (1.0 - p.c_sigma) * p.p_sigma + p.csa_coef * (
            p.inv_root_C @ dm
        )
    ps_norm = math.sqrt(p.p_sigma @ p.p_sigma)
    if cfg.tpa:
        p.tpa_state = (1.0 - C_ALPHA) * p.tpa_state + C_ALPHA * tpa_sign
        p.sigma *= math.exp(p.tpa_state / p.d_sigma)
    else:
        arg = (p.c_sigma / p.d_sigma) * (ps_norm / p.chi_n - 1.0)
        # A single-generation factor beyond e^20 only occurs in runs
        # already degenerate; clip instead of overflowing.
        p.sigma *= math.exp(min(max(arg, -20.0), 20.0))

    h_sig = float(
        ps_norm / math.sqrt(1.0 - (1.0 - p.c_sigma) ** (2.0 * (p.t + 1)))
        < p.h_sig_bound
    )
    p.p_c = (1.0 - p.c_c) * p.p_c + h_sig * p.pc_coef * dm

    w = p.weight_col[: len(selected_y)]
    rank_mu = (w * selected_y).T @ selected_y
    # h_sig is 0.0 or 1.0, so (1 - h_sig) * c_c_var has the bits of
    # (1 - h_sig) * c_c * (2 - c_c).
    dhs = (1.0 - h_sig) * p.c_c_var
    p.C = (
        (p.c_keep + p.c_1 * dhs) * p.C
        + p.c_1 * np.multiply.outer(p.p_c, p.p_c)
        + p.c_mu * rank_mu
    )

    if cfg.active and len(evaluated_f):
        yw = evaluated_y[np.argsort(-evaluated_f, kind="stable")[: p.mu]]
        ww = p.weight_col[: len(yw)]
        p.C -= p.beta_active * ((ww * yw).T @ yw)

    p.C = _symmetrize(p.C, p.triu_mask)
    p.t += 1
    p.decompose()


@dataclass
class RunRecord:
    """Outcome of one seeded ES run on one problem."""

    config: str
    function_id: str
    dimension: int
    seed: int
    evaluations_used: int
    best_error: float
    hit_index: int | None
    trajectory: np.ndarray | None = None
    generation_best_f: list[float] | None = None
    restarts: int = 0

    @property
    def success(self) -> bool:
        return self.hit_index is not None


class _Accountant:
    """Budgeted objective wrapper; the only path to the test function.

    A call evaluates a block of rows (n, D) in one ``problem.error`` call
    and charges every row it evaluates: at most the budget left, so a
    block cut by the budget ends the run after it is charged. The first
    row whose best-so-far reaches the target is ``hit_index`` (1-based),
    and the run ends after that block, so ``hit_index <= used <
    hit_index + n``.
    """

    def __init__(self, problem, budget: int, target: float, record: bool):
        self.problem = problem
        self.budget = budget
        self.target = target
        self.used = 0
        self.best_error = math.inf
        self.hit_index: int | None = None
        self.trajectory: list[np.ndarray] | None = [] if record else None

    def __call__(self, X: np.ndarray) -> np.ndarray:
        room = self.budget - self.used
        if room <= 0:
            raise _RunOver
        cut = room < len(X)
        err = self.problem.error(X[:room] if cut else X)
        best = np.minimum(err, self.best_error)
        if len(best) > 1:  # the running minimum of one row is that row
            best = np.minimum.accumulate(best)
        last = float(best[-1])
        if not last > -math.inf:  # a NaN or -inf row counts as +inf
            err = np.where(np.isfinite(err), err, math.inf)
            best = np.minimum.accumulate(np.minimum(err, self.best_error))
            last = float(best[-1])
        start = self.used
        self.used += len(err)
        self.best_error = last
        if self.trajectory is not None:
            self.trajectory.append(best)
        if last <= self.target:
            self.hit_index = start + 1 + int(np.argmax(best <= self.target))
            raise _RunOver
        if cut:
            raise _RunOver
        return err


def _local_stop(params: StrategyParams, gen_best: float) -> str | None:
    """Check the local restart criteria after a completed generation."""
    p = params
    if gen_best < p.best_f:
        if gen_best < p.best_f - TOL_IMPROVEMENT:
            p.last_improvement_gen = p.t
        p.best_f = gen_best
    if p.t - p.last_improvement_gen >= p.stagnation_window:
        return "stagnation"
    if p.eig_max / max(p.eig_min, 1e-300) > CONDITION_LIMIT:
        return "condition"
    if p.sigma * math.sqrt(p.eig_max) < TOL_SIGMA * p.sigma0:
        return "tol_sigma"
    axis = p.t % p.dimension
    probe = 0.1 * p.sigma * p.d_sqrt[axis] * p.B[:, axis]
    if np.logical_and.reduce(p.mean + probe == p.mean):
        return "no_effect_axis"
    coord = 0.2 * p.sigma * np.sqrt(p.C.diagonal())
    if np.logical_or.reduce(p.mean + coord == p.mean):
        return "no_effect_coord"
    return None


def _run_local(
    cfg: ConfigurationVector,
    params: StrategyParams,
    acct: _Accountant,
    generation_best: list[float] | None,
) -> str:
    """Inner generation loop; returns the local stop criterion that fired."""
    while True:
        Z = params.sampler.next_batch()
        if cfg.threshold:
            remaining = max(acct.budget - acct.used, 0) / acct.budget
            Z = apply_threshold(Z, 0.2 * params.diameter * remaining**0.995)
        # A stacked matrix-vector product: the same bits as B @ (d * z)
        # row by row, which (Z * d) @ B.T is not.
        Y = np.matmul(params.B, (Z * params.d_sqrt)[:, :, None])[:, :, 0]
        X = params.mean + params.sigma * Y

        cutoff = params.seq_cutoff if cfg.sequential else len(X)
        f = evaluate_offspring(X, acct, cutoff, acct.best_error)
        if len(f) < len(X):  # sequential selection cut the generation
            Y, X = Y[: len(f)], X[: len(f)]
        params.parents = select(f, Y, X, params.parents, params.mu, cfg)
        f_par, y_par, x_par = params.parents

        new_mean = recombine(x_par, params.weights)
        dm = (new_mean - params.mean) / params.sigma

        tpa_sign = 0
        if cfg.tpa:
            probe = params.sigma * ALPHA_TPA * dm
            f_plus, f_minus = acct(np.stack((new_mean + probe, new_mean - probe)))
            if f_plus < f_minus:
                tpa_sign = 1
            elif f_minus < f_plus:
                tpa_sign = -1

        params.mean = new_mean
        adapt(params, y_par, Y, f, cfg, dm, tpa_sign)

        if generation_best is not None:
            generation_best.append(float(f_par[0]))

        reason = _local_stop(params, float(f.min()))
        if reason is not None:
            return reason


def run(
    cfg: ConfigurationVector | str,
    problem,
    budget: int,
    seed: int,
    record_trajectory: bool = False,
    record_generations: bool = False,
) -> RunRecord:
    """Execute one seeded ES run under a fixed evaluation budget.

    It stops at ``problem.target_precision``, at the budget, or (without
    a restart regime) when a local stop criterion fires. Of ``problem`` it
    reads ``dimension``, ``lower``, ``upper``, ``target_precision``,
    ``function_id`` and ``error``. Identical arguments give one record.
    """
    if isinstance(cfg, str):
        cfg = decode(cfg)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    d = problem.dimension
    rng = np.random.default_rng(seed)
    acct = _Accountant(problem, budget, problem.target_precision,
                       record_trajectory)
    generation_best: list[float] | None = [] if record_generations else None

    lam0 = default_lambda(d)
    # BIPOP: the largest lambda, evaluations spent in large and small runs.
    lam_large, used_large, used_small = lam0, 0, 0
    starts = 0
    try:
        while True:
            small = False
            if starts == 0 or cfg.restart_regime == "ipop":
                lam = lam0 * 2**starts
            elif used_large <= used_small:
                lam_large *= 2
                lam = lam_large
            else:
                small = True
                u = rng.uniform()
                lam = max(lam0, int(lam0 * (lam_large / (2.0 * lam0)) ** (u * u)))
            # A population larger than the remaining budget cannot
            # finish a generation; cap it so schedules never balloon.
            lam = max(4, min(lam, budget - acct.used + 2))
            used_before = acct.used
            params = StrategyParams(
                dimension=d,
                cfg=cfg,
                lambda_=lam,
                lower=problem.lower,
                upper=problem.upper,
                mean=rng.uniform(problem.lower, problem.upper),
                sampler_seed=int(rng.integers(2**63)),
            )
            # Counted before the local run, which may end the whole run.
            starts += 1
            _run_local(cfg, params, acct, generation_best)
            if cfg.restart_regime == "none":
                break
            if small:
                used_small += acct.used - used_before
            elif starts > 1:
                used_large += acct.used - used_before
    except _RunOver:
        pass

    return RunRecord(
        config=encode(cfg),
        function_id=problem.function_id,
        dimension=d,
        seed=seed,
        evaluations_used=acct.used,
        best_error=acct.best_error,
        hit_index=acct.hit_index,
        trajectory=(
            np.concatenate(acct.trajectory)
            if acct.trajectory is not None else None
        ),
        generation_best_f=generation_best,
        restarts=starts - 1,
    )
