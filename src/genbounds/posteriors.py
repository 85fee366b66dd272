"""Posterior optimization: Gibbs measures, information complexity, and
Gaussian posteriors on quadratic models.

The central identity, for any posterior p, prior q, and temperature beta > 0:

    E_p[f] + D(p || q) / beta + log E_q[e^{-beta f}] / beta = D(p || p*) / beta

where p* is the Gibbs measure p*(w) proportional to q(w) e^{-beta f(w)}.  The
left side minus its last term is the information complexity of p; the Gibbs
measure is its unique minimizer and the minimum equals the stochastic
complexity -log E_q[e^{-beta f}] / beta.

The learning rules live here too, with the one contract of every exact
check: a rule is an :class:`ErmAlgorithm` or a :class:`GibbsAlgorithm`, read
through its row kernel, or any callable sample -> DiscreteDist, called once
per sample by :func:`_table_posteriors` and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import _PHI_INVERSE, BoundResult, _on_rows, _result
from .divergences import (
    _SHORT_ROW,
    DiscreteDist,
    GaussianKLInputs,
    _check_rows,
    _floored_log,
    _kl_rows,
    kl_discrete,
    kl_gaussian_diag,
    kl_gaussian_spectral,
)
from .errors import (
    ConfigurationError, DegenerateError, DomainError, ParameterError, ShapeError, _is_positive_integer, _require_scale
)
from .losses import _annealed
from .problems import (
    ENUMERATION_BUDGET,
    FiniteProblem,
    _sample_risks,
    annealed_risks,
    empirical_risks,
    tabulate,
    tabulate_types,
)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A Monte Carlo estimate with its standard error."""

    value: float
    std_error: float
    draws: int


def _as_values(q: DiscreteDist, f_values) -> np.ndarray:
    f = np.asarray(f_values, dtype=float)
    if f.ndim != 1 or f.size != q.probs.size:
        raise ShapeError("f_values must be a 1-D vector matching the distribution")
    # A NaN or -inf entry makes the total NaN or -inf; a short row with a
    # larger total passes without a numpy reduction, and any other row,
    # including one whose finite negative total overflows, is read by numpy.
    if f.size <= _SHORT_ROW and sum(f.tolist()) > -math.inf:
        return f
    if not np.minimum.reduce(f, axis=None) > -np.inf:
        raise DomainError("f_values must be > -inf and not NaN (+inf allowed)")
    return f


def _expectation(p: DiscreteDist, f: np.ndarray) -> float:
    """E_p[f] over the support of p, so an entry without mass adds 0 even where f is +inf."""
    return float(p.probs @ np.where(p.probs > 0, f, 0.0))


def gibbs_posterior(q: DiscreteDist, f_values, beta: float) -> DiscreteDist:
    """The Gibbs measure proportional to q(w) e^{-beta f(w)}, max-shifted for stability.

    The prior's log is the one ``q`` keeps, so reusing a prior takes it once.
    """
    return DiscreteDist(_gibbs_rows(q.probs, _as_values(q, f_values), beta, q._log_probs))


def _gibbs_rows(q: np.ndarray, f: np.ndarray, beta: float, log_q: np.ndarray | None = None) -> np.ndarray:
    """The Gibbs weights of each row of float ``f`` against ``q``, one row or one row per row of ``f``.

    ``log_q`` is ``_floored_log(q)``, taken here when not given.  Each row is
    computed as a single vector would be, so a row equals
    :func:`gibbs_posterior` of it to the bit.  The rows are not checked as
    probability vectors; the caller does that.
    """
    if not beta >= 0:
        raise DomainError("beta must be nonnegative")
    if beta == math.inf:
        raise DomainError("beta must be finite")
    if beta == 0:
        return np.array(np.broadcast_to(q, np.broadcast_shapes(q.shape, f.shape)))
    if log_q is None:
        log_q = _floored_log(q)
    # One allocation: -beta f, then the prior's log added in place, which is
    # log_q - beta f to the bit (negation is exact, and x - y is x + (-y)).
    logits = np.multiply(f, -beta)
    logits += log_q
    # On short rows numpy's call overhead outweighs the work, so: the ufuncs'
    # own reductions, in-place steps, and for a single row a scalar peak and
    # a total without keywords, as broadcasting a 1-element array costs more
    # than a scalar.  A short single row takes its peak from Python's max:
    # its callers check f, so its logits hold no NaN, which max would skip.
    # The total stays numpy's, so a single row equals a row of a block to
    # the bit.
    rows = logits.ndim > 1
    if rows or logits.size > _SHORT_ROW:
        peak = np.maximum.reduce(logits, axis=-1, keepdims=rows)
    else:
        peak = max(logits.tolist())
    if -np.inf in (peak.ravel().tolist() if rows else (peak,)):
        raise DegenerateError("all prior mass sits on infinite f values")
    logits -= peak
    weights = np.exp(logits, out=logits)
    if rows:
        weights /= np.add.reduce(weights, axis=-1, keepdims=True)
    else:  # a Python float divides in place at about two thirds of a numpy scalar's cost
        weights /= float(np.add.reduce(weights))
    return weights


def stochastic_complexity(q: DiscreteDist, f_values, beta: float) -> float:
    """-log E_q[e^{-beta f}] / beta by the annealing kernel of ``losses``; a zero-mass entry adds nothing."""
    f = _as_values(q, f_values)
    _require_scale("beta", beta)
    return float(_annealed(f, q.probs, beta))


def information_complexity(p: DiscreteDist, q: DiscreteDist, f_values, beta: float) -> float:
    """E_p[f] + D(p || q) / beta, the regularized objective minimized by the Gibbs measure."""
    f = _as_values(q, f_values)
    _require_scale("beta", beta)  # an infinite D(p || q) / beta would be NaN
    divergence = kl_discrete(p, q)
    return _expectation(p, f) + divergence / beta


def oic(
    q: DiscreteDist, problem: FiniteProblem, sample, beta: float
) -> tuple[DiscreteDist, float]:
    """Minimize the information complexity of the empirical risk over all posteriors.

    Returns the minimizing Gibbs posterior at inverse temperature n * beta and
    the attained value, computed as the information complexity of that
    posterior (so it can be cross-checked against the stochastic complexity,
    which it equals).
    """
    if np.size(sample) != problem.n:
        raise DomainError("sample length must equal the problem's n")
    _require_scale("beta", beta)
    risks = empirical_risks(problem, sample)
    temperature = problem.n * beta
    posterior = gibbs_posterior(q, risks, temperature)
    value = information_complexity(posterior, q, risks, temperature)
    return posterior, value


def dv_identity_residual(p: DiscreteDist, q: DiscreteDist, f_values, beta: float) -> float:
    """Residual of the Gibbs variational identity; zero for all valid inputs.

    Computes D(p || p*) / beta minus
    [E_p[f] + D(p || q) / beta + log E_q[e^{-beta f}] / beta]
    with every term evaluated independently; the last is minus the stochastic complexity.
    """
    f = _as_values(q, f_values)
    _require_scale("beta", beta)
    p_star = gibbs_posterior(q, f, beta)
    lhs = kl_discrete(p, p_star) / beta
    rhs = _expectation(p, f) + kl_discrete(p, q) / beta - float(_annealed(f, q.probs, beta))
    return lhs - rhs


# ---------------------------------------------------------------------------
# Learning rules
# ---------------------------------------------------------------------------


def _uniform_probs(h: int) -> np.ndarray:
    """The probabilities of ``DiscreteDist.uniform(h)``, for the row kernels."""
    return np.full(h, 1.0 / h)


@dataclass(frozen=True)
class ErmAlgorithm:
    """Empirical risk minimization over the finite hypothesis set.

    Ties resolve to the lowest hypothesis index by default (the choice
    affects exact joints); "uniform" spreads the posterior over the argmin
    set instead.
    """

    tie_break: str = "lowest"

    def __post_init__(self) -> None:
        if self.tie_break not in ("lowest", "uniform"):
            raise ConfigurationError("tie_break must be 'lowest' or 'uniform'")

    def posterior(self, problem: FiniteProblem, sample) -> DiscreteDist:
        return DiscreteDist(self._posterior_rows(empirical_risks(problem, sample), None, problem.n))

    def _posterior_rows(self, risks: np.ndarray, base, n: int) -> np.ndarray:
        """The posterior of each row of empirical risks; ``base`` and ``n`` are unused."""
        mask = risks <= risks.min(axis=-1, keepdims=True)
        if self.tie_break == "lowest":
            mask &= mask.cumsum(axis=-1) == 1  # the first index of the argmin set
            return mask.astype(float)
        return mask / mask.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class GibbsAlgorithm:
    """The empirical-risk Gibbs kernel at inverse temperature n * beta_alg.

    This is the information-complexity minimizer at beta_alg relative to the
    uniform distribution on hypotheses.
    """

    beta_alg: float

    def __post_init__(self) -> None:
        _require_scale("beta_alg", self.beta_alg, ConfigurationError)

    def posterior(self, problem: FiniteProblem, sample) -> DiscreteDist:
        uniform = _uniform_probs(problem.num_hypotheses)
        return DiscreteDist(self._posterior_rows(empirical_risks(problem, sample), uniform, problem.n))

    def _posterior_rows(self, risks: np.ndarray, base: np.ndarray, n: int) -> np.ndarray:
        """The Gibbs posterior relative to ``base`` (one row, or one per row) of each row of risks."""
        return _gibbs_rows(base, risks, n * self.beta_alg)


#: The rule every exact check takes: a row-kernel rule, or a callable from a sample to its posterior.
PosteriorRule = ErmAlgorithm | GibbsAlgorithm | Callable[[np.ndarray], DiscreteDist]


def _is_exchangeable(rule) -> bool:
    """True for the rules known to see a sample only through its type.

    A subclass may override ``posterior``, so only the two classes qualify.
    """
    return type(rule) in (ErmAlgorithm, GibbsAlgorithm)


def _table_posteriors(problem: FiniteProblem, rule, samples: np.ndarray, risks: np.ndarray) -> np.ndarray:
    """The posterior of each row of a sample table or of drawn samples, given its samples and risks.

    An :class:`ErmAlgorithm` or a :class:`GibbsAlgorithm` reads the risks through its row kernel against the
    uniform base, each row its ``posterior`` to the bit, on either table; a callable runs once per row.
    """
    if _is_exchangeable(rule):
        probs = rule._posterior_rows(risks, _uniform_probs(problem.num_hypotheses), problem.n)
        _check_rows(probs)
        return probs
    probs = np.array([rule(sample).probs for sample in samples])
    if probs.shape != risks.shape:
        raise ShapeError("a rule's posteriors must have one entry per hypothesis")
    return probs


def _exact_table(problem: FiniteProblem, rule, budget: int = ENUMERATION_BUDGET):
    """(weights, risks, posteriors) of the sample types for an ERM or Gibbs rule, of the sequences otherwise."""
    samples, weights, risks = (tabulate_types if _is_exchangeable(rule) else tabulate)(problem, budget)
    return weights, risks, _table_posteriors(problem, rule, samples, risks)


# ---------------------------------------------------------------------------
# The exponential-moment inequality behind the high-probability bounds
# ---------------------------------------------------------------------------


def _iei_term(
    problem: FiniteProblem,
    probs: np.ndarray,
    q: DiscreteDist,
    beta: float,
    annealed: np.ndarray,
    risks: np.ndarray,
) -> np.ndarray:
    """exp{n beta E_P[annealed - empirical] - D(P || Q)} of each row of posteriors and risks.

    A posterior that puts mass where q has none has D = inf and term 0.
    """
    gap = np.sum(probs * (annealed - risks), axis=1)
    with np.errstate(over="ignore"):
        return np.exp(problem.n * beta * gap - _kl_rows(probs, q.probs))


def iei_exact(
    problem: FiniteProblem,
    posterior_rule: PosteriorRule,
    q: DiscreteDist,
    beta: float,
) -> float:
    """Exhaustively enumerate E_S exp{n beta E_P[annealed - empirical] - D(P || Q)}.

    The exponential-moment inequality states this expectation never exceeds 1,
    for any sample-dependent posterior rule and any fixed prior q.  An
    :class:`ErmAlgorithm` or a :class:`GibbsAlgorithm` runs on the sample
    types and a callable, which may read the order of the sample, on the
    sequences (see :func:`_exact_table`).  A :class:`GibbsAlgorithm` takes
    the uniform base, not q; a Gibbs rule against q is a callable.
    """
    _require_scale("beta", beta)
    if len(q) != problem.num_hypotheses:
        raise ShapeError("q must have one entry per hypothesis")
    annealed = annealed_risks(problem, beta)
    weights, risks, probs = _exact_table(problem, posterior_rule)
    terms = _iei_term(problem, probs, q, beta, annealed, risks)
    positive = weights > 0  # a zero-weight row adds 0 even if its term overflows
    return float(weights[positive] @ terms[positive])


def iei_empirical_check(
    problem: FiniteProblem,
    posterior_rule: PosteriorRule,
    q: DiscreteDist,
    beta: float,
    trials: int,
    seed: int,
) -> MonteCarloEstimate:
    """Monte Carlo estimate of the exponential moment checked by :func:`iei_exact`.

    Takes the rules :func:`iei_exact` takes, :class:`GibbsAlgorithm` again on
    the uniform base, and gives a rule object and its callable form the same
    estimate.  Deterministic given the seed.  The estimate should not exceed
    1 by more than a few standard errors.
    """
    _require_scale("beta", beta)
    if not _is_positive_integer(trials):
        raise DomainError("trials must be a positive integer")
    if len(q) != problem.num_hypotheses:
        raise ShapeError("q must have one entry per hypothesis")
    rng = np.random.default_rng(seed)
    annealed = annealed_risks(problem, beta)
    samples = rng.choice(problem.num_outcomes, size=(trials, problem.n), p=problem.mu.probs)
    risks = _sample_risks(problem, samples)
    probs = _table_posteriors(problem, posterior_rule, samples, risks)
    terms = _iei_term(problem, probs, q, beta, annealed, risks)
    value = float(terms.mean())
    std_error = float(terms.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf
    return MonteCarloEstimate(value=value, std_error=std_error, draws=trials)


# ---------------------------------------------------------------------------
# Gaussian posteriors on quadratic models
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuadraticModel:
    """A quadratic training-loss surface around its minimizer, co-diagonal with the prior.

    ``hessian_eigenvalues`` is the (nonnegative) curvature spectrum; ``w_p``
    and ``w_q`` are the loss minimizer and the prior mean in the eigenbasis;
    the prior is spherical with precision ``lam``.
    """

    hessian_eigenvalues: np.ndarray
    w_p: np.ndarray
    w_q: np.ndarray
    lam: float
    n: int
    beta: float

    def __post_init__(self) -> None:
        h = np.asarray(self.hessian_eigenvalues, dtype=float)
        wp = np.asarray(self.w_p, dtype=float)
        wq = np.asarray(self.w_q, dtype=float)
        if h.ndim != 1 or h.size == 0:
            raise ShapeError("hessian_eigenvalues must be a nonempty 1-D vector")
        if not (wp.shape == wq.shape == h.shape):
            raise ShapeError("w_p and w_q must match the eigenvalue vector length")
        if np.any(h < 0) or not np.all(np.isfinite(h)):
            raise DomainError("Hessian eigenvalues must be nonnegative and finite")
        if not (np.all(np.isfinite(wp)) and np.all(np.isfinite(wq))):
            raise DomainError("w_p and w_q must be finite")
        if not self.lam > 0:
            raise DomainError("lam must be positive")
        if not _is_positive_integer(self.n):
            raise DomainError("n must be a positive integer")
        if not self.beta > 0:
            raise DomainError("beta must be positive")
        if math.inf in (self.lam, self.beta):
            raise DomainError("lam and beta must be finite")
        object.__setattr__(self, "hessian_eigenvalues", h)
        object.__setattr__(self, "w_p", wp)
        object.__setattr__(self, "w_q", wq)

    @property
    def k(self) -> int:
        return self.hessian_eigenvalues.size

    def regularized_spectrum(self) -> np.ndarray:
        """Eigenvalues n beta h_i + lam of the regularized curvature."""
        return self.n * self.beta * self.hessian_eigenvalues + self.lam


def optimal_gaussian_covariance(model: QuadraticModel) -> np.ndarray:
    """Covariance spectrum of the optimal Gaussian posterior: 1 / (n beta h_i + lam)."""
    return 1.0 / model.regularized_spectrum()


def expected_quadratic_loss(model: QuadraticModel, cov_eigenvalues) -> float:
    """E[quadratic loss] under a mean-w_p Gaussian with the given covariance spectrum."""
    s = np.asarray(cov_eigenvalues, dtype=float)
    if s.shape != model.hessian_eigenvalues.shape:
        raise ShapeError("covariance spectrum must match the Hessian spectrum")
    if not np.all(s >= 0):
        raise DomainError("covariance eigenvalues must be nonnegative")
    return 0.5 * float(model.hessian_eigenvalues @ s)


def gaussian_icm_objective(model: QuadraticModel, cov_eigenvalues) -> float:
    """Expected quadratic loss plus the scaled Gaussian KL to the spherical prior.

    The objective whose unique minimizer over covariance spectra is
    :func:`optimal_gaussian_covariance`.
    """
    s = np.asarray(cov_eigenvalues, dtype=float)
    if np.any(s <= 0):
        raise DomainError("covariance eigenvalues must be positive")
    kl = kl_gaussian_diag(
        model.w_p, s, model.w_q, np.full(model.k, 1.0 / model.lam)
    )
    return expected_quadratic_loss(model, s) + kl / (model.n * model.beta)


@_on_rows
def occam_bound(model: QuadraticModel, delta, empirical_risk: float) -> BoundResult:
    """Curvature-aware annealed-risk bound for the optimal Gaussian posterior.

    value = empirical_risk + log(1/delta)/(n beta)
          + [lam ||w_q - w_p||^2 / 2 + sum log(lam_i / lam) / 2] / (n beta),
    where lam_i are the regularized curvature eigenvalues.  The exponential of
    minus the log-ratio sum is reported as the Occam factor: the fraction of
    prior volume consistent with the data.

    ``delta`` is a float or 1-D rows: the same numpy code computes both, and
    each row of a row result equals to the bit what a one-row call gives.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.ndim > 1:
        raise ShapeError("delta must be a float or 1-D rows")
    if not np.logical_and.reduce((0.0 < delta) & (delta <= 1.0), axis=None):
        raise ParameterError("delta must lie in (0, 1]")
    if math.isnan(empirical_risk):
        raise ParameterError("empirical_risk must not be NaN")
    spectrum = model.regularized_spectrum()
    scale = model.n * model.beta
    mean_gap = float(np.sum((model.w_q - model.w_p) ** 2))
    log_ratio_sum = float(np.sum(np.log(spectrum / model.lam)))
    components = {
        "empirical_risk": float(empirical_risk),
        "confidence": np.log(1.0 / delta) / scale,
        "prior_mismatch": model.lam * mean_gap / (2.0 * scale),
        "occam_complexity": log_ratio_sum / (2.0 * scale),
    }
    return _result(
        components,
        beta_used=model.beta,
        extras={"occam_factor": math.exp(-0.5 * log_ratio_sum)},
    )


def occam_spectral_kl(model: QuadraticModel) -> float:
    """Exact Gaussian KL for the optimal posterior of a quadratic model."""
    return kl_gaussian_spectral(
        GaussianKLInputs(
            mean_diff_norm_sq=float(np.sum((model.w_q - model.w_p) ** 2)),
            eigenvalues=model.regularized_spectrum(),
            lam=model.lam,
        )
    )


# ---------------------------------------------------------------------------
# The retraining objective with explicit grid and Monte Carlo costs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PacBayesSgdParams:
    """Inputs of the retraining objective evaluator.

    ``alpha`` prices the inverse-temperature grid, ``b`` and ``c`` the
    resolution and scale of the prior-precision grid, and ``m`` the number of
    posterior draws behind the Monte Carlo risk estimate.  ``kl`` is a float
    or 1-D rows, stored as a Python float or a float64 array.
    """

    n: int
    beta: float
    lam: float
    alpha: float
    b: int
    c: float
    m: int
    delta: float
    delta_prime: float
    mc_empirical_risk: float
    kl: float | np.ndarray

    def __post_init__(self) -> None:
        if not _is_positive_integer(self.n):
            raise ParameterError("n must be a positive integer")
        if not self.beta > 1:
            raise ParameterError("the temperature grid covers beta > 1 only")
        if not self.alpha > 1:
            raise ParameterError("alpha must exceed 1")
        if not _is_positive_integer(self.b):
            raise ParameterError("b must be a positive integer")
        if not 0 < self.c < 1:
            raise ParameterError("c must lie in (0, 1)")
        if not 0 < self.lam < self.c:
            raise ParameterError("lam must lie in (0, c)")
        if not _is_positive_integer(self.m):
            raise ParameterError("m must be a positive integer")
        if not 0 < self.delta < 1 or not 0 < self.delta_prime < 1:
            raise ParameterError("delta and delta_prime must lie in (0, 1)")
        if not 0 <= self.mc_empirical_risk <= 1:
            raise ParameterError("mc_empirical_risk must lie in [0, 1]")
        kl = np.asarray(self.kl, dtype=float)
        if kl.ndim > 1:
            raise ShapeError("kl must be a float or 1-D rows")
        if not np.logical_and.reduce(kl >= 0, axis=None):
            raise ParameterError("kl must be nonnegative (inf allowed)")
        object.__setattr__(self, "kl", kl if kl.ndim else float(kl))


@_on_rows
def pacbayes_sgd_objective(params: PacBayesSgdParams) -> BoundResult:
    """Evaluate the retraining bound with grid and Monte Carlo costs broken out.

    The three cost addends price, respectively, holding the bound uniformly
    over the temperature grid (beta > 1), selecting the prior precision from
    the geometric grid lam = c e^{-j/b}, and replacing the posterior risk by
    an m-draw Monte Carlo estimate.  Rows of kl give a row result, each row
    equal to the bit to what a one-row call gives.
    """
    p = params
    scale = p.n * p.beta
    beta_grid_cost = (2.0 * p.alpha / scale) * math.log(
        math.log(p.alpha**2 * p.beta * p.n) / math.log(p.alpha)
    )
    lambda_grid_cost = (p.alpha / scale) * math.log(
        math.pi**2 * p.b**2 / (6.0 * p.delta) * math.log(p.c / p.lam) ** 2
    )
    mc_cost = math.sqrt(math.log(2.0 / p.delta_prime) / (2.0 * p.m))
    components = {
        "mc_empirical_risk": p.mc_empirical_risk,
        "kl_term": p.alpha * p.kl / scale,
        "beta_grid_cost": beta_grid_cost,
        "lambda_grid_cost": lambda_grid_cost,
        "mc_deviation": mc_cost,
    }
    return _result(components, _PHI_INVERSE, beta_used=p.beta)


# ---------------------------------------------------------------------------
# Local entropy of a quadratic loss surface
# ---------------------------------------------------------------------------


def local_entropy(model: QuadraticModel, gamma: float, w=None) -> float:
    """Gaussian-smoothed free energy of the quadratic loss surface at w.

    Closed form of -log(integral of e^{-beta [loss(w') + gamma/2 ||w - w'||^2]} dw') / beta,
    including the full Gaussian normalization so values are comparable across
    implementations.  At w = w_p the value is
    -sum(log(2 pi / (beta (h_i + gamma)))) / (2 beta); lower values mean a
    flatter surface (more smoothed low-loss volume around w).
    """
    _require_scale("gamma", gamma)
    h = model.hessian_eigenvalues
    beta = model.beta
    base = -0.5 / beta * float(np.sum(np.log(2.0 * math.pi / (beta * (h + gamma)))))
    if w is None:
        return base
    w = np.asarray(w, dtype=float)
    if w.shape != h.shape:
        raise ShapeError("w must match the model dimension")
    if not np.isfinite(w).all():
        raise DomainError("w must be finite")
    d = w - model.w_p
    quad = 0.5 * float(np.sum(gamma * h / (h + gamma) * d * d))
    return base + quad


def local_entropy_mc(
    model: QuadraticModel, gamma: float, draws: int, seed: int, w=None
) -> MonteCarloEstimate:
    """Importance-sampling estimate of :func:`local_entropy` for cross-checking.

    Samples from the Gaussian factor N(w, I / (beta gamma)) and takes the
    annealed loss over the draws by the kernel of ``losses``, so a mean of
    e^{-beta loss} below the smallest float still gives a finite value;
    deterministic given the seed.  Intended for small k.
    """
    _require_scale("gamma", gamma)
    if not _is_positive_integer(draws) or draws < 2:
        raise DomainError("draws must be an integer of at least 2 for a standard error")
    center = model.w_p if w is None else np.asarray(w, dtype=float)
    if center.shape != model.w_p.shape:
        raise ShapeError("w must match the model dimension")
    if not np.isfinite(center).all():
        raise DomainError("w must be finite")
    beta = model.beta
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(beta * gamma)
    points = center[None, :] + scale * rng.standard_normal((draws, model.k))
    sq = (points - model.w_p[None, :]) ** 2
    losses = 0.5 * sq @ model.hessian_eigenvalues
    annealed = float(_annealed(losses, np.ones(draws), beta))
    ratios = np.exp(-beta * (losses - annealed))  # e^{-beta loss} over its mean
    log_z_proposal = 0.5 * model.k * math.log(2.0 * math.pi / (beta * gamma))
    std_error = float(ratios.std(ddof=1)) / (math.sqrt(draws) * beta)
    return MonteCarloEstimate(value=annealed - log_z_proposal / beta, std_error=std_error, draws=draws)
