"""Statistical certification of the high-probability bounds on finite problems.

Each experiment draws training samples, runs a learning rule, evaluates a
pre-registered bound against the exactly computed comparison quantity, and
reports the violation rate together with a Clopper-Pearson upper confidence
bound on it.  One trial pipeline serves every bound; the bound table's
``trial`` field picks how it draws (a sample or a supersample) and which
prior it measures the posterior against (the fixed one or the private one).
Per-trial randomness comes from counter-based streams derived from
(seed, trial index), so results do not depend on execution order and
parallel or serial runs agree bit-exactly.  The learning rules see a sample
only through its type (its count vector), so within one run the trials that
draw the same type share one evaluation of the posterior, the bound and the
truth; a report still depends only on (seed, trial index), and replaying one
trial runs the same code on that trial alone.

The exact checks read a sample table: one row per type from
:func:`~genbounds.problems.tabulate_types`, or one row per sequence from
:func:`~genbounds.problems.tabulate`.  The expectation-bound check runs on
types when the rule is an :class:`ErmAlgorithm` or a
:class:`GibbsAlgorithm`, since then W is independent of S given the type and
I(S;W), the averaged KL and the expected gap do not change; any other rule
runs on sequences.  The privacy audit always runs on types (the mechanism
sees the sample through its empirical risks), where a neighbour moves one
count from outcome a to outcome b.  :func:`enumerate_joint` and the
supersample check run on sequences: a supersample is a pair of rows.

All bound parameters (beta, delta, the prior) are fixed in the trial
configuration before any sample is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaincinv

from .bounds import BoundRequest, xu_raginsky, zhang_gen_expectation
from .divergences import (
    DiscreteDist,
    JointTable,
    conditional_kl,
    conditional_mutual_info,
    golden_formula_residual,
    kl_discrete,
    mutual_info,
)
from .errors import ConfigurationError, DomainError
from .losses import LossModel
from .posteriors import gibbs_posterior
from .problems import (
    ENUMERATION_BUDGET,
    FiniteProblem,
    _check_budget,
    _type_neighbors,
    annealed_risks,
    empirical_risks,
    tabulate,
    tabulate_types,
    true_risks,
)
from .registry import BOUNDS, BoundEntry


# ---------------------------------------------------------------------------
# Learning rules
# ---------------------------------------------------------------------------


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
        risks = empirical_risks(problem, sample)
        mask = risks <= risks.min()
        weights = np.zeros(problem.num_hypotheses)
        if self.tie_break == "lowest":
            weights[int(np.argmax(mask))] = 1.0
        else:
            weights[mask] = 1.0 / mask.sum()
        return DiscreteDist(weights)


@dataclass(frozen=True)
class GibbsAlgorithm:
    """The empirical-risk Gibbs kernel at inverse temperature n * beta_alg.

    This is the information-complexity minimizer at beta_alg relative to the
    base distribution (uniform when not given).
    """

    beta_alg: float
    base: DiscreteDist | None = None

    def __post_init__(self) -> None:
        if not self.beta_alg > 0:
            raise ConfigurationError("beta_alg must be positive")

    def posterior(self, problem: FiniteProblem, sample) -> DiscreteDist:
        base = self.base if self.base is not None else DiscreteDist.uniform(problem.num_hypotheses)
        return gibbs_posterior(base, empirical_risks(problem, sample), problem.n * self.beta_alg)


def _is_exchangeable(algorithm) -> bool:
    """True for the rules known to see a sample only through its type.

    A subclass may override ``posterior``, so only the two classes qualify.
    """
    return type(algorithm) in (ErmAlgorithm, GibbsAlgorithm)


# ---------------------------------------------------------------------------
# Configuration and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundSpec:
    """A named bound with the parameters it was registered with before the draw."""

    name: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TrialConfig:
    seed: int
    trials: int
    problem: FiniteProblem
    algorithm: ErmAlgorithm | GibbsAlgorithm
    bound: BoundSpec
    delta: float
    prior: DiscreteDist | None = None
    #: Added to every bound value before comparison; a sabotage control for
    #: the harness itself, leave at 0 for real certifications.
    bound_offset: float = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer; got {self.seed!r}")
        if isinstance(self.trials, bool) or not isinstance(self.trials, (int, np.integer)) or self.trials < 1:
            raise ConfigurationError(f"trials must be a positive integer; got {self.trials!r}")
        if not _is_exchangeable(self.algorithm):
            # Trials of one sample type share an evaluation, which is only
            # right for rules that see the sample through its type.
            raise ConfigurationError(
                "the algorithm must be an ErmAlgorithm or a GibbsAlgorithm; "
                f"got {type(self.algorithm).__name__}"
            )
        if not 0 < self.delta <= 1:
            raise ConfigurationError("delta must lie in (0, 1]")
        if self.prior is not None and len(self.prior) != self.problem.num_hypotheses:
            raise ConfigurationError("prior must match the hypothesis count")


@dataclass(frozen=True)
class ViolationReport:
    trials: int
    violations: int
    rate: float
    clopper_pearson_upper_95: float
    bound_mean: float
    true_quantity_mean: float

    def certified(self, delta: float) -> bool:
        """True when the 95% upper confidence bound on the rate is within delta."""
        return self.clopper_pearson_upper_95 <= delta


@dataclass(frozen=True)
class SupersampleDraw:
    """An n x 2 supersample and the selector bits picking the training column."""

    z_tilde: np.ndarray
    u: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.z_tilde, dtype=int)
        u = np.asarray(self.u, dtype=int)
        if z.ndim != 2 or z.shape[1] != 2:
            raise DomainError("z_tilde must be an n x 2 index array")
        if u.shape != (z.shape[0],) or np.any((u != 0) & (u != 1)):
            raise DomainError("u must be one bit per supersample row")
        object.__setattr__(self, "z_tilde", z)
        object.__setattr__(self, "u", u)

    @property
    def training_sample(self) -> np.ndarray:
        return self.z_tilde[np.arange(len(self.u)), self.u]

    @property
    def ghost_sample(self) -> np.ndarray:
        return self.z_tilde[np.arange(len(self.u)), 1 - self.u]


def clopper_pearson_upper(violations: int, trials: int, confidence: float = 0.95) -> float:
    """One-sided Clopper-Pearson upper confidence bound on a binomial rate."""
    if trials < 1 or not 0 <= violations <= trials:
        raise DomainError("need 0 <= violations <= trials with trials >= 1")
    if violations == trials:
        return 1.0
    return float(betaincinv(violations + 1, trials - violations, confidence))


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def _draw(rng: np.random.Generator, mu: np.ndarray, size) -> np.ndarray:
    """``rng.choice(len(mu), size, p=mu)`` without its argument checks.

    The inverse-CDF draw ``choice`` runs inside: the same indices, the same
    stream position afterwards.
    """
    cdf = mu.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


# ---------------------------------------------------------------------------
# Exact enumeration: joints and expectation bounds
# ---------------------------------------------------------------------------


def _joint_and_risks(
    problem: FiniteProblem, algorithm, budget: int, table=tabulate
) -> tuple[JointTable, np.ndarray]:
    """The exact joint over (table row, hypothesis) and each row's empirical risks."""
    _, weights, risks, probs = table(problem, lambda s: algorithm.posterior(problem, s), budget)
    return JointTable.from_weights(weights[:, None] * probs), risks


def enumerate_joint(
    problem: FiniteProblem,
    algorithm,
    budget: int = ENUMERATION_BUDGET,
) -> JointTable:
    """Exact joint p(s, w) = mu^n(s) P(w | s) over all samples and hypotheses."""
    return _joint_and_risks(problem, algorithm, budget)[0]


@dataclass(frozen=True)
class ExpectationBoundReport:
    mutual_information: float
    expected_gap: float
    mi_gap_bound: float
    prior_gap_bound: float
    golden_residual: float

    @property
    def mi_bound_holds(self) -> bool:
        return self.expected_gap <= self.mi_gap_bound + 1e-12

    @property
    def prior_bound_holds(self) -> bool:
        return self.expected_gap <= self.prior_gap_bound + 1e-12


def verify_expectation_bounds(
    problem: FiniteProblem,
    algorithm,
    prior: DiscreteDist | None = None,
    model: LossModel | None = None,
    budget: int = ENUMERATION_BUDGET,
) -> ExpectationBoundReport:
    """Exactly evaluate the expected generalization gap and its information bounds.

    From the enumerated joint: the expected gap E[true - empirical risk], the
    mutual information route (sub-Gaussian scale 1/2 for [0, 1] losses), and
    the averaged-KL route for an arbitrary fixed prior.  The golden-formula
    residual ties the two complexity measures together.  The joint is over
    sample types for an :class:`ErmAlgorithm` or a :class:`GibbsAlgorithm`
    and over sequences for any other rule.
    """
    if model is None:
        model = LossModel.bounded_unit()
    if model.is_unit_range and not problem.has_unit_losses:
        raise ConfigurationError("a [0, 1] loss model requires losses in [0, 1]")
    q = prior if prior is not None else DiscreteDist.uniform(problem.num_hypotheses)

    table = tabulate_types if _is_exchangeable(algorithm) else tabulate
    joint, risks = _joint_and_risks(problem, algorithm, budget, table)
    info = mutual_info(joint)
    avg_kl = conditional_kl(joint, q)
    return ExpectationBoundReport(
        mutual_information=info,
        expected_gap=float(np.sum(joint.probs * (true_risks(problem) - risks))),
        mi_gap_bound=xu_raginsky(info, problem.n, 0.5),
        prior_gap_bound=zhang_gen_expectation(avg_kl, problem.n, model),
        golden_residual=golden_formula_residual(joint, q),
    )


# ---------------------------------------------------------------------------
# Violation-rate certification of the high-probability bounds
# ---------------------------------------------------------------------------

def _registered(config: TrialConfig, trial: str) -> BoundEntry:
    """The configured bound's table entry, checked against the trial and the losses."""
    name = config.bound.name
    entry = BOUNDS.get(name)
    if entry is None or entry.trial != trial:
        supported = ", ".join(key for key, e in BOUNDS.items() if e.trial == trial)
        raise ConfigurationError(
            f"bound {name!r} is not certified by the {trial} trial; supported: {supported}"
        )
    if entry.losses == "binary" and not config.problem.has_binary_losses:
        raise ConfigurationError(f"bound {name!r} is stated for {{0, 1}}-valued losses")
    if entry.losses == "unit" and not config.problem.has_unit_losses:
        raise ConfigurationError(f"bound {name!r} requires losses in [0, 1]")
    return entry


def _bound_model(problem: FiniteProblem) -> LossModel:
    if problem.has_binary_losses:
        return LossModel.bernoulli()
    if problem.has_unit_losses:
        return LossModel.bounded_unit()
    return LossModel.sub_gaussian(1.0)


def _trials(config: TrialConfig, kind: str, trials, *params) -> list[tuple[float, float]]:
    """Certification trials; returns each one's (bound value, exact quantity it must dominate).

    ``kind`` is the bound table's trial: ``plain`` and ``private-prior`` draw
    a sample, ``supersample`` draws a supersample and trains on its selected
    column.  ``private-prior`` measures the posterior against
    :func:`dp_prior_mechanism` at ``params`` (epsilon), the others against the
    configured prior.  Each trial is deterministic in (config.seed, trial)
    alone.  The learning rules are exchangeable, so everything but the ghost
    risks of a supersample is a function of the training sample's type: it is
    computed on the first trial of each type and reused by the others.
    """
    entry = _registered(config, kind)
    problem = config.problem
    k, n = problem.num_outcomes, problem.n
    model = _bound_model(problem)
    if config.prior is not None:
        fixed_prior = config.prior
    else:
        fixed_prior = DiscreteDist.uniform(problem.num_hypotheses)
    truth_risks = None  # after the first bound, so a missing beta raises the bound's error
    rows = np.arange(n)
    by_type: dict[bytes, tuple] = {}
    pairs = []
    for trial in trials:
        rng = _trial_rng(config.seed, trial)
        if kind == "supersample":
            z_tilde, u = _draw_supersample(problem, rng)
            sample, ghost = z_tilde[rows, u], z_tilde[rows, 1 - u]
        else:
            sample = _draw(rng, problem.mu.probs, n)
        counts = np.bincount(sample, minlength=k)
        key = counts.tobytes()
        if key not in by_type:
            risks = problem.losses @ counts / n
            if kind == "private-prior":
                prior = dp_prior_mechanism(problem, sample, *params)
            else:
                prior = fixed_prior
            if kind == "private-prior" and isinstance(config.algorithm, GibbsAlgorithm):
                # The learner runs relative to the private prior so the divergence
                # term states how far the data pulled it from there.
                posterior = gibbs_posterior(prior, risks, n * config.algorithm.beta_alg)
            else:
                posterior = config.algorithm.posterior(problem, sample)
            request = BoundRequest(
                n=n,
                delta=config.delta,
                empirical_risk=float(posterior.probs @ risks),
                kl=kl_discrete(posterior, prior),
                beta=config.bound.params.get("beta"),
                model=model,
            )
            bound = entry.request(request, *params).value + config.bound_offset
            truth = None
            if entry.truth != "gap":
                if truth_risks is None:
                    annealed = entry.truth == "annealed"
                    truth_risks = annealed_risks(problem, request.beta) if annealed else true_risks(problem)
                truth = float(posterior.probs @ truth_risks)
            by_type[key] = (risks, posterior, bound, truth)
        risks, posterior, bound, truth = by_type[key]
        if truth is None:  # the gap to the ghost sample, which the type leaves open
            ghost_risks = problem.losses @ np.bincount(ghost, minlength=k) / n
            truth = float(posterior.probs @ (ghost_risks - risks))
        pairs.append((bound, truth))
    return pairs


def violation_trial(config: TrialConfig, trial: int) -> tuple[float, float]:
    """One trial of the plain certification; returns (bound value, exact true quantity)."""
    return _trials(config, "plain", [trial])[0]


def _summarize(pairs: list[tuple[float, float]]) -> ViolationReport:
    bounds = np.array([p[0] for p in pairs])
    truths = np.array([p[1] for p in pairs])
    violations = int(np.sum(truths > bounds))
    trials = len(pairs)
    return ViolationReport(
        trials=trials,
        violations=violations,
        rate=violations / trials,
        clopper_pearson_upper_95=clopper_pearson_upper(violations, trials),
        bound_mean=float(bounds.mean()),
        true_quantity_mean=float(truths.mean()),
    )


def run_violation_experiment(config: TrialConfig) -> ViolationReport:
    """Certify a high-probability bound by repeated sampling.

    Per trial: draw a fresh training sample, form the posterior, evaluate the
    pre-registered bound, and compare with the exactly computed quantity it
    bounds (annealed risk for the annealed-risk bound, true risk otherwise).
    """
    return _summarize(_trials(config, "plain", range(config.trials)))


# ---------------------------------------------------------------------------
# Supersample experiments
# ---------------------------------------------------------------------------


def _draw_supersample(problem: FiniteProblem, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """An n x 2 supersample and n selector bits, in this order from ``rng``."""
    z_tilde = _draw(rng, problem.mu.probs, (problem.n, 2))
    return z_tilde, rng.integers(0, 2, size=problem.n)


def draw_supersample(problem: FiniteProblem, rng: np.random.Generator) -> SupersampleDraw:
    z_tilde, u = _draw_supersample(problem, rng)
    return SupersampleDraw(z_tilde=z_tilde, u=u)


def cmi_trial(config: TrialConfig, trial: int) -> tuple[float, float]:
    """One supersample trial; returns (bound value, exact posterior-mean gap)."""
    return _trials(config, "supersample", [trial])[0]


def run_cmi_experiment(config: TrialConfig) -> ViolationReport:
    """Certify the high-probability supersample gap bound."""
    return _summarize(_trials(config, "supersample", range(config.trials)))


def cmi_exact_quantities(
    problem: FiniteProblem,
    algorithm,
    budget: int = ENUMERATION_BUDGET,
) -> tuple[float, float]:
    """Exhaustively compute (conditional mutual information, expected gap).

    Builds the full joint over (supersample, selector, hypothesis) and
    evaluates both the selector information I(W; U | supersample) and the
    exact expected gap E[ghost risk - training risk].  A supersample is a
    pair (a, b) of sample-table rows, its first and second column, with
    weight w_a w_b; selector bit u_i takes training coordinate i from b when
    set and from a otherwise, and the ghost coordinate from the other row.
    """
    k, n, h = problem.num_outcomes, problem.n, problem.num_hypotheses
    _check_budget("a supersample joint of {} entries", lambda m: k ** (2 * m) * 2**m * h, n, budget)
    samples, weights, risks, probs = tabulate(
        problem, lambda s: algorithm.posterior(problem, s), budget
    )
    place = k ** np.arange(n - 1, -1, -1)
    selectors = ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(bool)
    first, second = samples[:, None, None, :], samples[None, :, None, :]
    train = np.where(selectors, second, first) @ place
    ghost = np.where(selectors, first, second) @ place
    pair_weights = np.multiply.outer(weights, weights) / 2**n
    joint = pair_weights[:, :, None, None] * probs[train]
    expected_gap = float(np.sum(joint * (risks[ghost] - risks[train])))
    joint = joint.reshape(-1, 2**n, h)
    return conditional_mutual_info(joint / joint.sum()), expected_gap


# ---------------------------------------------------------------------------
# Differentially private data-dependent priors
# ---------------------------------------------------------------------------


def dp_prior_mechanism(problem: FiniteProblem, sample, epsilon: float) -> DiscreteDist:
    """Exponential-mechanism prior over hypotheses with score -empirical risk.

    For losses in [0, 1] the empirical risk has sensitivity 1/n, so the Gibbs
    weight exp(-(n epsilon / 2) empirical_risk) is epsilon-differentially
    private.
    """
    if not problem.has_unit_losses:
        raise ConfigurationError("the sensitivity argument requires losses in [0, 1]")
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    base = DiscreteDist.uniform(problem.num_hypotheses)
    return gibbs_posterior(base, empirical_risks(problem, sample), problem.n * epsilon / 2.0)


def dp_mechanism_max_log_ratio(
    problem: FiniteProblem, epsilon: float, budget: int = ENUMERATION_BUDGET
) -> float:
    """Exhaustive privacy audit of the prior mechanism over all neighbor pairs.

    Returns the largest absolute log-probability ratio between priors on
    samples differing in one coordinate; at most epsilon when the mechanism
    is correctly calibrated.  A hypothesis that only one of the two priors
    gives probability 0 has an infinite ratio, one that both give 0 has
    ratio 0.  The mechanism sees a sample through its type, so the audit
    runs over the type table and its neighbouring rows.
    """
    samples, _, _, priors = tabulate_types(
        problem, lambda s: dp_prior_mechanism(problem, s, epsilon), budget
    )
    rows, neighbors = _type_neighbors(problem, samples)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_priors = np.log(priors)
        ratios = np.abs(log_priors[rows] - log_priors[neighbors])
    return float(np.nanmax(ratios, initial=0.0))


def dp_prior_trial(config: TrialConfig, trial: int, epsilon: float) -> tuple[float, float]:
    """One trial of the private-prior certification; returns (bound, annealed risk)."""
    return _trials(config, "private-prior", [trial], epsilon)[0]


def run_dp_prior_experiment(config: TrialConfig, epsilon: float) -> ViolationReport:
    """Certify the annealed-risk bound against the exponential-mechanism prior."""
    if not epsilon > 0:
        raise ConfigurationError("epsilon must be positive")
    return _summarize(_trials(config, "private-prior", range(config.trials), epsilon))


# ---------------------------------------------------------------------------
# The union-bound grid
# ---------------------------------------------------------------------------


def union_beta_grid(n: int, alpha: float, v: float, sigma: float) -> np.ndarray:
    """The geometric inverse-temperature grid underlying the union-bound price.

    Starts at u = min(sqrt(2 alpha / sigma^2), v) / sqrt(n) and multiplies by
    alpha until v is covered.
    """
    if not alpha > 1 or not v > 0 or not sigma > 0 or n < 1:
        raise DomainError("need alpha > 1, v > 0, sigma > 0, n >= 1")
    u = min(math.sqrt(2.0 * alpha / sigma**2), v) / math.sqrt(n)
    count = max(math.ceil(math.log(v / u) / math.log(alpha)), 1)
    return u * alpha ** np.arange(count)
