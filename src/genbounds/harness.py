"""Statistical certification of the high-probability bounds on finite problems.

Each experiment draws training samples, runs a learning rule, evaluates a
pre-registered bound against the exactly computed comparison quantity, and
reports the violation rate together with a Clopper-Pearson upper confidence
bound on it.  Per-trial randomness comes from counter-based streams derived
from (seed, trial index), so results do not depend on execution order and
parallel or serial runs agree bit-exactly.

All bound parameters (beta, delta, the prior) are fixed in the trial
configuration before any sample is drawn.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import beta as beta_dist

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
from .errors import BudgetError, ConfigurationError, DomainError
from .losses import LossModel
from .posteriors import gibbs_posterior
from .problems import (
    ENUMERATION_BUDGET,
    FiniteProblem,
    annealed_risks,
    empirical_risks,
    iter_samples,
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
        if self.trials < 1:
            raise ConfigurationError("trials must be positive")
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
    return float(beta_dist.ppf(confidence, violations + 1, trials - violations))


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def _bound_prior(config: TrialConfig) -> DiscreteDist:
    if config.prior is not None:
        return config.prior
    return DiscreteDist.uniform(config.problem.num_hypotheses)


# ---------------------------------------------------------------------------
# Exact enumeration: joints and expectation bounds
# ---------------------------------------------------------------------------


def enumerate_joint(
    problem: FiniteProblem,
    algorithm,
    budget: int = ENUMERATION_BUDGET,
) -> JointTable:
    """Exact joint p(s, w) = mu^n(s) P(w | s) over all samples and hypotheses."""
    rows = []
    for sample, weight in iter_samples(problem, budget=budget):
        rows.append(weight * algorithm.posterior(problem, sample).probs)
    return JointTable.from_weights(np.array(rows))


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
    residual ties the two complexity measures together.
    """
    if model is None:
        model = LossModel.bounded_unit()
    if model.is_unit_range and not problem.has_unit_losses:
        raise ConfigurationError("a [0, 1] loss model requires losses in [0, 1]")
    q = prior if prior is not None else DiscreteDist.uniform(problem.num_hypotheses)

    joint = enumerate_joint(problem, algorithm, budget=budget)
    risks_true = true_risks(problem)
    expected_gap = 0.0
    for (sample, weight), row in zip(iter_samples(problem, budget=budget), joint.probs):
        posterior_mass = row.sum()
        if posterior_mass == 0:
            continue
        gaps = risks_true - empirical_risks(problem, sample)
        expected_gap += float(row @ gaps)

    info = mutual_info(joint)
    avg_kl = conditional_kl(joint, q)
    return ExpectationBoundReport(
        mutual_information=info,
        expected_gap=expected_gap,
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


def _bound_and_truth(
    config: TrialConfig,
    entry: BoundEntry,
    sample,
    posterior: DiscreteDist,
    prior: DiscreteDist,
    *params,
) -> tuple[float, float]:
    """The bound on the training sample and the exact quantity it must dominate."""
    problem = config.problem
    beta = config.bound.params.get("beta")
    request = BoundRequest(
        n=problem.n,
        delta=config.delta,
        empirical_risk=float(posterior.probs @ empirical_risks(problem, sample)),
        kl=kl_discrete(posterior, prior),
        beta=beta,
        model=_bound_model(problem),
    )
    result = entry.request(request, *params)
    if entry.truth == "annealed":
        truth = float(posterior.probs @ annealed_risks(problem, beta))
    else:
        truth = float(posterior.probs @ true_risks(problem))
    return result.value + config.bound_offset, truth


def violation_trial(config: TrialConfig, trial: int) -> tuple[float, float]:
    """Run one certification trial; returns (bound value, exact true quantity).

    Deterministic in (config.seed, trial) alone, independent of any other
    trial.
    """
    entry = _registered(config, "plain")
    problem = config.problem
    rng = _trial_rng(config.seed, trial)
    sample = rng.choice(problem.num_outcomes, size=problem.n, p=problem.mu.probs)
    posterior = config.algorithm.posterior(problem, sample)
    return _bound_and_truth(config, entry, sample, posterior, _bound_prior(config))


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
    pairs = [violation_trial(config, t) for t in range(config.trials)]
    return _summarize(pairs)


# ---------------------------------------------------------------------------
# Supersample experiments
# ---------------------------------------------------------------------------


def draw_supersample(problem: FiniteProblem, rng: np.random.Generator) -> SupersampleDraw:
    z_tilde = rng.choice(problem.num_outcomes, size=(problem.n, 2), p=problem.mu.probs)
    u = rng.integers(0, 2, size=problem.n)
    return SupersampleDraw(z_tilde=z_tilde, u=u)


def cmi_trial(config: TrialConfig, trial: int) -> tuple[float, float]:
    """One supersample trial; returns (bound value, exact posterior-mean gap)."""
    entry = _registered(config, "supersample")
    problem = config.problem
    prior = _bound_prior(config)
    rng = _trial_rng(config.seed, trial)
    draw = draw_supersample(problem, rng)
    posterior = config.algorithm.posterior(problem, draw.training_sample)
    gap = float(
        posterior.probs
        @ (empirical_risks(problem, draw.ghost_sample) - empirical_risks(problem, draw.training_sample))
    )
    request = BoundRequest(
        n=problem.n,
        delta=config.delta,
        kl=kl_discrete(posterior, prior),
        beta=config.bound.params.get("beta"),
        model=_bound_model(problem),
    )
    return entry.request(request).value + config.bound_offset, gap


def run_cmi_experiment(config: TrialConfig) -> ViolationReport:
    """Certify the high-probability supersample gap bound."""
    pairs = [cmi_trial(config, t) for t in range(config.trials)]
    return _summarize(pairs)


def cmi_exact_quantities(
    problem: FiniteProblem,
    algorithm,
    budget: int = ENUMERATION_BUDGET,
) -> tuple[float, float]:
    """Exhaustively compute (conditional mutual information, expected gap).

    Enumerates every supersample and selector configuration, builds the full
    joint over (supersample, selector, hypothesis), and evaluates both the
    selector information I(W; U | supersample) and the exact expected gap
    E[ghost risk - training risk].
    """
    k, n = problem.num_outcomes, problem.n
    num_z = k ** (2 * n)
    num_u = 2**n
    if num_z * num_u * problem.num_hypotheses > budget:
        raise BudgetError("supersample enumeration exceeds the budget")
    mu = problem.mu.probs
    selectors = list(itertools.product((0, 1), repeat=n))
    joint = np.zeros((num_z, num_u, problem.num_hypotheses))
    expected_gap = 0.0
    for zi, flat in enumerate(itertools.product(range(k), repeat=2 * n)):
        z_tilde = np.array(flat, dtype=int).reshape(n, 2)
        pz = float(np.prod(mu[z_tilde]))
        if pz == 0.0:
            continue
        for ui, u_bits in enumerate(selectors):
            u = np.array(u_bits, dtype=int)
            draw = SupersampleDraw(z_tilde=z_tilde, u=u)
            posterior = algorithm.posterior(problem, draw.training_sample)
            weight = pz / num_u
            joint[zi, ui] = weight * posterior.probs
            gaps = empirical_risks(problem, draw.ghost_sample) - empirical_risks(
                problem, draw.training_sample
            )
            expected_gap += weight * float(posterior.probs @ gaps)
    joint /= joint.sum()
    return conditional_mutual_info(joint), expected_gap


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
    is correctly calibrated.
    """
    worst = 0.0
    for sample, _ in iter_samples(problem, budget=budget):
        prior = dp_prior_mechanism(problem, sample, epsilon).probs
        for i in range(problem.n):
            for z in range(problem.num_outcomes):
                if z == sample[i]:
                    continue
                neighbor = sample.copy()
                neighbor[i] = z
                other = dp_prior_mechanism(problem, neighbor, epsilon).probs
                worst = max(worst, float(np.max(np.abs(np.log(prior) - np.log(other)))))
    return worst


def dp_prior_trial(config: TrialConfig, trial: int, epsilon: float) -> tuple[float, float]:
    """One trial of the private-prior certification; returns (bound, annealed risk)."""
    entry = _registered(config, "private-prior")
    problem = config.problem
    if config.bound.params.get("beta") is None:
        raise ConfigurationError("the private-prior bound requires a beta parameter")
    rng = _trial_rng(config.seed, trial)
    sample = rng.choice(problem.num_outcomes, size=problem.n, p=problem.mu.probs)
    prior = dp_prior_mechanism(problem, sample, epsilon)
    if isinstance(config.algorithm, GibbsAlgorithm):
        # The learner runs relative to the private prior so the divergence
        # term states how far the data pulled it from there.
        posterior = gibbs_posterior(
            prior, empirical_risks(problem, sample), problem.n * config.algorithm.beta_alg
        )
    else:
        posterior = config.algorithm.posterior(problem, sample)
    return _bound_and_truth(config, entry, sample, posterior, prior, epsilon)


def run_dp_prior_experiment(config: TrialConfig, epsilon: float) -> ViolationReport:
    """Certify the annealed-risk bound against the exponential-mechanism prior."""
    if not epsilon > 0:
        raise ConfigurationError("epsilon must be positive")
    pairs = [dp_prior_trial(config, t, epsilon) for t in range(config.trials)]
    return _summarize(pairs)


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
