"""Statistical certification of the high-probability bounds on finite problems.

Each experiment draws training samples, runs a learning rule, evaluates a
pre-registered bound against the exactly computed comparison quantity, and
reports the violation rate together with a Clopper-Pearson upper confidence
bound on it.  One trial pipeline serves every bound; the bound table's
``trial`` field picks how it draws (a sample or a supersample) and which
prior it measures the posterior against (the fixed one or the private one).
Per-trial randomness comes from counter-based streams derived from
(seed, trial index): trial t draws from ``numpy.random.default_rng([seed,
t])``, so results do not depend on execution order and parallel or serial
runs agree bit-exactly.  No generator is created per trial: SeedSequence and
PCG64 are fixed algorithms, so the harness computes the streams of a block
of trials at once in array arithmetic, bit for bit, and the test suite pins
this to the installed numpy.  The learning rules see a sample only through
its type (its count vector), so within one run the trials that draw the
same type share one evaluation of the posterior, the bound and the truth; a
report still depends only on (seed, trial index), and replaying one trial
runs the same code on that trial alone.

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

``scipy.special`` is imported by the first :func:`clopper_pearson_upper`
call, not with this module, so the commands that never certify (``bound
compute``, ``bound sweep``, ``report``) start without it.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

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
from .errors import ConfigurationError, DomainError, _is_positive_integer
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
    uniform distribution on hypotheses.
    """

    beta_alg: float

    def __post_init__(self) -> None:
        if not self.beta_alg > 0:
            raise ConfigurationError("beta_alg must be positive")

    def posterior(self, problem: FiniteProblem, sample) -> DiscreteDist:
        base = DiscreteDist.uniform(problem.num_hypotheses)
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
        if not _is_positive_integer(self.trials):
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
    # Imported here: scipy.special would double the start-up of every command that never certifies.
    from scipy.special import betaincinv

    return float(betaincinv(violations + 1, trials - violations, confidence))


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng([seed, trial])


def _draw(rng: np.random.Generator, mu: np.ndarray, size) -> np.ndarray:
    """``rng.choice(len(mu), size, p=mu)`` without its argument checks.

    The inverse-CDF draw ``choice`` runs inside: the same indices, the same
    stream position afterwards.
    """
    return _inverse_cdf(mu).searchsorted(rng.random(size), side="right")


def _inverse_cdf(mu: np.ndarray) -> np.ndarray:
    """The cumulative table ``Generator.choice`` searches, normalised to end at 1."""
    cdf = mu.cumsum()
    cdf /= cdf[-1]
    return cdf


# ---------------------------------------------------------------------------
# Trial streams, a block at a time
# ---------------------------------------------------------------------------

# ``default_rng([seed, trial])`` is PCG64 seeded by SeedSequence([seed, trial]).
# Both are fixed algorithms whose output numpy keeps stable (NEP 19), so the
# streams of a block of trials are computed here as array arithmetic, bit for
# bit: SeedSequence's hash constants on uint32 words, PCG64's 128-bit LCG on
# pairs of uint64 limbs.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
#: Stream words of one block: each limb array holds about this many uint64s,
#: whatever the trial count, n and k, so the memory of a certification does not
#: grow with them.
_BLOCK_WORDS = 8192


def _entropy_words(value: int) -> list[int]:
    """``value`` as SeedSequence reads it: its uint32 words, least significant first."""
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _hashmix(value: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    """SeedSequence's ``hashmix`` of uint32 words, and the advanced hash constant."""
    value = value ^ const
    const = const * _MULT_A & _M32
    value *= const
    value ^= value >> 16
    return value, const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    result ^= result >> 16
    return result


def _seed_pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's pool from columns of uint32 entropy words, each an array over the trials."""
    const = _INIT_A
    pool = []
    for i in range(_POOL_WORDS):
        word, const = _hashmix(entropy[i] if i < len(entropy) else np.zeros_like(entropy[0]), const)
        pool.append(word)
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                word, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    for extra in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            word, const = _hashmix(extra, const)
            pool[dst] = _mix(pool[dst], word)
    return pool


def _pcg64_origins(seed: int, trials: np.ndarray) -> np.ndarray:
    """Each trial's x = initstate + inc and LCG increment: rows x_hi, x_lo, inc_hi, inc_lo.

    ``generate_state(4, uint64)`` of the trial's pool gives PCG64 its
    initstate and initseq, and inc = 2 initseq + 1.  Seeding steps the LCG
    from 0, adds initstate and steps again, so the state the j-th output
    reads is step^(j+1)(x).  A trial of 2^32 or more is two entropy words, so
    the trials are seeded in groups of one word count.
    """
    seed_words = _entropy_words(seed)
    widths = np.where(trials > _M32, 2, 1)
    limbs = np.empty((4, len(trials)), dtype=np.uint64)
    for width in np.unique(widths).tolist():
        rows = widths == width
        group = trials[rows]
        entropy = [np.full(len(group), word, dtype=np.uint32) for word in seed_words]
        entropy += [(group >> 32 * i & _M32).astype(np.uint32) for i in range(width)]
        pool = _seed_pool(entropy)
        const = _INIT_B
        halves = []
        for i in range(8):
            word = pool[i % _POOL_WORDS] ^ const
            const = const * _MULT_B & _M32
            word *= const
            word ^= word >> 16
            halves.append(word.astype(np.uint64))
        init_hi, init_lo, seq_hi, seq_lo = (halves[2 * i] | halves[2 * i + 1] << 32 for i in range(4))
        inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
        x_lo = init_lo + inc_lo
        limbs[:, rows] = init_hi + inc_hi + (x_lo < inc_lo), x_lo, inc_hi, inc_lo
    return limbs


@functools.lru_cache(maxsize=8)
def _jump_constants(m: int) -> tuple[np.ndarray, ...]:
    """(a_hi, a_lo, c_hi, c_lo): limbs of MULT^t and of sum_{i<t} MULT^i mod 2^128, t = 2..m+1.

    t steps of the LCG take a state s to MULT^t s + inc sum_{i<t} MULT^i.
    Computed on first use of a width m; a certification reads one width.
    """
    power, total = _PCG_MULT, 1
    mults, sums = [], []
    for _ in range(m):
        total = (total + power) & _M128
        power = power * _PCG_MULT & _M128
        mults.append(power)
        sums.append(total)
    return tuple(
        np.array([v >> shift & _M64 for v in values], dtype=np.uint64)
        for values in (mults, sums)
        for shift in (64, 0)
    )


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products of uint64 arrays, from 32-bit halves."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    low, mid_a, mid_b = a0 * b0, a0 * b1, a1 * b0
    carry = (low >> 32) + (mid_a & _M32) + (mid_b & _M32)
    return a1 * b1 + (mid_a >> 32) + (mid_b >> 32) + (carry >> 32)


def _stream_words(origins: np.ndarray, m: int) -> np.ndarray:
    """The first ``m`` raw outputs of each trial's PCG64, one row per column of ``origins``.

    ``origins`` is :func:`_pcg64_origins` of the trials.  Every state of the
    block is one jump from its trial's x (see :func:`_jump_constants`), and
    each output is PCG64's XSL-RR of its state.
    """
    x_hi, x_lo, inc_hi, inc_lo = origins[:, :, None]
    a_hi, a_lo, c_hi, c_lo = _jump_constants(m)
    lo_a, lo_c = a_lo * x_lo, c_lo * inc_lo
    lo = lo_a + lo_c
    hi = _mulhi(a_lo, x_lo) + _mulhi(c_lo, inc_lo) + (lo < lo_c)
    hi += a_lo * x_hi + a_hi * x_lo + c_lo * inc_hi + c_hi * inc_lo
    rotation = hi >> 58
    hi ^= lo
    return (hi >> rotation) | (hi << ((64 - rotation) & 63))


def _trial_counts(problem: FiniteProblem, seed: int, trials: np.ndarray, supersample: bool):
    """Yield the draws of consecutive blocks of ``trials`` as count vectors.

    Each block is an array of shape (block, 1, k) of training counts, or
    (block, 2, k) of training and ghost counts for a supersample.  The draws
    are those of :func:`_draw` and :func:`_draw_supersample` from
    :func:`_trial_rng`: a double is the top 53 bits of an output, and the
    selector bit ``integers(0, 2)`` takes from a 32-bit half-word (low half
    first) is its top bit.
    """
    k, n = problem.num_outcomes, problem.n
    cdf = _inverse_cdf(problem.mu.probs)
    doubles = 2 * n if supersample else n
    width = doubles + (n + 1) // 2 if supersample else n
    step = max(1, _BLOCK_WORDS // width)
    parts = 2 if supersample else 1
    for start in range(0, len(trials), _BLOCK_WORDS):
        origins = _pcg64_origins(seed, trials[start : start + _BLOCK_WORDS])
        for first in range(0, origins.shape[1], step):
            words = _stream_words(origins[:, first : first + step], width)
            size = len(words)
            draws = cdf.searchsorted((words[:, :doubles] >> 11) * 2.0**-53, side="right")
            block = np.arange(size)[:, None, None]
            if supersample:
                halves = words[:, doubles:]
                u = np.stack([halves >> 31 & 1, halves >> 63], axis=2).reshape(size, -1)[:, :n]
                group = 2 * block + (np.arange(2) != u[:, :, None])
                draws = draws.reshape(size, n, 2)
            else:
                group = block[:, :, 0]
            counts = np.bincount((draws + k * group).ravel(), minlength=size * parts * k)
            yield counts.reshape(size, parts, k)


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


def _type_evaluator(config: TrialConfig, kind: str, params: tuple):
    """The per-type body of a certification trial, as a function of the training counts.

    The function returns (empirical risks, posterior, bound value, truth).
    ``private-prior`` measures the posterior against
    :func:`dp_prior_mechanism` at ``params`` (epsilon), the others against the
    configured prior.  The learning rules are exchangeable, so the sample they
    see is the type's sorted sample.  The truth is None for the gap to a ghost
    sample, which the type leaves open.
    """
    entry = _registered(config, kind)
    problem = config.problem
    n = problem.n
    model = _bound_model(problem)
    if config.prior is not None:
        fixed_prior = config.prior
    else:
        fixed_prior = DiscreteDist.uniform(problem.num_hypotheses)
    outcomes = np.arange(problem.num_outcomes)
    truth_risks = None  # after the first bound, so a missing beta raises the bound's error

    def evaluate(counts: np.ndarray) -> tuple:
        nonlocal truth_risks
        sample = np.repeat(outcomes, counts)
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
        if entry.truth == "gap":
            return risks, posterior, bound, None
        if truth_risks is None:
            annealed = entry.truth == "annealed"
            truth_risks = annealed_risks(problem, request.beta) if annealed else true_risks(problem)
        return risks, posterior, bound, float(posterior.probs @ truth_risks)

    return evaluate


def _trials(config: TrialConfig, kind: str, trials: np.ndarray, *params) -> list[tuple[float, float]]:
    """Certification trials; returns each one's (bound value, exact quantity it must dominate).

    ``kind`` is the bound table's trial: ``plain`` and ``private-prior`` draw
    a sample, ``supersample`` draws a supersample and trains on its selected
    column.  ``trials`` holds the trial indices, each below 2^64.  Each trial
    is deterministic in (config.seed, trial) alone: the trials are drawn a
    block at a time by :func:`_trial_counts`, and everything but the ghost
    risks of a supersample is evaluated once per training type, in the order
    the types first appear, by the :func:`_type_evaluator` body.
    """
    evaluate = _type_evaluator(config, kind, params)
    problem = config.problem
    pairs = []
    by_type: dict[bytes, tuple] = {}
    for counts in _trial_counts(problem, config.seed, trials, kind == "supersample"):
        types, first, inverse = np.unique(counts[:, 0], axis=0, return_index=True, return_inverse=True)
        evaluated = [None] * len(types)
        for row in np.argsort(first):
            key = types[row].tobytes()
            if key not in by_type:
                by_type[key] = evaluate(types[row])
            evaluated[row] = by_type[key]
        ghosts = counts[:, 1] if counts.shape[1] == 2 else itertools.repeat(None)
        for row, ghost in zip(inverse.reshape(-1).tolist(), ghosts):
            risks, posterior, bound, truth = evaluated[row]
            if truth is None:  # the gap to the ghost sample, which the type leaves open
                truth = float(posterior.probs @ (problem.losses @ ghost / problem.n - risks))
            pairs.append((bound, truth))
    return pairs


def _trial_index(trial) -> np.ndarray:
    """One trial index as the array :func:`_trials` reads; an integer in [0, 2^64)."""
    if isinstance(trial, bool) or not isinstance(trial, numbers.Integral) or not 0 <= trial <= _M64:
        raise ConfigurationError(f"trial must be an integer in [0, 2^64); got {trial!r}")
    return np.array([trial], dtype=np.uint64)


def violation_trial(config: TrialConfig, trial: int) -> tuple[float, float]:
    """One trial of the plain certification; returns (bound value, exact true quantity)."""
    return _trials(config, "plain", _trial_index(trial))[0]


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
    return _summarize(_trials(config, "plain", np.arange(config.trials, dtype=np.uint64)))


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
    return _trials(config, "supersample", _trial_index(trial))[0]


def run_cmi_experiment(config: TrialConfig) -> ViolationReport:
    """Certify the high-probability supersample gap bound."""
    return _summarize(_trials(config, "supersample", np.arange(config.trials, dtype=np.uint64)))


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
    return _trials(config, "private-prior", _trial_index(trial), epsilon)[0]


def run_dp_prior_experiment(config: TrialConfig, epsilon: float) -> ViolationReport:
    """Certify the annealed-risk bound against the exponential-mechanism prior."""
    if not epsilon > 0:
        raise ConfigurationError("epsilon must be positive")
    return _summarize(_trials(config, "private-prior", np.arange(config.trials, dtype=np.uint64), epsilon))


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
