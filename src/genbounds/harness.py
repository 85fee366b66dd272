"""Statistical certification of the high-probability bounds on finite problems.

Each experiment draws training samples, runs a learning rule, evaluates a
pre-registered bound against the exactly computed comparison quantity, and
reports the violation rate together with a Clopper-Pearson upper confidence
bound on it.  One trial pipeline, :func:`certify`, serves every bound whose
table entry names a ``trial``, which picks how it draws (a sample or a
supersample) and its prior (the fixed one or the private one).
Per-trial randomness comes from counter-based streams derived from
(seed, trial index): trial t draws from ``numpy.random.default_rng([seed,
t])``, a sample by ``choice(k, n, p=mu)`` and a supersample as
:func:`draw_supersample` draws it, so results do not depend on execution
order and parallel or serial runs agree bit-exactly.  No generator is
created per trial: SeedSequence and PCG64 are fixed algorithms, so the
harness computes the streams of a block of trials at once in array
arithmetic, bit for bit, and the test suite pins this to numpy itself.
Each stream word is one 128-bit product and one addition: with MULT - 1 =
4 u, u odd, the state the LCG reaches from a trial's x in t steps is B_t y
+ x mod 2^128, where y = 4 x + inc u^-1 is computed once per trial and B_t
= (MULT^t - 1) / 4 comes from MULT^t mod 2^130.  A block holds as many
trials as keep their count rows and posterior rows within ``_BLOCK_WORDS``
values, or one chunk if that is more; its trials are seeded by themselves,
and its words are computed a chunk of trials at a time, at most
``_BLOCK_WORDS`` values.  A draw's outcome is the number of integer
thresholds ceil(cdf_j 2^53) the top 53 bits of its stream word reach,
which is the inverse-CDF search on the double those bits make.  The
learning rules see a sample only through its type (its count vector), and
one per-block body evaluates a block's trials row by row, in trial order:
risks, priors, posteriors and KLs as arrays of rows, each row bit for bit
what the one-sample functions give, the bound as one call over the block's
rows of fitted risk and KL, and beside each bound its truth, the posterior
dotted with a reference row: the annealed or the true risks, or the ghost
minus the training risks of a supersample, each clipped to its loss row's
range.  Only each trial's (bound, truth) pair is kept from one block to
the next, written into one array allocated before the first block, and the
trial indices are made a block at a time: a block's seeding, draw and
evaluation take memory bounded by the block, and the pairs, 16 bytes a
trial, are all that grows with the trial count.  A report depends only on
(seed, trial index), and replaying one trial runs the same code on that
trial alone.  A NaN bound or truth refuses the report, since no comparison
with NaN can count as a violation.

The exact checks read a sample table, which holds data only: one count row
per type from :func:`~genbounds.problems.tabulate_types`, or one row per
sequence from :func:`~genbounds.problems.tabulate`.  The learning rules and
:func:`~genbounds.posteriors._table_posteriors`, which gives each row's
posterior, live in :mod:`~genbounds.posteriors`: an :class:`ErmAlgorithm` or
a :class:`GibbsAlgorithm` reads its row kernel, the one the certification
applies to drawn types, on either table, and so runs on types in the
expectation-bound and exponential-moment checks (W is independent of S given
the type); a callable rule runs once per sequence.  The privacy audit always
runs on types (the mechanism sees the sample through its empirical risks), a
block of rows at a time, and builds each neighbour from its row by moving
one count from outcome a to outcome b, so only the type table grows with the
count.  :func:`enumerate_joint` and the supersample check run on sequences:
a supersample is a pair of rows.

All bound parameters (beta and the entry's ``fields``, delta, the prior)
are fixed in the trial configuration before any sample is drawn.

The Clopper-Pearson bound takes Loader's binomial probabilities from the
type table's kernel in :mod:`~genbounds.problems` and solves for its root by
a safeguarded Newton iteration (:func:`clopper_pearson_upper`), so no module
of the package imports scipy; the tests use it as an oracle.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .bounds import BoundRequest, zhang_gen_expectation
from .divergences import (
    DiscreteDist,
    JointTable,
    _check_rows,
    _kl_rows,
    conditional_kl,
    conditional_mutual_info,
    golden_formula_residual,
    mutual_info,
)
from .errors import ConfigurationError, DomainError, _is_positive_integer, _is_real
from .losses import LossModel, _annealed
from .posteriors import (
    ErmAlgorithm,
    GibbsAlgorithm,
    _exact_table,
    _gibbs_rows,
    _is_exchangeable,
    _table_posteriors,
    _uniform_probs,
)
from .problems import (
    ENUMERATION_BUDGET,
    FiniteProblem,
    _check_budget,
    _bd0,
    _count_risks,
    _is_integral,
    _stirlerr,
    annealed_risks,
    empirical_risks,
    tabulate,
    tabulate_types,
    true_risks,
)
from .registry import BOUNDS, BoundEntry, _require


# ---------------------------------------------------------------------------
# Configuration and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundSpec:
    """A named bound with the parameters fixed before the draw: ``beta`` and its table entry's ``fields``.

    ``params`` is kept as a read-only copy, so a spec equal to another hashes
    equal to it for as long as it lives.
    """

    name: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    def __hash__(self) -> int:
        return hash((self.name, frozenset(self.params.items())))

    def __reduce__(self):
        return BoundSpec, (self.name, dict(self.params))


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
            # Trials are evaluated from their sample types, which is only
            # right for rules that see the sample through its type.
            raise ConfigurationError(
                "the algorithm must be an ErmAlgorithm or a GibbsAlgorithm; "
                f"got {type(self.algorithm).__name__}"
            )
        if not _is_real(self.delta) or not 0 < self.delta <= 1:
            raise ConfigurationError(f"delta must be a number in (0, 1]; got {self.delta!r}")
        if not _is_real(self.bound_offset) or not math.isfinite(self.bound_offset):
            # No truth exceeds a NaN or +inf bound, so such an offset would certify anything.
            raise ConfigurationError(f"bound_offset must be a finite number; got {self.bound_offset!r}")
        if self.prior is not None and not isinstance(self.prior, DiscreteDist):
            raise ConfigurationError(f"prior must be a DiscreteDist or None; got {type(self.prior).__name__}")
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


@dataclass(frozen=True, eq=False)
class SupersampleDraw:
    """An n x 2 supersample and the selector bits picking the training column."""

    z_tilde: np.ndarray
    u: np.ndarray

    def __post_init__(self) -> None:
        z, u = np.asarray(self.z_tilde), np.asarray(self.u)
        if not _is_integral(z) or not (_is_integral(u) or u.dtype.kind == "b"):
            raise DomainError("z_tilde and u must hold integers")
        z, u = z.astype(int), u.astype(int)
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


#: Steps of the Clopper-Pearson solver: enough for the bisection alone to reach adjacent doubles near 0.
_CP_STEPS = 1100


def clopper_pearson_upper(violations: int, trials: int, confidence: float = 0.95) -> float:
    """One-sided Clopper-Pearson upper confidence bound on a binomial rate.

    The bound is the p at which F(v; T, p) = P[Bin(T, p) <= v] falls to 1 -
    confidence, v the violations and T the trials.  v = T gives 1, and v = 0
    and v = T - 1 have closed forms.  Otherwise the root is solved in x = p,
    or, below confidence 1/2, as the root in x = 1 - p of F(T - v - 1; T, x)
    = confidence, so that the tail solved for is the smaller one.  Newton's
    method with Halley's curvature correction starts from Carter's normal
    approximation to the beta quantile (AS 109) and is kept inside a
    bracket from the median of the binomial, x >= k / T, where each step
    outside it bisects.  log F(k; T, x) is log pmf(k) + log S: the pmf is
    Loader's saddle-point form, from the stirlerr and bd0 of
    :mod:`~genbounds.problems`, and S = F / pmf(k) is summed backwards from
    k until a term falls below 1e-17, which in the bracket the terms do
    geometrically.  d log F / dx = -(T - k) / ((1 - x) S) and the curvature
    follows from it.  The result is within 1e-14 relative of the exact root,
    as the tests check in exact integer arithmetic, and most calls take two
    evaluations: about 50 us for v <= 100 and T <= 10^5, about 1 ms at
    v = 5 10^5, T = 10^6 (one Intel Xeon vCPU).
    """
    if not _is_positive_integer(trials):
        raise DomainError("trials must be a positive integer")
    if (
        isinstance(violations, bool)
        or not isinstance(violations, numbers.Integral)
        or not 0 <= violations <= trials
    ):
        raise DomainError("violations must be an integer in [0, trials]")
    if not 0 < confidence < 1:
        raise DomainError("confidence must lie in (0, 1)")
    v, t = int(violations), int(trials)
    if v == t:
        return 1.0
    if v == 0:
        return -math.expm1(math.log1p(-confidence) / t)
    if v == t - 1:
        return math.exp(math.log(confidence) / t)
    # Solve log F(k; t, x) = log_tail, which falls in x, for x = p or x = 1 - p: the smaller tail.
    lower = confidence >= 0.5
    k, log_tail = (v, math.log1p(-confidence)) if lower else (t - v - 1, math.log(confidence))
    u = t - k
    # log pmf(k) less its two bd0 terms, which are all that depend on x.
    errors = _stirlerr(np.array([t, k, u], dtype=float)).tolist()
    log_pmf_rest = errors[0] - errors[1] - errors[2] - 0.5 * math.log(2 * math.pi * (k * u / t))
    # Carter's start: a normal quantile z for the smaller tail, then the Beta(v + 1, t - v) quantile from it.
    r = math.sqrt(-2 * math.log(min(confidence, 1 - confidence)))
    z = r - (2.30753 + 0.27061 * r) / (1 + (0.99229 + 0.04481 * r) * r)
    z, r = (z if lower else -z), (z * z - 3) / 6
    a, b = 1 / (2 * v + 1), 1 / (2 * (t - v) - 1)
    h = 2 / (a + b)
    w = z * math.sqrt(h + r) / h - (a - b) * (r + 5 / 6 - 2 / (3 * h))
    p = (v + 1) / (v + 1 + (t - v) * math.exp(-2 * w))
    lo, hi = (v / t, 1.0) if lower else (0.0, (v + 1) / t)
    for _ in range(_CP_STEPS):
        q = 1 - p
        x, y = (p, q) if lower else (q, p)
        # S = F / pmf(k), summed backwards from k; in the bracket each term is at most (t - k) / (t - k + 1)
        # of the one before.
        ratio, term, s, i = y / x, 1.0, 1.0, u
        for j in range(k, 0, -1):
            i += 1
            term *= ratio * j / i
            s += term
            if term < 1e-17:
                break
        g = log_pmf_rest - _bd0(k, t * x) - _bd0(u, t * y) + math.log(s) - log_tail
        if (g > 0) == lower:
            lo = p
        else:
            hi = p
        # g / g' with g' = -u / (y S), then Halley's factor from g'' / g' = (1 - u) / y + k / x + u / (y S).
        newton = -g * y * s / u
        step = newton / max(1 - 0.5 * newton * ((1 - u) / y + k / x + u / (y * s)), 0.5)
        step = step if lower else -step
        if abs(step) <= 1e-10 * min(p, q):
            return p - step
        p = p - step if lo < p - step < hi else 0.5 * (lo + hi)
    return p


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
_M32, _M64, _M130 = (1 << 32) - 1, (1 << 64) - 1, (1 << 130) - 1
#: Limbs of u^-1 mod 2^128, where MULT - 1 = 4 u: a trial's y is 4 x + inc u^-1.
_INC_FACTOR = tuple(np.uint64(pow(_PCG_MULT >> 2, -1, 1 << 128) >> shift & _M64) for shift in (64, 0))
#: Stream words of one chunk: each limb array holds about this many uint64s,
#: whatever the trial count, n and k, and a block of trials holds about this
#: many count and posterior values, so the memory of a block does not grow
#: with them.
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
    """Each trial's x = initstate + inc and y = 4 x + inc u^-1 mod 2^128: rows x_hi, x_lo, y_hi, y_lo.

    ``generate_state(4, uint64)`` of the trial's pool gives PCG64 its
    initstate and initseq, and inc = 2 initseq + 1.  Seeding steps the LCG
    from 0, adds initstate and steps again, so the state the j-th output
    reads is step^(j+1)(x).  With MULT - 1 = 4 u, u odd, t steps take x to
    B_t y + x (see :func:`_jump_constants`), so y is all a trial's stream
    needs beside x.  A trial of 2^32 or more is two entropy words, so the
    trials are seeded in groups of one word count.
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
        x_hi = init_hi + inc_hi + (x_lo < inc_lo)
        y = _mul_add128((inc_hi, inc_lo), _INC_FACTOR, (x_hi << 2 | x_lo >> 62, x_lo << 2))
        limbs[:, rows] = x_hi, x_lo, *y
    return limbs


@functools.lru_cache(maxsize=8)
def _jump_constants(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(b_hi, b_lo): limbs of B_t = (MULT^t - 1) / 4 mod 2^128, t = 2..m+1.

    t steps of the LCG take a state x to MULT^t x + inc C_t with C_t =
    sum_{i<t} MULT^i.  Since C_t (MULT - 1) = MULT^t - 1 and MULT - 1 = 4 u
    with u odd, C_t u = B_t, and MULT^t x = 4 B_t x + x, so the state is
    B_t (4 x + inc u^-1) + x = B_t y + x.  The division by 4 loses the top
    two bits of a residue mod 2^128, so MULT^t is taken mod 2^130.  Computed
    on first use of a width m; a certification reads one width.
    """
    power, values = _PCG_MULT, []
    for _ in range(m):
        power = power * _PCG_MULT & _M130
        values.append((power - 1) >> 2)
    return tuple(np.array([v >> shift & _M64 for v in values], dtype=np.uint64) for shift in (64, 0))


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products of uint64 arrays: Hacker's Delight's mulhu on 32-bit halves."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    high = a1 * b0
    high += a0 * b0 >> 32
    middle = high & _M32
    middle += a0 * b1
    high >>= 32
    high += a1 * b1
    high += middle >> 32
    return high


def _mul_add128(a: tuple, b: tuple, c: tuple) -> tuple[np.ndarray, np.ndarray]:
    """a b + c mod 2^128 as limbs (hi, lo), each of a, b, c a pair (hi, lo) of uint64 arrays or scalars."""
    (a_hi, a_lo), (b_hi, b_lo), (c_hi, c_lo) = a, b, c
    hi = _mulhi(a_lo, b_lo)
    hi += a_lo * b_hi
    hi += a_hi * b_lo
    hi += c_hi
    lo = a_lo * b_lo
    lo += c_lo
    hi += lo < c_lo
    return hi, lo


def _stream_words(origins: np.ndarray, m: int) -> np.ndarray:
    """The first ``m`` raw outputs of each trial's PCG64, one row per column of ``origins``.

    ``origins`` is :func:`_pcg64_origins` of the trials.  The state the j-th
    output reads is B_{j+1} y + x, one 128-bit product and one addition
    from its trial's (x, y) (see :func:`_jump_constants`), and each output
    is PCG64's XSL-RR of its state.
    """
    x_hi, x_lo, y_hi, y_lo = origins[:, :, None]
    hi, lo = _mul_add128(_jump_constants(m), (y_hi, y_lo), (x_hi, x_lo))
    rotation = hi >> 58
    hi ^= lo
    return (hi >> rotation) | (hi << ((64 - rotation) & 63))


def _thresholds(mu: np.ndarray) -> np.ndarray:
    """t_j = ceil(cdf_j 2^53) as uint64, j < k - 1, for the cumulative table ``Generator.choice`` searches.

    ``choice(k, size, p=mu)`` normalises ``mu.cumsum()`` to end at 1 and
    takes ``cdf.searchsorted(x, side="right")`` of each double x it draws.  A
    double m 2^-53 reaches cdf_j exactly when the integer m reaches t_j, so
    that search is the number of thresholds m reaches.  The last entry, 1, is
    never reached; nor is a t_j of 2^53, which a zero tail mass gives.
    """
    cdf = mu.cumsum()
    cdf /= cdf[-1]
    return np.minimum(np.ceil(cdf[:-1] * 2.0**53), 2.0**53).astype(np.uint64)


def _trial_counts(problem: FiniteProblem, seed: int, trials: np.ndarray | range, supersample: bool):
    """Yield the draws of consecutive blocks of ``trials`` as count vectors.

    Each block is an array of shape (block, 1, k) of training counts, or
    (block, 2, k) of training and ghost counts for a supersample.  The draws
    are those trial t makes from ``default_rng([seed, t])``: ``choice(k, n,
    p=mu)`` for a sample, and for a supersample ``choice(k, (n, 2), p=mu)``
    and then ``integers(0, 2, n)``, as :func:`draw_supersample` makes them.
    A double is the top 53 bits of an output, and the selector bit
    ``integers(0, 2)`` takes from a 32-bit half-word (low half first) is its
    top bit.  A draw's outcome is the number of :func:`_thresholds` its top
    53 bits reach, compared as integers, which is the inverse-CDF search of
    ``choice``.  A supersample's selector bits pick each row's training and
    ghost words before the comparison.

    A block holds as many trials as keep its count rows and the h posterior
    values of each within ``_BLOCK_WORDS``, or one chunk if that is more, so
    each block is one evaluation downstream and its memory does not grow
    with the trial count.  Each block's trials are seeded by themselves, and
    their stream words are computed a chunk of trials at a time, as many as
    keep the word array within ``_BLOCK_WORDS`` values; the outcomes of a
    chunk are counted by one ``bincount``, each trial's training (and ghost)
    outcomes offset by k times their row.  ``trials`` is an array or a range
    of indices, and only each block of it is an array.
    """
    k, n, h = problem.num_outcomes, problem.n, problem.num_hypotheses
    thresholds = _thresholds(problem.mu.probs).tolist()
    doubles = 2 * n if supersample else n
    width = doubles + (n + 1) // 2 if supersample else n
    parts = 2 if supersample else 1
    chunk = max(1, _BLOCK_WORDS // width)
    block = max(chunk, _BLOCK_WORDS // (parts * k + h))

    def count(words: np.ndarray) -> np.ndarray:
        """The (chunk, parts, k) counts of a chunk's stream words."""
        size = len(words)
        top = words[:, :doubles] >> 11
        if supersample:
            halves = words[:, doubles:]
            u = np.stack([halves >> 31 & 1, halves >> 63], axis=2).reshape(size, -1)[:, :n] != 0
            left, right = top[:, 0::2], top[:, 1::2]
            top = np.stack([np.where(u, right, left), np.where(u, left, right)], axis=1)
        top = top.reshape(size, parts, n)
        draws = np.repeat(np.arange(0, size * parts * k, k), n).reshape(top.shape)
        for threshold in thresholds:
            draws += top >= threshold
        return np.bincount(draws.ravel(), minlength=size * parts * k).reshape(size, parts, k)

    for first in range(0, len(trials), block):
        origins = _pcg64_origins(seed, np.asarray(trials[first : first + block], dtype=np.uint64))
        counts = [count(_stream_words(origins[:, i : i + chunk], width)) for i in range(0, origins.shape[1], chunk)]
        yield counts[0] if len(counts) == 1 else np.concatenate(counts)


# ---------------------------------------------------------------------------
# Exact enumeration: joints and expectation bounds
# ---------------------------------------------------------------------------


def enumerate_joint(
    problem: FiniteProblem,
    algorithm,
    budget: int = ENUMERATION_BUDGET,
) -> JointTable:
    """Exact joint p(s, w) = mu^n(s) P(w | s) over all samples and hypotheses."""
    samples, weights, risks = tabulate(problem, budget)
    return JointTable.from_weights(weights[:, None] * _table_posteriors(problem, algorithm, samples, risks))


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

    From the enumerated joint: the expected gap E[true - empirical risk] and
    its bound psi*^-1(. / n) of ``model`` by two routes, the mutual
    information (Xu and Raginsky's bound for a sub-Gaussian model,
    :func:`~genbounds.bounds.subgamma_mi` for a sub-gamma one) and the
    averaged KL to an arbitrary fixed prior.  The golden-formula residual
    ties the two complexity measures together.  The joint is over sample
    types for an :class:`ErmAlgorithm` or a :class:`GibbsAlgorithm` and over
    sequences for a callable rule (see :func:`~genbounds.posteriors._exact_table`).
    """
    if model is None:
        model = LossModel.bounded_unit()
    if model.is_unit_range and not problem.has_unit_losses:
        raise ConfigurationError("a [0, 1] loss model requires losses in [0, 1]")
    q = prior if prior is not None else DiscreteDist.uniform(problem.num_hypotheses)

    weights, risks, probs = _exact_table(problem, algorithm, budget)
    joint = JointTable.from_weights(weights[:, None] * probs)
    info = mutual_info(joint)
    avg_kl = conditional_kl(joint, q)
    return ExpectationBoundReport(
        mutual_information=info,
        expected_gap=float(np.sum(joint.probs * (true_risks(problem) - risks))),
        mi_gap_bound=zhang_gen_expectation(info, problem.n, model),
        prior_gap_bound=zhang_gen_expectation(avg_kl, problem.n, model),
        golden_residual=golden_formula_residual(joint, q),
    )


# ---------------------------------------------------------------------------
# Violation-rate certification of the high-probability bounds
# ---------------------------------------------------------------------------

def _registered(config: TrialConfig) -> BoundEntry:
    """The configured bound's table entry, checked against its parameters, the prior and the losses."""
    name = config.bound.name
    entry = BOUNDS.get(name)
    if entry is None or entry.trial is None:
        certifiable = ", ".join(key for key, e in BOUNDS.items() if e.trial is not None)
        raise ConfigurationError(f"bound {name!r} has no certification trial; certifiable: {certifiable}")
    unread = [key for key in config.bound.params if key not in ("beta", *entry.fields)]
    if unread:
        raise ConfigurationError(f"bound {name!r} does not read the parameter(s) {', '.join(map(str, unread))}")
    if entry.trial == "private-prior" and config.prior is not None:
        raise ConfigurationError(f"bound {name!r} measures against the private prior and does not read a prior")
    if entry.losses == "binary" and not config.problem.has_binary_losses:
        raise ConfigurationError(f"bound {name!r} is stated for {{0, 1}}-valued losses")
    if entry.losses == "unit" and not config.problem.has_unit_losses:
        raise ConfigurationError(f"bound {name!r} requires losses in [0, 1]")
    return entry


def _bound_model(problem: FiniteProblem) -> LossModel:
    """The loss model a bound reads: Bernoulli, [0, 1], or by Hoeffding's lemma sub-Gaussian at half the range."""
    if problem.has_binary_losses:
        return LossModel.bernoulli()
    if problem.has_unit_losses:
        return LossModel.bounded_unit()
    losses = problem.losses
    return LossModel.sub_gaussian(max(1.0, (losses.max() - losses.min()) / 2))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for each row, ``b`` one row or one per row, each as the 1-D product gives it.

    A stacked matmul makes one BLAS dot per row, so each result is the bit
    pattern of the 1-D ``@``; a 2-D product or a summed product may not be.
    """
    return np.matmul(a[:, None, :], np.broadcast_to(b, a.shape)[:, :, None])[:, 0, 0]


def _block_evaluator(config: TrialConfig):
    """Whether a certification draws supersamples, and its body for a block of trials.

    The body takes an (m, parts, k) block of training (and ghost) counts, as
    :func:`_trial_counts` yields it, and returns the training types'
    posteriors, (m, h), and each trial's bound and truth, (m, 2).
    ``private-prior`` measures the posterior against
    :func:`dp_prior_mechanism` at epsilon, the others against the configured
    prior; a Gibbs learner's base is the private prior there and uniform
    otherwise.  Each row is what the one-sample primitives give, to the bit,
    checked as a :class:`DiscreteDist` is, except that the fitted risk is
    clipped to the loss range and each gap to plus or minus its row's range.
    The bound is one call on the rows of fitted risk and KL; the reference
    row the entry's ``truth`` names is taken after it, so that a missing
    beta raises the bound's error.
    """
    entry = _registered(config)
    problem = config.problem
    n, h = problem.n, problem.num_hypotheses
    model = _bound_model(problem)
    beta = config.bound.params.get("beta")
    params = [_require(config.bound.params, key, "experiment") for key in entry.fields]
    uniform = _uniform_probs(h)
    fixed_prior = config.prior.probs if config.prior is not None else uniform
    lowest, highest = problem.losses.min(), problem.losses.max()
    span = np.ptp(problem.losses, axis=1)
    if entry.trial == "private-prior":
        _check_dp_prior(problem, *params)

    def evaluate(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        risks = _count_risks(problem, counts[:, 0])
        if entry.trial == "private-prior":
            priors = _dp_prior_rows(problem, risks, *params)
            _check_rows(priors)
            base = priors
        else:
            priors, base = fixed_prior, uniform
        posteriors = config.algorithm._posterior_rows(risks, base, n)
        _check_rows(posteriors)
        # A convex combination of the risks lies in the loss range; the dot product can round past it.
        fitted = np.minimum(np.maximum(_row_dots(posteriors, risks), lowest), highest)
        kls = _kl_rows(posteriors, priors)
        request = BoundRequest(n=n, delta=config.delta, empirical_risk=fitted, kl=kls, beta=beta, model=model)
        bounds = entry.request(request, *params).value + config.bound_offset
        if entry.truth == "gap":
            reference = np.minimum(np.maximum(_count_risks(problem, counts[:, 1]) - risks, -span), span)
        else:
            reference = annealed_risks(problem, beta) if entry.truth == "annealed" else true_risks(problem)
        return posteriors, np.stack([bounds, _row_dots(posteriors, reference)], axis=1)

    return entry.trial == "supersample", evaluate


def _trials(config: TrialConfig, trials: np.ndarray | range) -> np.ndarray:
    """Certification trials; returns each one's (bound value, exact quantity it must dominate).

    The bound's entry names the trial: ``plain`` and ``private-prior`` draw a
    sample, ``supersample`` draws a supersample and trains on its selected
    column.  ``trials`` holds the trial indices, each below 2^64.  Each trial
    is deterministic in (config.seed, trial) alone: the trials are seeded
    and drawn a block at a time by :func:`_trial_counts`, whose blocks hold
    as many trials as keep their count rows and posterior rows within
    ``_BLOCK_WORDS`` values (a 150-trial certification on 16 x 8, n = 200 is
    one block).  Each block's trials are evaluated row by row, in trial
    order, by one call of the :func:`_block_evaluator` body, a type drawn
    twice being evaluated twice, and only its pairs are kept from one block
    to the next.  The result is a (trials, 2) array, the transpose of one
    (2, trials) array filled block by block, so its two columns are
    contiguous.
    """
    supersample, evaluate = _block_evaluator(config)
    pairs = np.empty((2, len(trials)))
    start = 0
    for counts in _trial_counts(config.problem, config.seed, trials, supersample):
        pairs[:, start : start + len(counts)] = evaluate(counts)[1].T
        start += len(counts)
    return pairs.T


def _one_trial(config: TrialConfig, trial) -> tuple[float, float]:
    """(bound, truth) of one trial, through :func:`_trials`; ``trial`` is an integer in [0, 2^64)."""
    if isinstance(trial, bool) or not isinstance(trial, numbers.Integral) or not 0 <= trial <= _M64:
        raise ConfigurationError(f"trial must be an integer in [0, 2^64); got {trial!r}")
    bound, truth = _trials(config, np.array([trial], dtype=np.uint64))[0].tolist()
    return bound, truth


def _summarize(pairs) -> ViolationReport:
    """The report of (bound, truth) pairs; a NaN in either refuses, as no comparison with it can fail."""
    bounds, truths = np.ascontiguousarray(np.asarray(pairs, dtype=float).reshape(-1, 2).T)
    if np.isnan(bounds).any() or np.isnan(truths).any():
        raise DomainError("a trial gave a NaN bound or truth, which no comparison counts as a violation")
    violations = int(np.sum(truths > bounds))
    trials = len(bounds)
    return ViolationReport(
        trials=trials,
        violations=violations,
        rate=violations / trials,
        clopper_pearson_upper_95=clopper_pearson_upper(violations, trials),
        bound_mean=float(bounds.mean()),
        true_quantity_mean=float(truths.mean()),
    )


def certify(config: TrialConfig) -> ViolationReport:
    """Certify a high-probability bound by repeated sampling, in the trial its table entry names.

    Per trial: draw a fresh training sample (or supersample), form the
    posterior, evaluate the pre-registered bound, and compare with the exactly
    computed quantity the entry's ``truth`` names.  A bound without a trial,
    or a parameter other than beta and the entry's ``fields``, is refused.
    """
    return _summarize(_trials(config, range(config.trials)))


def _of_trial(config: TrialConfig, trial: str, **params) -> TrialConfig:
    """``config`` with ``params`` joining its bound's, itself if none; a bound ``trial`` does not certify is refused."""
    name = config.bound.name
    if getattr(BOUNDS.get(name), "trial", None) != trial:
        supported = ", ".join(key for key, e in BOUNDS.items() if e.trial == trial)
        raise ConfigurationError(f"bound {name!r} is not certified by the {trial} trial; supported: {supported}")
    return replace(config, bound=BoundSpec(name, {**config.bound.params, **params})) if params else config


def run_violation_experiment(config: TrialConfig) -> ViolationReport:
    """:func:`certify` for a bound of the plain trial; a bound of another trial is refused."""
    return certify(_of_trial(config, "plain"))


def violation_trial(config: TrialConfig, trial: int) -> tuple[float, float]:
    """One trial of the plain certification; returns (bound value, exact true quantity)."""
    return _one_trial(_of_trial(config, "plain"), trial)


def run_cmi_experiment(config: TrialConfig) -> ViolationReport:
    """:func:`certify` for the high-probability supersample gap bound."""
    return certify(_of_trial(config, "supersample"))


def cmi_trial(config: TrialConfig, trial: int) -> tuple[float, float]:
    """One supersample trial; returns (bound value, exact posterior-mean gap)."""
    return _one_trial(_of_trial(config, "supersample"), trial)


def run_dp_prior_experiment(config: TrialConfig, epsilon: float) -> ViolationReport:
    """:func:`certify` for the annealed-risk bound against the exponential-mechanism prior at ``epsilon``."""
    return certify(_of_trial(config, "private-prior", epsilon=epsilon))


def dp_prior_trial(config: TrialConfig, trial: int, epsilon: float) -> tuple[float, float]:
    """One trial of the private-prior certification; returns (bound, annealed risk)."""
    return _one_trial(_of_trial(config, "private-prior", epsilon=epsilon), trial)


# ---------------------------------------------------------------------------
# Supersample experiments
# ---------------------------------------------------------------------------


def draw_supersample(problem: FiniteProblem, rng: np.random.Generator) -> SupersampleDraw:
    """An n x 2 supersample and n selector bits, in this order from ``rng``."""
    z_tilde = rng.choice(problem.num_outcomes, (problem.n, 2), p=problem.mu.probs)
    return SupersampleDraw(z_tilde=z_tilde, u=rng.integers(0, 2, problem.n))


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
    samples, weights, risks = tabulate(problem, budget)
    probs = _table_posteriors(problem, algorithm, samples, risks)
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
    _check_dp_prior(problem, epsilon)
    return DiscreteDist(_dp_prior_rows(problem, empirical_risks(problem, sample), epsilon))


def _check_dp_prior(problem: FiniteProblem, epsilon: float) -> None:
    if not problem.has_unit_losses:
        raise ConfigurationError("the sensitivity argument requires losses in [0, 1]")
    if not epsilon > 0:
        raise DomainError("epsilon must be positive")
    if epsilon == math.inf:
        raise DomainError("epsilon must be finite")


def _dp_prior_rows(problem: FiniteProblem, risks: np.ndarray, epsilon: float) -> np.ndarray:
    """The mechanism's prior for each row of empirical risks; unchecked, see :func:`_check_dp_prior`."""
    return _gibbs_rows(_uniform_probs(problem.num_hypotheses), risks, problem.n * epsilon / 2.0)


def dp_mechanism_max_log_ratio(
    problem: FiniteProblem, epsilon: float, budget: int = ENUMERATION_BUDGET
) -> float:
    """Exhaustive privacy audit of the prior mechanism over all neighbor pairs.

    Returns the largest absolute log-probability ratio between priors on
    samples differing in one coordinate; at most epsilon when the mechanism
    is correctly calibrated.  The mechanism sees a sample through its type,
    and changing a coordinate from a to b moves one count from a to b.  The
    audit walks the type table a block of rows at a time, as many as keep
    their count and prior values within ``_BLOCK_WORDS`` (at least one), and
    builds the neighbour c - e_a + e_b of each row with c_a >= 1 for every
    a < b, since a move and its reverse join the same two types.  Each
    side's prior is :func:`dp_prior_mechanism`'s, from its own count row.
    The inputs are checked before the table is built, the only part that
    grows with the type count.  The mechanism gives every hypothesis
    positive mass, so a prior entry that rounds to 0, or to a subnormal
    whose log has lost precision, takes its log from the logits
    instead: log q - (n epsilon / 2) f + (n epsilon / 2) a, a the row's annealed f over q.
    """
    _check_dp_prior(problem, epsilon)
    counts, _, _ = tabulate_types(problem, budget)
    k, h = problem.num_outcomes, problem.num_hypotheses
    a, b = np.triu_indices(k, 1)
    unit = np.eye(k, dtype=counts.dtype)
    moves = unit[b] - unit[a]
    block = max(1, _BLOCK_WORDS // (k + h))
    worst = 0.0
    for first in range(0, len(counts), block):
        rows = counts[first : first + block]
        types, move = np.nonzero(rows[:, a] > 0)
        risks = _count_risks(problem, np.concatenate([rows, rows[types] + moves[move]]))
        priors = _dp_prior_rows(problem, risks, epsilon)
        _check_rows(priors)
        with np.errstate(divide="ignore"):
            log_priors = np.log(priors)
        underflow = priors < np.finfo(float).tiny
        if underflow.any():
            scale, uniform = problem.n * epsilon / 2.0, _uniform_probs(h)
            logits = np.log(uniform) - scale * risks
            log_priors[underflow] = (logits + scale * _annealed(risks, uniform, scale)[:, None])[underflow]
        ratios = np.abs(log_priors[types] - log_priors[len(rows) :])
        worst = max(worst, float(np.max(ratios, initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# The union-bound grid
# ---------------------------------------------------------------------------


#: The most points :func:`union_beta_grid` returns, and the largest log v - log u it spans.
_UNION_GRID_POINTS = 10**7
_UNION_GRID_SPAN = 709.0


def union_beta_grid(n: int, alpha: float, v: float, sigma: float) -> np.ndarray:
    """The geometric inverse-temperature grid underlying the union-bound price.

    Starts at u = min(sqrt(2 alpha) / sigma, v) / sqrt(n), which squares no
    sigma, and multiplies by alpha until v is covered: the count is
    ceil((log v - log u) / log alpha), and v / u is never formed.  The grid
    is positive, finite and geometric, so three inputs are refused with a
    DomainError: a start u below the smallest normal float (a subnormal v,
    or a sigma near the largest float), where the grid would underflow; a
    span log v - log u above 709 (v / u above about 8e307), where the
    powers of alpha would overflow; and a grid of more than 10^7 points
    (80 MB), which an alpha within about 1e-6 of 1 asks for.
    """
    if not _is_positive_integer(n):
        raise DomainError("n must be a positive integer")
    if not alpha > 1 or not v > 0 or not sigma > 0:
        raise DomainError("need alpha > 1, v > 0, sigma > 0")
    if math.inf in (alpha, v, sigma):
        raise DomainError("alpha, v and sigma must be finite")
    u = min(math.sqrt(2.0 * alpha) / sigma, v) / math.sqrt(n)
    if not u >= np.finfo(float).tiny:
        raise DomainError("the grid's start min(sqrt(2 alpha) / sigma, v) / sqrt(n) underflows the normal floats")
    span = math.log(v) - math.log(u)
    if span > _UNION_GRID_SPAN:
        raise DomainError(f"the grid spans log v - log u > {_UNION_GRID_SPAN:g}, where the powers of alpha overflow")
    count = max(math.ceil(span / math.log(alpha)), 1)
    if count > _UNION_GRID_POINTS:
        raise DomainError(f"the grid would hold more than {_UNION_GRID_POINTS} points: alpha is too close to 1")
    return u * alpha ** np.arange(count)
