"""Finite learning problems on which every risk quantity is exactly computable.

The exact checks enumerate samples in one of two tables, which hold data
only: each returns (samples, weights, risks) and takes no learning rule.
The sequence table (:func:`tabulate`) has one row per sample, k^n in all, in
the order of :func:`iter_samples`.  The type table (:func:`tabulate_types`)
has one count row per type, C(n + k - 1, k - 1) in all, weighted by the
multinomial probability of the type, a chain of binomial probabilities in
Loader's form (:func:`_binomial_pmf`, whose :func:`_stirlerr` and
:func:`_bd0` the Clopper-Pearson bound also reads); it represents any rule
that sees a sample only through its type, as the empirical risks do, and is
read by the same row kernels as the certification's blocks of drawn types.
Both tables take their risks from one count-row kernel, :func:`_count_risks`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .divergences import _SHORT_ROW, DiscreteDist
from .errors import BudgetError, DomainError, ShapeError, _is_positive_integer, _require_scale
from .losses import _annealed

#: Default ceiling on the number of samples an exhaustive enumeration may visit.
ENUMERATION_BUDGET = 10**6

_OUT_OF_RANGE = "sample contains out-of-range outcome indices"


@dataclass(frozen=True, eq=False)
class FiniteProblem:
    """A loss matrix over (hypothesis, outcome), a data distribution, and a sample size."""

    losses: np.ndarray
    mu: DiscreteDist
    n: int

    def __post_init__(self) -> None:
        losses = np.asarray(self.losses, dtype=float)
        if losses.ndim != 2 or losses.size == 0:
            raise ShapeError("losses must be a nonempty (hypotheses x outcomes) matrix")
        if not np.all(np.isfinite(losses)):
            raise DomainError("loss entries must be finite")
        if losses.shape[1] != len(self.mu):
            raise ShapeError("mu must have one entry per outcome column")
        if not _is_positive_integer(self.n):
            raise DomainError("n must be a positive integer")
        object.__setattr__(self, "losses", losses)

    @property
    def num_hypotheses(self) -> int:
        return self.losses.shape[0]

    @property
    def num_outcomes(self) -> int:
        return self.losses.shape[1]

    @property
    def has_binary_losses(self) -> bool:
        return bool(np.all((self.losses == 0.0) | (self.losses == 1.0)))

    @property
    def has_unit_losses(self) -> bool:
        return bool(np.all((self.losses >= 0.0) & (self.losses <= 1.0)))


def _is_integral(values: np.ndarray) -> bool:
    """True for an integer array, or a float array of finite integral entries such as 1.0.

    A cast to int would truncate 0.7 to 0, so callers refuse what fails this.
    """
    return values.dtype.kind in "iu" or (
        values.dtype.kind == "f" and bool(np.all(np.isfinite(values) & (values == np.round(values))))
    )


def true_risks(problem: FiniteProblem) -> np.ndarray:
    """Population risks of all hypotheses: the mu-expectation of each loss row, within its range."""
    return _within_rows(problem, problem.losses @ problem.mu.probs)


def empirical_risks(problem: FiniteProblem, sample) -> np.ndarray:
    """Per-hypothesis average loss on a sample of outcome indices.

    Computed from the sample's type (its count vector), so it is exactly the
    same for every ordering of the sample and costs O(h k), not O(h n).  A
    rule called once per sample calls this once per sample, so an integer
    array, which the sample tables hold, skips the entry checks that a list
    or a float array takes; each sample gives the bits of its integer array.
    """
    s = np.asarray(sample)
    if s.ndim != 1 or s.size == 0:
        raise DomainError("a sample must be a nonempty 1-D list of outcome indices")
    kind = s.dtype.kind
    if kind not in "iu" or not isinstance(sample, np.ndarray):
        # NumPy turns a list mixing bools and ints into ints, so look at its entries.
        has_bool = not isinstance(sample, np.ndarray) and any(isinstance(x, (bool, np.bool_)) for x in sample)
        if has_bool or not _is_integral(s):
            raise DomainError("sample entries must be integer outcome indices")
    # The largest index is checked before bincount would allocate that many
    # bins, on a short sample as a Python number; bincount refuses a negative
    # one itself.  A float below the int64 range has no integer to cast to,
    # so floats check both ends.
    k = problem.num_outcomes
    peak = max(s.tolist()) if s.size <= _SHORT_ROW else np.maximum.reduce(s)
    if not peak < k or (kind == "f" and np.minimum.reduce(s) < 0):
        raise DomainError(_OUT_OF_RANGE)
    try:
        counts = np.bincount(s.astype(int, copy=False), minlength=k)
    except ValueError:
        raise DomainError(_OUT_OF_RANGE) from None
    # ndarray.dot calls the matrix-vector product with less overhead than the @ operator, to the same bits,
    # and dividing in place by a Python float costs less than by an int.
    risks = problem.losses.dot(counts)
    risks /= float(s.size)
    return risks


def annealed_risks(problem: FiniteProblem, beta: float) -> np.ndarray:
    """Annealed risks -log E_mu[exp(-beta * loss(w, Z))] / beta of all hypotheses.

    A soft-min surrogate for the true risk by the annealing kernel of ``losses``: it never exceeds
    it, is nonincreasing in beta, and keeps its relative precision as beta -> 0.
    """
    _require_scale("beta", beta)  # -inf * a zero loss is NaN
    return _within_rows(problem, _annealed(problem.losses, problem.mu.probs, beta))


def _within_rows(problem: FiniteProblem, risks: np.ndarray) -> np.ndarray:
    """Each risk clipped to its loss row's [min, max], where a true or annealed risk lies exactly.

    Rounding, and mu's masses summing to 1 only within an ulp, can leave it: a constant-1 row gets 1 + 2^-52.
    """
    return np.minimum(np.maximum(risks, problem.losses.min(axis=1)), problem.losses.max(axis=1))


def _check_budget(what: str, count, n: int, budget: int) -> None:
    """Raise :class:`BudgetError` if ``count(n)`` exceeds the budget, naming the largest n that fits.

    ``what`` formats the count for the message; ``count`` is nondecreasing in n.
    """
    size = count(n)
    if size > budget:
        lo, hi = 0, 1  # lo fits (or is 0); grow hi until it does not, then bisect
        while hi < n and count(hi) <= budget:
            lo, hi = hi, 2 * hi
        hi = min(hi, n)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if count(mid) <= budget else (lo, mid)
        fits = f"n ≤ {lo} fits" if lo else "no n fits"
        shown = size if size < 10**100 else f"about 10^{math.log10(size):.0f}"
        raise BudgetError(f"{what.format(shown)} exceeds the budget of {budget}; {fits}")


def iter_samples(
    problem: FiniteProblem, budget: int = ENUMERATION_BUDGET
) -> Iterator[tuple[np.ndarray, float]]:
    """Yield every sample of length n with its product-measure weight.

    Raises :class:`BudgetError` when the k^n sequences are too many to
    enumerate exhaustively.
    """
    k = problem.num_outcomes
    _check_budget("enumerating {} sequences", lambda m: k**m, problem.n, budget)
    mu = problem.mu.probs
    for tup in itertools.product(range(k), repeat=problem.n):
        sample = np.array(tup, dtype=int)
        yield sample, float(np.prod(mu[sample]))


def _count_risks(problem: FiniteProblem, counts: np.ndarray) -> np.ndarray:
    """The empirical risks of each row of sample counts, each as :func:`empirical_risks` gives it."""
    return np.matmul(problem.losses[None], counts[:, :, None].astype(float))[:, :, 0] / problem.n


def _sample_risks(problem: FiniteProblem, samples: np.ndarray) -> np.ndarray:
    """:func:`_count_risks` of each row of an (m, n) array of in-range outcome indices.

    The rows' counts come from one ``bincount``, each row's outcomes offset by
    k times the row.
    """
    k, rows = problem.num_outcomes, len(samples)
    counts = np.bincount((samples + k * np.arange(rows)[:, None]).ravel(), minlength=rows * k)
    return _count_risks(problem, counts.reshape(rows, k))


def tabulate_types(
    problem: FiniteProblem, budget: int = ENUMERATION_BUDGET
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every sample type as one count row: (counts, weights, risks).

    Row r holds a count vector c, the probability n! / prod_j c_j! * prod_j
    mu_j^c_j of all samples of that type and the per-hypothesis empirical
    risks of :func:`_count_risks`.  The rows run in lexicographic order of
    their sorted samples: c_0 descending, then c_1, and so on.  They are
    built by splitting the last count of every row k - 1 times; split j
    keeps c_j of the r = c_j + ... + c_{k-1} draws in outcome j, which
    multiplies the row's weight by Bin(c_j; r, mu_j / (mu_j + ... + mu_{k-1})),
    or by [c_j = r] where that tail has no mass.  Raises :class:`BudgetError`
    when the C(n + k - 1, k - 1) types are too many to enumerate exhaustively.
    """
    k, n = problem.num_outcomes, problem.n
    _check_budget("enumerating {} types", lambda m: math.comb(m + k - 1, k - 1), n, budget)
    mu = problem.mu.probs
    tails = np.cumsum(mu[::-1])[::-1]
    counts, weights = np.full((1, 1), n), np.ones(1)
    for j in range(k - 1):
        sizes = counts[:, -1] + 1
        counts = np.repeat(counts, sizes, axis=0)
        moved = np.arange(len(counts)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        counts = np.column_stack([counts[:, :-1], counts[:, -1] - moved, moved])
        p, q = (mu[j] / tails[j], tails[j + 1] / tails[j]) if tails[j] > 0 else (1.0, 0.0)
        weights = np.repeat(weights, sizes) * _binomial_pmf(counts[:, -2], counts[:, -2] + moved, p, q)
    return counts, weights, _count_risks(problem, counts)


#: log(n!) - (n + 1/2) log n + n - log sqrt(2 pi) for n < 16, rounded from 40-digit values.
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])

#: C(r, x) for r, x < 16, exact in floats.
_CHOOSE = np.array([[math.comb(r, x) for x in range(len(_STIRLERR))] for r in range(len(_STIRLERR))], dtype=float)


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """Stirling's formula's error for log(n!) at each float integer n >= 0: the table below 16, its series above."""
    big = np.maximum(n, len(_STIRLERR))
    nn = big * big
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / big
    return np.where(n < len(_STIRLERR), _STIRLERR[np.minimum(n, len(_STIRLERR) - 1).astype(int)], series)


def _bd0(x, m):
    """x log(x / m) + m - x for each integer x >= 0 and m >= 0, with 0 log 0 = 0 (Loader 2000).

    Where |x - m| < (x + m) / 10 it is the series in v = (x - m) / (x + m): its terms fall by v^2 < 1/100, so ten
    reach every bit a double holds.  It takes arrays, or numbers, which stay Python floats (the series at a sixth
    of a 2-array's cost); numbers need x, m > 0.  An array with x = 0 or m = 0 divides by 0 under ``np.errstate``.
    """
    d = x - m
    v = d / (x + m)
    s, e, v2 = d * v, 2 * x * v, v * v
    for j in range(3, 23, 2):
        e = e * v2
        s = s + e / j
    if isinstance(d, float):
        return s if abs(d) < 0.1 * (x + m) else x * math.log(x / m) - d
    return np.where(abs(d) < 0.1 * (x + m), s, np.where(x > 0, x * np.log(x / m) - d, m))


def _binomial_pmf(x: np.ndarray, r: np.ndarray, p: float, q: float) -> np.ndarray:
    """C(r, x) p^x q^(r - x) for each pair of integers 0 <= x <= r, where p + q = 1 and p or q may be 0.

    Below r = 16 it is that product, C(r, x) from a table.  From r = 16 up it is Loader's saddle-point form ("Fast
    and accurate computation of binomial probabilities", 2000), with no binomial coefficient or lgamma formed, and
    without its 1 / sqrt(2 pi x (r - x) / r) where x is 0 or r.
    """
    small = r < len(_STIRLERR)
    if small.all():
        return _CHOOSE[r, x] * p**x * q ** (r - x)
    pmf = np.empty(len(x))
    pmf[small] = _binomial_pmf(x[small], r[small], p, q)
    x, r = x[~small].astype(float), r[~small].astype(float)
    y = r - x
    with np.errstate(divide="ignore", invalid="ignore"):  # bd0 at x = 0 and at p or q = 0
        log_pmf = _stirlerr(r) - _stirlerr(x) - _stirlerr(y) - _bd0(x, r * p) - _bd0(y, r * q)
    pmf[~small] = np.exp(log_pmf - 0.5 * np.log(np.where((x > 0) & (y > 0), 2 * np.pi * (x * y / r), 1.0)))
    return pmf


def tabulate(
    problem: FiniteProblem, budget: int = ENUMERATION_BUDGET
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every sample as one table row: (samples, weights, risks).

    Row r holds the r-th sample of :func:`iter_samples`, its product-measure
    weight and its per-hypothesis empirical risks.  Sample s sits at row
    sum_i s_i k^(n-1-i), so changing coordinate i to z moves it by
    (z - s_i) k^(n-1-i) rows.  The risks are :func:`_sample_risks`, from the
    samples' count vectors, so every ordering of a type has its risks.
    """
    k, n = problem.num_outcomes, problem.n
    _check_budget("enumerating {} sequences", lambda m: k**m, n, budget)
    samples = np.arange(k**n)[:, None] // k ** np.arange(n - 1, -1, -1) % k
    return samples, np.prod(problem.mu.probs[samples], axis=1), _sample_risks(problem, samples)
