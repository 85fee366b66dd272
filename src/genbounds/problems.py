"""Finite learning problems on which every risk quantity is exactly computable.

The exact checks enumerate samples in one of two tables.  The sequence table
(:func:`tabulate`) has one row per sample, k^n in all, in the order of
:func:`iter_samples`.  The type table (:func:`tabulate_types`) has one count
row per type, C(n + k - 1, k - 1) in all, weighted by the multinomial
probability of the type; it represents any rule that sees a sample only
through its type, as the empirical risks do, and is read by the same row
kernels as the certification's blocks of drawn types.  Both tables take
their risks from one count-row kernel, :func:`_count_risks`.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .divergences import DiscreteDist, _logsumexp
from .errors import BudgetError, DomainError, ShapeError, _is_positive_integer

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
    same for every ordering of the sample and costs O(h k), not O(h n).
    """
    s = np.asarray(sample)
    if s.ndim != 1 or s.size == 0:
        raise DomainError("a sample must be a nonempty 1-D list of outcome indices")
    # NumPy turns a list mixing bools and ints into ints, so look at its entries.
    has_bool = not isinstance(sample, np.ndarray) and any(isinstance(x, (bool, np.bool_)) for x in sample)
    if has_bool or not _is_integral(s):
        raise DomainError("sample entries must be integer outcome indices")
    # The largest index is checked before bincount would allocate that many
    # bins; bincount refuses a negative one itself.  A float below the int64
    # range has no integer to cast to, so floats check both ends.
    if not np.maximum.reduce(s) < problem.num_outcomes or (s.dtype.kind == "f" and np.minimum.reduce(s) < 0):
        raise DomainError(_OUT_OF_RANGE)
    try:
        counts = np.bincount(s.astype(int, copy=False), minlength=problem.num_outcomes)
    except ValueError:
        raise DomainError(_OUT_OF_RANGE) from None
    return problem.losses @ counts / s.size


def annealed_risks(problem: FiniteProblem, beta: float) -> np.ndarray:
    """Annealed risks -log E_mu[exp(-beta * loss(w, Z))] / beta of all hypotheses.

    A soft-min surrogate for the true risk, computed by log-sum-exp: it never
    exceeds it and is nonincreasing in beta.
    """
    if not beta > 0:
        raise DomainError("beta must be positive")
    if beta == math.inf:  # -inf * a zero loss is NaN
        raise DomainError("beta must be finite")
    return _within_rows(problem, -_logsumexp(-beta * problem.losses, problem.mu.probs[None, :], axis=1) / beta)


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


def iter_types(
    problem: FiniteProblem, budget: int = ENUMERATION_BUDGET
) -> Iterator[tuple[np.ndarray, float]]:
    """Yield one sorted sample per type with the type's probability, the mass of its samples.

    Types come in the row order of :func:`tabulate_types`.  Raises
    :class:`BudgetError` when the C(n + k - 1, k - 1) types are too many to
    enumerate exhaustively.
    """
    counts, weights, _ = tabulate_types(problem, budget)
    outcomes = np.arange(problem.num_outcomes)
    for row, weight in zip(counts, weights.tolist()):
        yield np.repeat(outcomes, row), weight


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
    built by splitting the last count of every row k - 1 times; splitting r
    into (r - m, m) multiplies the row's exact multinomial by C(r, m).
    Raises :class:`BudgetError` when the C(n + k - 1, k - 1) types are too
    many to enumerate exhaustively.
    """
    k, n = problem.num_outcomes, problem.n
    _check_budget("enumerating {} types", lambda m: math.comb(m + k - 1, k - 1), n, budget)
    counts, multinomials = np.full((1, 1), n), [1]
    for _ in range(k - 1):
        last = counts[:, -1]
        sizes = last + 1
        counts = np.repeat(counts, sizes, axis=0)
        moved = np.arange(len(counts)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        counts = np.column_stack([counts[:, :-1], counts[:, -1] - moved, moved])
        multinomials = [m * c for m, r in zip(multinomials, last.tolist()) for c in _binomials(r)]
    return counts, _type_weights(counts, multinomials, problem.mu.probs), _count_risks(problem, counts)


def _binomials(r: int) -> Iterator[int]:
    """C(r, 0), C(r, 1), ..., C(r, r)."""
    c = 1
    for i in range(r + 1):
        yield c
        c = c * (r - i) // (i + 1)


def _type_weights(counts: np.ndarray, multinomials: list[int], mu: np.ndarray) -> np.ndarray:
    """The probability of each count row: its exact multinomial times prod_j mu_j^c_j.

    That product in floats where the multinomial fits in a float and
    prod_j mu_j^c_j is a normal float; elsewhere, where the integer would
    overflow or the float product lose its precision, the log of the exact
    multinomial plus sum_j c_j log mu_j, exponentiated.
    """
    products = np.prod(mu**counts, axis=1)
    fits = np.array([m <= sys.float_info.max for m in multinomials]) & (products >= sys.float_info.min)
    weights = np.empty(len(counts))
    weights[fits] = [m * p for m, p, f in zip(multinomials, products.tolist(), fits) if f]
    if not fits.all():
        rows = ~fits
        with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf, and 0 * -inf is dropped
            logs = np.where(counts[rows] > 0, counts[rows] * np.log(mu), 0.0).sum(axis=1)
        logs += [math.log(m) for m, f in zip(multinomials, fits) if not f]
        weights[rows] = np.exp(logs)
    return weights


def tabulate(
    problem: FiniteProblem, rule, budget: int = ENUMERATION_BUDGET
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every sample as one table row: (samples, weights, risks, probs).

    Row r holds the r-th sample of :func:`iter_samples`, its product-measure
    weight, its per-hypothesis empirical risks and ``rule(sample).probs``.
    Sample s sits at row sum_i s_i k^(n-1-i), so changing coordinate i to z
    moves it by (z - s_i) k^(n-1-i) rows.  The risks are :func:`_sample_risks`,
    from the samples' count vectors, so every ordering of a type has its risks.
    """
    k, n = problem.num_outcomes, problem.n
    _check_budget("enumerating {} sequences", lambda m: k**m, n, budget)
    rows = k**n
    samples = np.arange(rows)[:, None] // k ** np.arange(n - 1, -1, -1) % k
    weights = np.prod(problem.mu.probs[samples], axis=1)
    probs = np.array([rule(sample).probs for sample in samples])
    return samples, weights, _sample_risks(problem, samples), probs
