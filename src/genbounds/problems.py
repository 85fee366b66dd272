"""Finite learning problems on which every risk quantity is exactly computable.

The exact checks enumerate samples in one of two tables.  The sequence table
(:func:`tabulate`, rows from :func:`iter_samples`) has one row per sample,
k^n in all.  The type table (:func:`tabulate_types`, rows from
:func:`iter_types`) has one row per count vector, C(n + k - 1, k - 1) in all,
weighted by the multinomial probability of the type; it represents any rule
that sees a sample only through its type, as the empirical risks do.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .divergences import DiscreteDist, _logsumexp
from .errors import BudgetError, DomainError, ShapeError, _is_positive_integer

#: Default ceiling on the number of samples an exhaustive enumeration may visit.
ENUMERATION_BUDGET = 10**6


@dataclass(frozen=True)
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


def _check_sample(problem: FiniteProblem, sample) -> np.ndarray:
    s = np.asarray(sample)
    if s.ndim != 1 or s.size == 0:
        raise DomainError("a sample must be a nonempty 1-D list of outcome indices")
    # NumPy turns a list mixing bools and ints into ints, so look at its entries.
    has_bool = s.dtype.kind == "b" or (
        not isinstance(sample, np.ndarray) and any(isinstance(x, (bool, np.bool_)) for x in sample)
    )
    # A cast would truncate 0.7 to 0; integral floats such as 1.0 pass.
    integral = s.dtype.kind in "iu" or (
        s.dtype.kind == "f" and bool(np.all(np.isfinite(s) & (s == np.round(s))))
    )
    if has_bool or not integral:
        raise DomainError("sample entries must be integer outcome indices")
    if s.min() < 0 or s.max() >= problem.num_outcomes:
        raise DomainError("sample contains out-of-range outcome indices")
    return s.astype(int, copy=False)


def true_risks(problem: FiniteProblem) -> np.ndarray:
    """Population risks of all hypotheses: the mu-expectation of each loss row."""
    return problem.losses @ problem.mu.probs


def empirical_risks(problem: FiniteProblem, sample) -> np.ndarray:
    """Per-hypothesis average loss on a sample of outcome indices.

    Computed from the sample's type (its count vector), so it is exactly the
    same for every ordering of the sample and costs O(h k), not O(h n).
    """
    s = _check_sample(problem, sample)
    return problem.losses @ np.bincount(s, minlength=problem.num_outcomes) / s.size


def annealed_risks(problem: FiniteProblem, beta: float) -> np.ndarray:
    """Annealed risks -log E_mu[exp(-beta * loss(w, Z))] / beta of all hypotheses.

    A soft-min surrogate for the true risk, computed by log-sum-exp: it never
    exceeds it and is nonincreasing in beta.
    """
    if beta <= 0:
        raise DomainError("beta must be positive")
    return -_logsumexp(-beta * problem.losses, problem.mu.probs[None, :], axis=1) / beta


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
    """Yield one sorted sample per type (count vector c) with the type's probability.

    The weight n! / prod_j c_j! * prod_j mu_j^c_j is the mass of all samples
    of that type.  Types come in lexicographic order of their sorted samples.
    Raises :class:`BudgetError` when the C(n + k - 1, k - 1) types are too
    many to enumerate exhaustively.
    """
    k, n = problem.num_outcomes, problem.n
    _check_budget("enumerating {} types", lambda m: math.comb(m + k - 1, k - 1), n, budget)
    mu = problem.mu.probs
    for tup in itertools.combinations_with_replacement(range(k), n):
        sample = np.array(tup, dtype=int)
        counts = np.bincount(sample, minlength=k)
        multinomial, left = 1, n
        for c in counts.tolist():
            multinomial *= math.comb(left, c)
            left -= c
        yield sample, multinomial * float(np.prod(mu**counts))


def _type_radix(problem: FiniteProblem) -> np.ndarray:
    """Place values of the base-(n + 1) code sum_j c_j (n + 1)^(k-1-j) of a count vector.

    A sample's code is ``_type_radix(problem)[sample].sum()``.  Codes descend
    strictly along :func:`iter_types`.  They are Python integers where int64
    could overflow.
    """
    k, n = problem.num_outcomes, problem.n
    dtype = np.int64 if (n + 1) ** k <= np.iinfo(np.int64).max else object
    return np.array([(n + 1) ** (k - 1 - j) for j in range(k)], dtype=dtype)


def _type_rows(type_codes: np.ndarray, codes) -> np.ndarray:
    """Rows of the type table, whose codes are ``type_codes``, holding each of ``codes``."""
    return len(type_codes) - 1 - np.searchsorted(type_codes[::-1], codes)


def _type_neighbors(problem: FiniteProblem, samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs of the type table ``samples`` whose types are neighbours.

    Changing one coordinate of a sample from a to b moves one count from a
    to b, so every (row, a, b) with a != b and c_a >= 1 gives one pair.
    """
    k = problem.num_outcomes
    radix = _type_radix(problem)
    codes = radix[samples].sum(axis=1)
    present = (samples[:, :, None] == np.arange(k)).any(axis=1)
    rows, a, b = np.nonzero(present[:, :, None] & ~np.eye(k, dtype=bool))
    return rows, _type_rows(codes, codes[rows] - radix[a] + radix[b])


def _type_table(problem: FiniteProblem, budget: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    samples, weights = zip(*iter_types(problem, budget=budget))
    risks = [empirical_risks(problem, sample) for sample in samples]
    return np.array(samples), np.array(weights), np.array(risks)


def tabulate_types(
    problem: FiniteProblem, rule, budget: int = ENUMERATION_BUDGET
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every sample type as one table row: (samples, weights, risks, probs).

    Row r holds the r-th sample of :func:`iter_types`, the probability of
    its type, its per-hypothesis empirical risks and ``rule(sample).probs``.
    Only a rule that sees the sample through its type is faithfully
    represented.
    """
    samples, weights, risks = _type_table(problem, budget)
    return samples, weights, risks, np.array([rule(sample).probs for sample in samples])


def tabulate(
    problem: FiniteProblem, rule, budget: int = ENUMERATION_BUDGET
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every sample as one table row: (samples, weights, risks, probs).

    Row r holds the r-th sample of :func:`iter_samples`, its product-measure
    weight, its per-hypothesis empirical risks and ``rule(sample).probs``.
    Sample s sits at row sum_i s_i k^(n-1-i), so changing coordinate i to z
    moves it by (z - s_i) k^(n-1-i) rows.  The risks are those of the
    sample's type, which :func:`empirical_risks` gives every ordering.
    """
    k, n = problem.num_outcomes, problem.n
    _check_budget("enumerating {} sequences", lambda m: k**m, n, budget)
    samples = np.arange(k**n)[:, None] // k ** np.arange(n - 1, -1, -1) % k
    weights = np.prod(problem.mu.probs[samples], axis=1)
    types, _, type_risks = _type_table(problem, budget)
    radix = _type_radix(problem)
    risks = type_risks[_type_rows(radix[types].sum(axis=1), radix[samples].sum(axis=1))]
    return samples, weights, risks, np.array([rule(sample).probs for sample in samples])
