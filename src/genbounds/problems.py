"""Finite learning problems on which every risk quantity is exactly computable."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.special import logsumexp

from .divergences import DiscreteDist
from .errors import BudgetError, DomainError, ShapeError

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
        if self.n < 1:
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
    if np.any(s < 0) or np.any(s >= problem.num_outcomes):
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
    return -logsumexp(-beta * problem.losses, b=problem.mu.probs[None, :], axis=1) / beta


def iter_samples(
    problem: FiniteProblem, budget: int = ENUMERATION_BUDGET
) -> Iterator[tuple[np.ndarray, float]]:
    """Yield every sample of length n with its product-measure weight.

    Raises :class:`BudgetError` when the outcome space is too large to
    enumerate exhaustively.
    """
    count = problem.num_outcomes**problem.n
    if count > budget:
        raise BudgetError(
            f"enumerating {count} samples exceeds the budget of {budget}"
        )
    mu = problem.mu.probs
    for tup in itertools.product(range(problem.num_outcomes), repeat=problem.n):
        sample = np.array(tup, dtype=int)
        yield sample, float(np.prod(mu[sample]))


def tabulate(
    problem: FiniteProblem, rule, budget: int = ENUMERATION_BUDGET
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every sample as one table row: (samples, weights, risks, probs).

    Row r holds the r-th sample of :func:`iter_samples`, its product-measure
    weight, its per-hypothesis empirical risks and ``rule(sample).probs``.
    Sample s sits at row sum_i s_i k^(n-1-i), so changing coordinate i to z
    moves it by (z - s_i) k^(n-1-i) rows.
    """
    samples, weights, risks, probs = [], [], [], []
    for sample, weight in iter_samples(problem, budget=budget):
        samples.append(sample)
        weights.append(weight)
        risks.append(empirical_risks(problem, sample))
        probs.append(rule(sample).probs)
    return np.array(samples), np.array(weights), np.array(risks), np.array(probs)
