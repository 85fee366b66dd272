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
    s = np.asarray(sample, dtype=int)
    if s.ndim != 1 or s.size == 0:
        raise DomainError("a sample must be a nonempty 1-D list of outcome indices")
    if np.any(s < 0) or np.any(s >= problem.num_outcomes):
        raise DomainError("sample contains out-of-range outcome indices")
    return s


def true_risks(problem: FiniteProblem) -> np.ndarray:
    """Population risks of all hypotheses: the mu-expectation of each loss row."""
    return problem.losses @ problem.mu.probs


def empirical_risks(problem: FiniteProblem, sample) -> np.ndarray:
    """Per-hypothesis average loss on a sample of outcome indices."""
    s = _check_sample(problem, sample)
    return problem.losses[:, s].mean(axis=1)


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
