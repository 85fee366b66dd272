"""Tests for finite problems: risks, annealed risks, enumeration."""

import math

import numpy as np
import pytest

from genbounds import (
    BudgetError,
    DiscreteDist,
    DomainError,
    FiniteProblem,
    annealed_risks,
    empirical_risks,
    iter_samples,
    phi_beta,
    true_risks,
)
from conftest import random_problem


def test_construction_validation():
    with pytest.raises(DomainError):
        FiniteProblem(losses=[[math.inf]], mu=DiscreteDist([1.0]), n=1)
    with pytest.raises(DomainError):
        FiniteProblem(losses=[[0.0, 1.0]], mu=DiscreteDist([0.5, 0.5]), n=0)


def test_true_risk_point_mass():
    problem = FiniteProblem(losses=[[0.3, 0.9]], mu=DiscreteDist([0.0, 1.0]), n=2)
    assert true_risks(problem)[0] == pytest.approx(0.9)


def test_true_risk_uniform():
    problem = FiniteProblem(losses=[[0.0, 1.0]], mu=DiscreteDist([0.5, 0.5]), n=2)
    assert true_risks(problem)[0] == pytest.approx(0.5)


def test_true_risk_matches_monte_carlo(rng):
    problem = random_problem(rng, 3, 4, n=5)
    draws = rng.choice(4, size=10**6, p=problem.mu.probs)
    for w in range(3):
        mc = problem.losses[w, draws]
        se = mc.std(ddof=1) / math.sqrt(mc.size)
        assert abs(true_risks(problem)[w] - mc.mean()) <= 3 * se


def test_empirical_risks():
    problem = FiniteProblem(losses=[[0.0, 1.0], [1.0, 0.0]], mu=DiscreteDist([0.5, 0.5]), n=4)
    risks = empirical_risks(problem, [0, 0, 1, 1])
    assert np.allclose(risks, [0.5, 0.5])
    with pytest.raises(DomainError):
        empirical_risks(problem, [0, 2, 0, 0])


class TestAnnealedExpectation:
    def test_constant_loss_is_fixed_point(self):
        problem = FiniteProblem(losses=[[0.7, 0.7]], mu=DiscreteDist([0.3, 0.7]), n=1)
        for beta in (0.1, 1.0, 10.0):
            assert annealed_risks(problem, beta)[0] == pytest.approx(0.7, abs=1e-12)

    def test_bernoulli_matches_phi(self):
        # For a {0,1} loss with mean p the annealed risk equals phi_beta(p).
        problem = FiniteProblem(losses=[[0.0, 1.0]], mu=DiscreteDist([0.6, 0.4]), n=1)
        for beta in (0.25, 1.0, 4.0):
            assert annealed_risks(problem, beta)[0] == pytest.approx(phi_beta(beta, 0.4), abs=1e-12)

    def test_uniform_binary_at_log2(self):
        problem = FiniteProblem(losses=[[0.0, 1.0]], mu=DiscreteDist([0.5, 0.5]), n=1)
        assert annealed_risks(problem, math.log(2.0))[0] == pytest.approx(
            0.41503749927884382, abs=1e-12
        )

    def test_nonincreasing_in_beta(self, rng):
        for _ in range(10):
            problem = random_problem(rng, 4, 3, n=2)
            betas = np.linspace(0.05, 12.0, 40)
            for w in range(4):
                values = [annealed_risks(problem, b)[w] for b in betas]
                assert np.all(np.diff(values) <= 1e-12)

    def test_dominated_by_true_risk(self, rng):
        for _ in range(20):
            problem = random_problem(rng, 3, 4, n=2)
            for beta in (0.1, 1.0, 5.0):
                annealed = annealed_risks(problem, beta)
                assert np.all(annealed <= true_risks(problem) + 1e-12)

    def test_beta_must_be_positive(self, rng):
        problem = random_problem(rng, 2, 2, n=1)
        with pytest.raises(DomainError):
            annealed_risks(problem, 0.0)


class TestIterSamples:
    def test_weights_sum_to_one(self, rng):
        problem = random_problem(rng, 2, 3, n=4)
        weights = [w for _, w in iter_samples(problem)]
        assert len(weights) == 3**4
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_budget_error(self, rng):
        problem = random_problem(rng, 2, 2, n=30)
        with pytest.raises(BudgetError):
            list(iter_samples(problem))
