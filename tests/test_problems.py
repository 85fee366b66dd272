"""Tests for finite problems: risks, annealed risks, enumeration."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbounds import (
    BudgetError,
    DiscreteDist,
    DomainError,
    FiniteProblem,
    annealed_risks,
    empirical_risks,
    iter_samples,
    iter_types,
    phi_beta,
    true_risks,
)
from genbounds.problems import _sample_risks, tabulate
from conftest import random_problem


def test_construction_validation():
    with pytest.raises(DomainError):
        FiniteProblem(losses=[[math.inf]], mu=DiscreteDist([1.0]), n=1)
    with pytest.raises(DomainError):
        FiniteProblem(losses=[[0.0, 1.0]], mu=DiscreteDist([0.5, 0.5]), n=0)


@pytest.mark.parametrize("n", [math.nan, 2.5, True])
def test_sample_size_must_be_an_integer(n):
    with pytest.raises(DomainError, match="n must be a positive integer"):
        FiniteProblem(losses=[[0.0, 1.0]], mu=DiscreteDist([0.5, 0.5]), n=n)


def test_numpy_integer_sample_size_is_accepted():
    assert FiniteProblem(losses=[[0.0, 1.0]], mu=DiscreteDist([0.5, 0.5]), n=np.int64(3)).n == 3


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


def test_sample_entries_must_be_integers():
    problem = FiniteProblem(losses=[[0.0, 1.0], [1.0, 0.0]], mu=DiscreteDist([0.5, 0.5]), n=3)
    for sample in (
        [0.7, 1.2, 0.0],
        [0.9, 0.9, 0.9],
        [0.0, math.nan, 1.0],
        [True, False, True],
        [1, True, 0],
        np.array([True, False]),
        ["0", "1"],
    ):
        with pytest.raises(DomainError):
            empirical_risks(problem, sample)
    # Integral floats and NumPy integers are outcome indices like any other.
    assert np.array_equal(empirical_risks(problem, [1.0, 0.0, 1.0]), empirical_risks(problem, [1, 0, 1]))
    assert np.array_equal(
        empirical_risks(problem, np.array([1, 0, 1], dtype=np.uint8)), empirical_risks(problem, [1, 0, 1])
    )


@st.composite
def loss_matrix_and_sample(draw):
    h, k = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    losses = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k), min_size=h, max_size=h))
    sample = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=120))
    return np.array(losses), sample, draw(st.permutations(sample))


@given(loss_matrix_and_sample())
@settings(max_examples=200, deadline=None)
def test_empirical_risks_depend_on_the_type_alone(case):
    losses, sample, permuted = case
    problem = FiniteProblem(losses=losses, mu=DiscreteDist.uniform(losses.shape[1]), n=len(sample))
    risks = empirical_risks(problem, sample)
    assert np.array_equal(risks, empirical_risks(problem, permuted))
    # A dot product over k counts against a sum of n losses in [0, 1]: their
    # rounding errors together stay under (k + n) eps.
    tolerance = (losses.shape[1] + len(sample)) * np.finfo(float).eps
    assert np.all(np.abs(risks - losses[:, sample].mean(axis=1)) <= tolerance)


def test_the_risks_of_a_block_of_samples_equal_the_one_sample_risks_bit_for_bit(rng):
    for _ in range(200):
        h, k, n = (int(x) for x in rng.integers(1, [6, 7, 60]))
        problem = random_problem(rng, h, k, n)
        samples = rng.integers(0, k, size=(int(rng.integers(1, 20)), n))
        want = np.array([empirical_risks(problem, sample) for sample in samples])
        assert _sample_risks(problem, samples).tobytes() == want.tobytes()


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

    def test_budget_error_names_the_sequence_count(self, rng):
        problem = random_problem(rng, 2, 2, n=25)
        with pytest.raises(BudgetError, match="enumerating 33554432 sequences exceeds the budget of 1000000"):
            list(iter_samples(problem))

    @pytest.mark.parametrize("k, n, budget, fits", [(2, 25, 10**6, "n ≤ 19 fits"), (3, 5, 26, "n ≤ 2 fits"),
                                                    (2, 3, 1, "no n fits")], ids=["k2", "k3", "none"])
    def test_budget_error_names_the_largest_n_that_fits(self, k, n, budget, fits):
        problem = random_problem(np.random.default_rng(k), 2, k, n=n)
        with pytest.raises(BudgetError, match=f"sequences exceeds the budget of {budget}; {fits}$"):
            list(iter_samples(problem, budget=budget))
        with pytest.raises(BudgetError, match=f"; {fits}$"):
            tabulate(problem, lambda sample: None, budget=budget)

    def test_a_count_too_long_to_print_is_shown_by_its_magnitude(self, rng):
        problem = random_problem(rng, 2, 2, n=100_000)
        with pytest.raises(BudgetError, match=r"^enumerating about 10\^30103 sequences .*; n ≤ 19 fits$"):
            list(iter_samples(problem))


class TestIterTypes:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_one_sorted_sample_per_type_weighted_by_its_sequences(self, n, k):
        problem = random_problem(np.random.default_rng([n, k]), 2, k, n=n)
        types = list(iter_types(problem))
        assert len(types) == math.comb(n + k - 1, k - 1)
        assert math.fsum(w for _, w in types) == pytest.approx(1.0, abs=1e-12)
        by_type = {}
        for sample, weight in iter_samples(problem):
            key = tuple(np.sort(sample))
            by_type[key] = by_type.get(key, 0.0) + weight
        assert [tuple(s) for s, _ in types] == sorted(by_type)
        for sample, weight in types:
            assert weight == pytest.approx(by_type[tuple(sample)], rel=1e-12)

    def test_zero_mass_outcomes_give_zero_weight_types(self):
        problem = FiniteProblem(losses=[[0.0, 1.0, 0.5]], mu=DiscreteDist([0.5, 0.5, 0.0]), n=3)
        weights = {tuple(s): w for s, w in iter_types(problem)}
        assert weights[(0, 1, 1)] == 0.375 and weights[(0, 0, 2)] == 0.0

    def test_budget_error_names_the_type_count(self, rng):
        problem = random_problem(rng, 2, 3, n=4)
        with pytest.raises(BudgetError, match="enumerating 15 types exceeds the budget of 10"):
            list(iter_types(problem, budget=10))

    @pytest.mark.parametrize("mu", [[0.5, 0.5], [0.3, 0.7]])
    def test_weights_beyond_the_float_range_of_the_multinomial(self, mu):
        # C(2000, 1000) is about 2^1995 and 0.5^2000 is below every float.
        problem = FiniteProblem(losses=[[0.0, 1.0]], mu=DiscreteDist(mu), n=2000)
        types = list(iter_types(problem))
        assert len(types) == 2001
        assert math.fsum(w for _, w in types) == pytest.approx(1.0, abs=1e-9)
        p, q = (Fraction(float(m)) for m in problem.mu.probs)
        checked = 0
        for sample, weight in types[::40]:
            c = int(np.sum(sample == 0))
            exact = math.comb(2000, c) * p**c * q ** (2000 - c)
            if exact > 1e-290:
                assert abs(Fraction(weight) - exact) <= 1e-9 * exact
                checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("k, n, budget, fits", [(3, 4, 10, "n ≤ 3 fits"), (2, 200, 100, "n ≤ 99 fits"),
                                                    (5, 10**6, 10**6, "n ≤ 67 fits")], ids=["k3", "k2", "k5"])
    def test_budget_error_names_the_largest_n_that_fits(self, k, n, budget, fits):
        problem = random_problem(np.random.default_rng(k), 2, k, n=n)
        with pytest.raises(BudgetError, match=f"types exceeds the budget of {budget}; {fits}$"):
            list(iter_types(problem, budget=budget))
