"""Tests for the certification harness: enumeration, experiments, privacy audit."""

import math

import numpy as np
import pytest

from genbounds import (
    BoundRequest,
    BoundSpec,
    BudgetError,
    ConfigurationError,
    DiscreteDist,
    ErmAlgorithm,
    FiniteProblem,
    GibbsAlgorithm,
    LossModel,
    PacBayesSgdParams,
    TrialConfig,
    annealed_risks,
    clopper_pearson_upper,
    cmi_exact_quantities,
    cmi_expectation,
    cmi_trial,
    conditional_kl,
    dp_mechanism_max_log_ratio,
    dp_prior_mechanism,
    draw_supersample,
    empirical_risks,
    enumerate_joint,
    iter_samples,
    kl_discrete,
    mutual_info,
    pacbayes_sgd_objective,
    run_cmi_experiment,
    run_dp_prior_experiment,
    run_violation_experiment,
    union_beta_grid,
    union_bound_beta,
    verify_expectation_bounds,
    violation_trial,
)
from conftest import random_problem


def standard_problem(n=50):
    """Four expert hypotheses over a fair coin: two per side, no perfect one."""
    return FiniteProblem(
        losses=[[0, 1], [1, 0], [0, 1], [1, 0]], mu=DiscreteDist([0.5, 0.5]), n=n
    )


def make_config(problem, bound, trials=400, seed=7, delta=0.05, beta=1.0, **kwargs):
    return TrialConfig(
        seed=seed,
        trials=trials,
        problem=problem,
        algorithm=kwargs.pop("algorithm", GibbsAlgorithm(beta_alg=5.0)),
        bound=BoundSpec(bound, {"beta": beta}),
        delta=delta,
        **kwargs,
    )


class TestAlgorithms:
    def test_erm_lowest_index_tie_break(self):
        problem = FiniteProblem(losses=[[0, 1], [0, 1], [1, 0]], mu=DiscreteDist([0.5, 0.5]), n=2)
        post = ErmAlgorithm().posterior(problem, [0, 0])
        assert np.allclose(post.probs, [1.0, 0.0, 0.0])

    def test_erm_uniform_tie_break(self):
        problem = FiniteProblem(losses=[[0, 1], [0, 1], [1, 0]], mu=DiscreteDist([0.5, 0.5]), n=2)
        post = ErmAlgorithm(tie_break="uniform").posterior(problem, [0, 0])
        assert np.allclose(post.probs, [0.5, 0.5, 0.0])

    def test_gibbs_uses_temperature_scaled_by_n(self, rng):
        problem = random_problem(rng, 3, 2, n=4)
        sample = [0, 1, 0, 1]
        post = GibbsAlgorithm(beta_alg=2.0).posterior(problem, sample)
        risks = empirical_risks(problem, sample)
        weights = np.exp(-4 * 2.0 * (risks - risks.min()))
        assert np.allclose(post.probs, weights / weights.sum())


class TestClopperPearson:
    def test_zero_violations(self):
        # 1 - 0.05^(1/n) closed form
        assert clopper_pearson_upper(0, 100) == pytest.approx(1 - 0.05 ** (1 / 100))

    def test_all_violations(self):
        assert clopper_pearson_upper(10, 10) == 1.0

    def test_monotone_in_violations(self):
        uppers = [clopper_pearson_upper(k, 50) for k in range(0, 51, 5)]
        assert np.all(np.diff(uppers) > 0)


class TestEnumerateJoint:
    def test_constant_algorithm_gives_product(self, rng):
        problem = random_problem(rng, 3, 2, n=3)

        class Constant:
            def posterior(self, problem, sample):
                return DiscreteDist([0.2, 0.5, 0.3])

        joint = enumerate_joint(problem, Constant())
        assert mutual_info(joint) == pytest.approx(0.0, abs=1e-13)

    def test_single_draw_erm_identifies_outcome(self):
        problem = FiniteProblem(losses=[[0, 1], [1, 0]], mu=DiscreteDist([0.5, 0.5]), n=1)
        joint = enumerate_joint(problem, ErmAlgorithm())
        assert mutual_info(joint) == pytest.approx(math.log(2.0), abs=1e-13)

    def test_sample_marginal_is_product_measure(self, rng):
        problem = random_problem(rng, 2, 3, n=3)
        joint = enumerate_joint(problem, GibbsAlgorithm(beta_alg=1.0))
        weights = np.array([w for _, w in iter_samples(problem)])
        assert np.allclose(joint.sample_marginal().probs, weights, atol=1e-12)

    def test_budget_propagates(self, rng):
        problem = random_problem(rng, 2, 2, n=25)
        with pytest.raises(BudgetError):
            enumerate_joint(problem, ErmAlgorithm())


class TestVerifyExpectationBounds:
    def test_constant_algorithm_zero_gap(self, rng):
        problem = random_problem(rng, 3, 2, n=3)

        class Constant:
            def posterior(self, problem, sample):
                return DiscreteDist.uniform(3)

        report = verify_expectation_bounds(problem, Constant())
        assert report.expected_gap == pytest.approx(0.0, abs=1e-12)
        assert report.mutual_information == pytest.approx(0.0, abs=1e-12)
        assert report.mi_bound_holds and report.prior_bound_holds

    def test_gibbs_enumeration_bounds_hold(self, rng):
        problem = random_problem(rng, 3, 2, n=4)
        report = verify_expectation_bounds(problem, GibbsAlgorithm(beta_alg=1.0))
        assert report.mi_bound_holds
        assert report.prior_bound_holds
        assert abs(report.golden_residual) <= 1e-10

    def test_oracle_prior_minimizes_averaged_kl(self, rng):
        problem = random_problem(rng, 3, 2, n=3)
        joint = enumerate_joint(problem, GibbsAlgorithm(beta_alg=2.0))
        oracle = joint.hypothesis_marginal()
        base = conditional_kl(joint, oracle)
        assert base == pytest.approx(mutual_info(joint), abs=1e-12)
        for _ in range(25):
            q = DiscreteDist(rng.dirichlet(np.ones(3)))
            assert conditional_kl(joint, q) >= base - 1e-12

    def test_unit_model_requires_unit_losses(self, rng):
        problem = FiniteProblem(losses=[[0.0, 3.0]], mu=DiscreteDist([0.5, 0.5]), n=2)
        with pytest.raises(ConfigurationError):
            verify_expectation_bounds(problem, ErmAlgorithm())

    def test_enumerated_information_and_gap_match_monte_carlo(self, rng):
        from genbounds import true_risks

        problem = random_problem(rng, 3, 2, n=4)
        algorithm = GibbsAlgorithm(beta_alg=1.5)
        report = verify_expectation_bounds(problem, algorithm)
        joint = enumerate_joint(problem, algorithm)
        marginal = joint.hypothesis_marginal()
        sampler = np.random.default_rng(21)
        info_terms, gap_terms = [], []
        for _ in range(3000):
            sample = sampler.choice(2, size=4, p=problem.mu.probs)
            posterior = algorithm.posterior(problem, sample)
            info_terms.append(kl_discrete(posterior, marginal))
            gap_terms.append(float(posterior.probs @ (true_risks(problem) - empirical_risks(problem, sample))))
        for terms, target in ((info_terms, report.mutual_information), (gap_terms, report.expected_gap)):
            terms = np.array(terms)
            se = terms.std(ddof=1) / math.sqrt(terms.size)
            assert abs(terms.mean() - target) <= 3 * se


class TestViolationExperiment:
    def test_catoni_certifies_on_standard_problem(self):
        report = run_violation_experiment(make_config(standard_problem(), "catoni", trials=2000))
        assert report.certified(0.05)
        assert report.rate <= 0.05

    def test_zhang_certifies(self):
        report = run_violation_experiment(make_config(standard_problem(), "zhang", trials=2000))
        assert report.certified(0.05)

    def test_sabotaged_bound_is_caught(self):
        config = make_config(standard_problem(), "catoni", trials=200, bound_offset=-1.0)
        report = run_violation_experiment(config)
        assert report.rate > 0.95

    def test_reports_are_deterministic_and_order_independent(self):
        config = make_config(standard_problem(), "catoni", trials=300)
        first = run_violation_experiment(config)
        second = run_violation_experiment(config)
        assert first == second
        # per-trial results depend only on (seed, trial index)
        singles = [violation_trial(config, t) for t in reversed(range(5))]
        assert singles == [violation_trial(config, t) for t in reversed(range(5))]

    def test_unknown_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            run_violation_experiment(make_config(standard_problem(), "laplace", trials=10))

    def test_catoni_requires_binary_losses(self, rng):
        soft = FiniteProblem(losses=[[0.2, 0.8], [0.7, 0.1]], mu=DiscreteDist([0.5, 0.5]), n=10)
        with pytest.raises(ConfigurationError):
            run_violation_experiment(make_config(soft, "catoni", trials=10))

    def test_enumeration_matches_monte_carlo_means(self, rng):
        # E[M_beta] under the sampled posterior-average flow agrees with the
        # exact enumeration on small configurations.
        problem = random_problem(rng, 3, 2, n=5, binary=True)
        config = make_config(problem, "zhang", trials=3000, beta=1.0, algorithm=GibbsAlgorithm(2.0))
        report = run_violation_experiment(config)
        annealed = annealed_risks(problem, 1.0)
        exact = 0.0
        for sample, weight in iter_samples(problem):
            post = config.algorithm.posterior(problem, sample)
            exact += weight * float(post.probs @ annealed)
        se = 0.5 / math.sqrt(config.trials)  # values live in [0, 1]
        assert abs(report.true_quantity_mean - exact) <= 3 * se


class TestCmiExperiment:
    def test_supersample_split(self, rng):
        problem = random_problem(rng, 2, 2, n=6)
        draw = draw_supersample(problem, np.random.default_rng(3))
        both = np.sort(np.stack([draw.training_sample, draw.ghost_sample], axis=1), axis=1)
        assert np.array_equal(both, np.sort(draw.z_tilde, axis=1))

    def test_certifies_on_standard_problem(self):
        config = make_config(standard_problem(), "cmi", trials=2000, beta=0.3)
        report = run_cmi_experiment(config)
        assert report.certified(0.05)

    def test_rejects_a_bound_of_another_trial(self):
        with pytest.raises(ConfigurationError):
            run_cmi_experiment(make_config(standard_problem(), "catoni", trials=10))

    def test_sample_ignoring_rule_has_zero_information(self, rng):
        problem = random_problem(rng, 3, 2, n=2)

        class Constant:
            def posterior(self, problem, sample):
                return DiscreteDist.uniform(3)

        cmi, gap = cmi_exact_quantities(problem, Constant())
        assert cmi == pytest.approx(0.0, abs=1e-12)
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_exact_quantities_dominated_by_expectation_bound(self, rng):
        for _ in range(5):
            problem = random_problem(rng, 3, 2, n=3)
            cmi, gap = cmi_exact_quantities(problem, GibbsAlgorithm(beta_alg=2.0))
            assert 0.0 <= cmi <= problem.n * math.log(2.0) + 1e-12
            assert gap <= cmi_expectation(cmi, problem.n) + 1e-12

    def test_exact_cmi_matches_monte_carlo(self, rng):
        problem = random_problem(rng, 3, 2, n=3)
        algorithm = GibbsAlgorithm(beta_alg=2.0)
        cmi, _ = cmi_exact_quantities(problem, algorithm)
        # Monte Carlo over supersamples of the exact per-supersample term
        sampler = np.random.default_rng(12)
        values = []
        for _ in range(2000):
            z_tilde = sampler.choice(2, size=(3, 2), p=problem.mu.probs)
            table = np.zeros((2**3, 3))
            for ui in range(2**3):
                u = np.array([(ui >> i) & 1 for i in range(3)])
                s = z_tilde[np.arange(3), u]
                table[ui] = algorithm.posterior(problem, s).probs / 2**3
            from genbounds import JointTable

            values.append(mutual_info(JointTable(table)))
        values = np.array(values)
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - cmi) <= 3 * se


class TestDpPriorExperiment:
    def test_mechanism_is_private_exhaustively(self, rng):
        for epsilon in (0.2, 1.0):
            problem = random_problem(rng, 3, 2, n=4)
            worst = dp_mechanism_max_log_ratio(problem, epsilon)
            assert worst <= epsilon + 1e-12

    def test_small_epsilon_prior_is_nearly_uniform(self, rng):
        problem = random_problem(rng, 4, 2, n=6)
        prior = dp_prior_mechanism(problem, [0, 1, 0, 1, 0, 1], 1e-6)
        assert np.allclose(prior.probs, 0.25, atol=1e-6)

    def test_certifies_on_standard_problem(self):
        config = make_config(standard_problem(), "dp-prior", trials=1000, delta=0.1)
        report = run_dp_prior_experiment(config, epsilon=0.2)
        assert report.certified(0.1)

    def test_requires_unit_losses(self):
        problem = FiniteProblem(losses=[[0.0, 2.0]], mu=DiscreteDist([0.5, 0.5]), n=4)
        with pytest.raises(ConfigurationError):
            dp_prior_mechanism(problem, [0, 0, 0, 0], 0.5)

    def test_deterministic(self):
        config = make_config(standard_problem(), "dp-prior", trials=100, delta=0.1)
        assert run_dp_prior_experiment(config, 0.2) == run_dp_prior_experiment(config, 0.2)


def mc_deviation(m, delta_prime):
    """The Monte Carlo deviation allowance priced into the retraining objective."""
    params = PacBayesSgdParams(
        n=100, beta=2.0, lam=0.1, alpha=2.0, b=10, c=0.5, m=m, delta=0.05,
        delta_prime=delta_prime, mc_empirical_risk=0.1, kl=1.0,
    )
    return pacbayes_sgd_objective(params).components["mc_deviation"]


class TestMcCorrection:
    def test_known_value(self):
        assert mc_deviation(200, 0.05) == pytest.approx(0.09603227913199208, abs=1e-14)

    def test_vanishes_with_draws(self):
        assert mc_deviation(10**12, 0.05) <= 1e-5

    def test_coverage_guarantee(self):
        rng = np.random.default_rng(17)
        m, delta_prime, p = 200, 0.05, 0.3
        allowance = mc_deviation(m, delta_prime)
        means = rng.binomial(m, p, size=10**4) / m
        coverage = np.mean(np.abs(means - p) <= allowance)
        assert coverage >= 1 - delta_prime


class TestUnionGrid:
    def test_grid_is_geometric_and_covers_v(self):
        grid = union_beta_grid(100, 2.0, 10.0, 0.5)
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, 2.0)
        assert grid[-1] * 2.0 >= 10.0

    def test_size_never_exceeds_priced_allowance(self):
        for n in (1, 10, 100, 10**4):
            for v in (0.1, 1.0, 10.0, 100.0):
                for sigma in (0.25, 0.5, 1.0, 3.0):
                    request = BoundRequest(n=n, delta=0.5, model=LossModel.sub_gaussian(sigma))
                    allowance = union_bound_beta(request, 2.0, v).extras["union_grid_allowance"]
                    assert len(union_beta_grid(n, 2.0, v, sigma)) <= allowance
