"""Tests for Gibbs posteriors, information complexity, and quadratic-model machinery."""

import math

import numpy as np
import pytest

from genbounds import (
    DegenerateError,
    DiscreteDist,
    DomainError,
    FiniteProblem,
    LossModel,
    PacBayesSgdParams,
    ParameterError,
    QuadraticModel,
    dv_identity_residual,
    empirical_risks,
    expected_quadratic_loss,
    gaussian_icm_objective,
    gibbs_posterior,
    iei_empirical_check,
    iei_exact,
    information_complexity,
    kl_discrete,
    local_entropy,
    local_entropy_mc,
    occam_bound,
    occam_spectral_kl,
    oic,
    optimal_gaussian_covariance,
    pacbayes_sgd_objective,
    phi_beta_inverse,
    stochastic_complexity,
    zhang_high_prob,
)
from genbounds.bounds import BoundRequest
from conftest import random_dist, random_problem


class TestGibbsPosterior:
    def test_zero_temperature_returns_prior(self, rng):
        q = random_dist(rng, 5)
        post = gibbs_posterior(q, rng.random(5), 0.0)
        assert np.allclose(post.probs, q.probs)

    def test_two_point_example(self):
        post = gibbs_posterior(DiscreteDist.uniform(2), [0.0, 1.0], math.log(2.0))
        assert np.allclose(post.probs, [2.0 / 3.0, 1.0 / 3.0])

    def test_large_beta_concentrates_on_argmin(self, rng):
        f = np.array([0.7, 0.1, 0.9])
        post = gibbs_posterior(random_dist(rng, 3), f, 1e4)
        assert post.probs[1] > 1.0 - 1e-12

    def test_normalization_is_tight(self, rng):
        for _ in range(100):
            post = gibbs_posterior(random_dist(rng, 6), rng.normal(size=6) * 5, 2.0)
            assert abs(post.probs.sum() - 1.0) <= 1e-12

    def test_infinite_f_gets_zero_mass(self):
        post = gibbs_posterior(DiscreteDist.uniform(2), [0.0, math.inf], 1.0)
        assert np.allclose(post.probs, [1.0, 0.0])

    def test_degenerate_error(self):
        with pytest.raises(DegenerateError):
            gibbs_posterior(DiscreteDist([1.0, 0.0]), [math.inf, 0.0], 1.0)


class TestStochasticComplexity:
    def test_constant_values(self):
        q = DiscreteDist.uniform(3)
        assert stochastic_complexity(q, [0.4, 0.4, 0.4], 2.0) == pytest.approx(0.4, abs=1e-14)

    def test_two_point_example(self):
        value = stochastic_complexity(DiscreteDist.uniform(2), [0.0, 1.0], math.log(2.0))
        assert value == pytest.approx(0.41503749927884382, abs=1e-12)

    @pytest.mark.parametrize("beta", [1.0, 1e4])
    def test_all_prior_mass_on_infinite_loss_gives_inf_at_every_beta(self, beta):
        assert stochastic_complexity(DiscreteDist([1.0, 0.0]), [math.inf, -1.0], beta) == math.inf

    def test_equals_minimum_information_complexity(self, rng):
        for _ in range(100):
            q = random_dist(rng, 5)
            f = rng.random(5) * 3.0
            beta = float(rng.uniform(0.1, 8.0))
            sc = stochastic_complexity(q, f, beta)
            gibbs = gibbs_posterior(q, f, beta)
            assert information_complexity(gibbs, q, f, beta) == pytest.approx(sc, abs=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_infinite_f_outside_the_posterior_support_adds_nothing(self):
        q, f = DiscreteDist.uniform(2), [0.0, math.inf]
        gibbs = gibbs_posterior(q, f, 1.0)
        assert gibbs.probs.tolist() == [1.0, 0.0]
        assert information_complexity(gibbs, q, f, 1.0) == stochastic_complexity(q, f, 1.0) == math.log(2.0)
        assert dv_identity_residual(gibbs, q, f, 1.0) == 0.0


class TestOic:
    def test_small_beta_returns_prior_average(self, rng):
        problem = random_problem(rng, 3, 2, n=2)
        q = random_dist(rng, 3)
        sample = [0, 1]
        posterior, value = oic(q, problem, sample, 1e-9)
        assert np.allclose(posterior.probs, q.probs, atol=1e-6)
        assert value == pytest.approx(float(q.probs @ empirical_risks(problem, sample)), abs=1e-6)

    def test_two_hypothesis_example(self):
        problem = FiniteProblem(
            losses=[[0.0, 0.0], [0.5, 0.5]], mu=DiscreteDist([0.5, 0.5]), n=2
        )
        posterior, value = oic(DiscreteDist.uniform(2), problem, [0, 1], 1.0)
        z = 1.0 + math.exp(-1.0)
        assert np.allclose(posterior.probs, [1.0 / z, math.exp(-1.0) / z])
        assert value == pytest.approx(-0.5 * math.log(z / 2.0), abs=1e-12)

    def test_no_posterior_beats_gibbs(self, rng):
        problem = random_problem(rng, 4, 3, n=3)
        q = random_dist(rng, 4)
        sample = rng.integers(0, 3, size=3)
        posterior, value = oic(q, problem, sample, 0.7)
        risks = empirical_risks(problem, sample)
        for _ in range(100):
            other = DiscreteDist(rng.dirichlet(np.ones(4)))
            assert information_complexity(other, q, risks, problem.n * 0.7) >= value - 1e-12

    def test_sample_length_checked(self, rng):
        problem = random_problem(rng, 2, 2, n=3)
        with pytest.raises(DomainError):
            oic(DiscreteDist.uniform(2), problem, [0, 1], 1.0)


class TestVariationalIdentity:
    def test_residual_vanishes_on_random_inputs(self, rng):
        for _ in range(500):
            k = int(rng.integers(2, 7))
            p = DiscreteDist(rng.dirichlet(np.ones(k)))
            q = random_dist(rng, k)
            f = rng.normal(size=k) * 2.0
            beta = float(rng.uniform(0.05, 10.0))
            assert abs(dv_identity_residual(p, q, f, beta)) <= 1e-10

    def test_gibbs_attains_zero_divergence(self, rng):
        q = random_dist(rng, 4)
        f = rng.random(4)
        p_star = gibbs_posterior(q, f, 2.0)
        assert kl_discrete(p_star, p_star) == 0.0
        assert abs(dv_identity_residual(p_star, q, f, 2.0)) <= 1e-12


class TestIei:
    def test_constant_rule_enumeration_below_one(self, rng):
        for trial in range(10):
            problem = random_problem(rng, 3, 2, n=4)
            q = random_dist(rng, 3)
            value = iei_exact(problem, lambda s: q, q, float(rng.uniform(0.2, 3.0)))
            assert value <= 1.0 + 1e-10

    def test_gibbs_rule_enumeration_below_one(self, rng):
        problem = random_problem(rng, 3, 2, n=4)
        prior = random_dist(rng, 3)
        rule = lambda s: gibbs_posterior(prior, empirical_risks(problem, s), problem.n * 2.0)
        assert iei_exact(problem, rule, prior, 1.0) <= 1.0 + 1e-10

    def test_monte_carlo_tracks_enumeration(self, rng):
        problem = random_problem(rng, 3, 2, n=4)
        prior = random_dist(rng, 3)
        rule = lambda s: gibbs_posterior(prior, empirical_risks(problem, s), problem.n)
        exact = iei_exact(problem, rule, prior, 1.0)
        estimate = iei_empirical_check(problem, rule, prior, 1.0, trials=4000, seed=99)
        assert abs(estimate.value - exact) <= 3.0 * estimate.std_error
        assert estimate.value <= 1.0 + 3.0 * estimate.std_error

    def test_monte_carlo_is_seed_deterministic(self, rng):
        problem = random_problem(rng, 2, 2, n=3)
        prior = DiscreteDist.uniform(2)
        rule = lambda s: prior
        a = iei_empirical_check(problem, rule, prior, 0.5, trials=500, seed=5)
        b = iei_empirical_check(problem, rule, prior, 0.5, trials=500, seed=5)
        assert a == b

    def test_infinite_divergence_contributes_zero(self):
        problem = FiniteProblem(losses=[[0.0, 1.0], [1.0, 0.0]], mu=DiscreteDist([0.5, 0.5]), n=2)
        prior = DiscreteDist([1.0, 0.0])
        point_mass_off_support = lambda s: DiscreteDist([0.0, 1.0])
        assert iei_exact(problem, point_mass_off_support, prior, 1.0) == 0.0

    def test_zero_weight_sample_contributes_zero_even_if_its_term_overflows(self):
        # Sample [1, 1] has weight 0 and gap 1, so its term is exp(800).
        problem = FiniteProblem(losses=[[1.0, 0.0]], mu=DiscreteDist([1.0, 0.0]), n=2)
        q = DiscreteDist([1.0])
        assert iei_exact(problem, lambda s: q, q, 400.0) == 1.0


class TestQuadraticModel:
    def make(self, rng, k=3):
        # Moderate curvature keeps the cubic term of the objective small
        # enough for central differences at step 1e-4 to resolve 1e-5.
        return QuadraticModel(
            hessian_eigenvalues=rng.uniform(0.0, 1.5, size=k),
            w_p=rng.normal(size=k),
            w_q=rng.normal(size=k),
            lam=float(rng.uniform(0.3, 2.0)),
            n=int(rng.integers(1, 11)),
            beta=float(rng.uniform(0.2, 1.2)),
        )

    def test_flat_directions_return_prior_variance(self):
        model = QuadraticModel(
            hessian_eigenvalues=[0.0, 0.0], w_p=[0, 0], w_q=[0, 0], lam=2.0, n=5, beta=1.0
        )
        assert np.allclose(optimal_gaussian_covariance(model), 0.5)

    def test_scalar_covariance(self):
        model = QuadraticModel(hessian_eigenvalues=[1.0], w_p=[0], w_q=[0], lam=1.0, n=1, beta=1.0)
        assert np.allclose(optimal_gaussian_covariance(model), 0.5)
        assert expected_quadratic_loss(model, optimal_gaussian_covariance(model)) == pytest.approx(0.25)

    def test_expected_loss_values(self):
        model = QuadraticModel(
            hessian_eigenvalues=[1.0, 2.0], w_p=[0, 0], w_q=[0, 0], lam=1.0, n=1, beta=1.0
        )
        assert expected_quadratic_loss(model, [1.0, 1.0]) == pytest.approx(1.5)
        assert expected_quadratic_loss(model, [0.0, 0.0]) == 0.0

    def test_optimal_covariance_is_stationary(self, rng):
        for _ in range(10):
            model = self.make(rng)
            star = optimal_gaussian_covariance(model)
            for _ in range(5):
                direction = rng.uniform(-1.0, 1.0, size=model.k)
                step = 1e-4
                derivative = (
                    gaussian_icm_objective(model, star + step * direction)
                    - gaussian_icm_objective(model, star - step * direction)
                ) / (2.0 * step)
                assert abs(derivative) <= 1e-5

    def test_optimal_covariance_beats_perturbations(self, rng):
        model = self.make(rng)
        star = optimal_gaussian_covariance(model)
        best = gaussian_icm_objective(model, star)
        for _ in range(50):
            perturbed = star * rng.uniform(0.5, 2.0, size=model.k)
            assert gaussian_icm_objective(model, perturbed) >= best - 1e-12


class TestOccamBound:
    def test_flat_aligned_reduces_to_empirical_risk(self):
        model = QuadraticModel(
            hessian_eigenvalues=[0.0, 0.0], w_p=[1, 2], w_q=[1, 2], lam=1.0, n=10, beta=1.0
        )
        result = occam_bound(model, 1.0, 0.42)
        assert result.value == pytest.approx(0.42, abs=1e-15)
        assert result.extras["occam_factor"] == pytest.approx(1.0)

    def test_scalar_value(self):
        # regularized curvature 2 against prior precision 1 at n beta = 10
        model = QuadraticModel(
            hessian_eigenvalues=[0.1], w_p=[0.0], w_q=[0.0], lam=1.0, n=10, beta=1.0
        )
        result = occam_bound(model, 1.0, 0.0)
        assert result.value == pytest.approx(math.log(2.0) / 20.0, abs=1e-14)

    def test_occam_factor_range(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 5))
            model = QuadraticModel(
                hessian_eigenvalues=rng.uniform(0.0, 4.0, size=k),
                w_p=rng.normal(size=k),
                w_q=rng.normal(size=k),
                lam=float(rng.uniform(0.2, 2.0)),
                n=int(rng.integers(1, 30)),
                beta=float(rng.uniform(0.1, 2.0)),
            )
            factor = occam_bound(model, 0.5, 0.1).extras["occam_factor"]
            assert 0.0 < factor <= 1.0
            if np.all(model.hessian_eigenvalues == 0.0):
                assert factor == pytest.approx(1.0)

    def test_dominates_exact_kl_bound_by_dropped_term(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 5))
            model = QuadraticModel(
                hessian_eigenvalues=rng.uniform(0.0, 3.0, size=k),
                w_p=rng.normal(size=k),
                w_q=rng.normal(size=k),
                lam=float(rng.uniform(0.3, 2.0)),
                n=int(rng.integers(1, 25)),
                beta=float(rng.uniform(0.2, 2.0)),
            )
            delta, risk = 0.3, 0.2
            occam = occam_bound(model, delta, risk)
            exact = zhang_high_prob(
                BoundRequest(
                    n=model.n,
                    delta=delta,
                    empirical_risk=risk,
                    kl=occam_spectral_kl(model),
                    beta=model.beta,
                    model=LossModel.sub_gaussian(1.0),
                )
            )
            spectrum = model.regularized_spectrum()
            dropped = float(np.sum(model.lam / spectrum - 1.0)) / (2.0 * model.n * model.beta)
            assert occam.value - exact.value == pytest.approx(-dropped, abs=1e-10)
            assert occam.value >= exact.value - 1e-12


class TestPacBayesSgdObjective:
    def base_params(self, **overrides):
        params = dict(
            n=10**4,
            beta=2.0,
            lam=0.01,
            alpha=2.0,
            b=100,
            c=0.1,
            m=1000,
            delta=0.05,
            delta_prime=0.05,
            mc_empirical_risk=0.05,
            kl=50.0,
        )
        params.update(overrides)
        return PacBayesSgdParams(**params)

    def test_addends_match_direct_arithmetic(self):
        params = self.base_params()
        result = pacbayes_sgd_objective(params)
        scale = 10**4 * 2.0
        beta_cost = (2 * 2.0 / scale) * math.log(math.log(4.0 * 2.0 * 10**4) / math.log(2.0))
        lam_cost = (2.0 / scale) * math.log(
            math.pi**2 * 100**2 / (6 * 0.05) * math.log(0.1 / 0.01) ** 2
        )
        mc_cost = math.sqrt(math.log(40.0) / 2000.0)
        assert result.components["beta_grid_cost"] == pytest.approx(beta_cost, abs=1e-15)
        assert result.components["lambda_grid_cost"] == pytest.approx(lam_cost, abs=1e-15)
        assert result.components["mc_deviation"] == pytest.approx(mc_cost, abs=1e-15)
        inner = 0.05 + 2.0 * 50.0 / scale + beta_cost + lam_cost + mc_cost
        assert result.value == pytest.approx(phi_beta_inverse(2.0, inner), abs=1e-14)

    def test_mc_cost_vanishes_with_many_draws(self):
        result = pacbayes_sgd_objective(self.base_params(m=10**12))
        assert result.components["mc_deviation"] <= 1e-5

    def test_monotone_in_kl_and_risk(self):
        low = pacbayes_sgd_objective(self.base_params(kl=10.0)).value
        high = pacbayes_sgd_objective(self.base_params(kl=200.0)).value
        assert high >= low
        lean = pacbayes_sgd_objective(self.base_params(mc_empirical_risk=0.01)).value
        fat = pacbayes_sgd_objective(self.base_params(mc_empirical_risk=0.2)).value
        assert fat >= lean

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            self.base_params(beta=1.0)
        with pytest.raises(ParameterError):
            self.base_params(lam=0.2)  # outside (0, c)
        with pytest.raises(ParameterError):
            self.base_params(alpha=1.0)


class TestLocalEntropy:
    def test_scalar_closed_form(self):
        model = QuadraticModel(hessian_eigenvalues=[1.0], w_p=[0.0], w_q=[0.0], lam=1.0, n=1, beta=1.0)
        assert local_entropy(model, 1.0) == pytest.approx(-0.5 * math.log(math.pi), abs=1e-14)

    def test_gamma_must_be_positive(self):
        model = QuadraticModel(hessian_eigenvalues=[1.0], w_p=[0.0], w_q=[0.0], lam=1.0, n=1, beta=1.0)
        with pytest.raises(DomainError):
            local_entropy(model, 0.0)

    def test_off_center_evaluation_adds_quadratic_term(self, rng):
        model = QuadraticModel(
            hessian_eigenvalues=[0.8, 2.0], w_p=[0.3, -0.4], w_q=[0, 0], lam=1.0, n=1, beta=1.5
        )
        w = np.array([0.9, 0.1])
        base = local_entropy(model, 0.7)
        shifted = local_entropy(model, 0.7, w=w)
        d = w - model.w_p
        h = model.hessian_eigenvalues
        expected = base + 0.5 * float(np.sum(0.7 * h / (h + 0.7) * d * d))
        assert shifted == pytest.approx(expected, abs=1e-14)

    def test_monte_carlo_matches_closed_form(self):
        model = QuadraticModel(
            hessian_eigenvalues=[0.5, 2.5], w_p=[0.2, -0.1], w_q=[0, 0], lam=1.0, n=1, beta=1.0
        )
        estimate = local_entropy_mc(model, 0.8, draws=200_000, seed=31)
        assert abs(estimate.value - local_entropy(model, 0.8)) <= 3.0 * estimate.std_error

    def test_monte_carlo_off_center(self):
        model = QuadraticModel(
            hessian_eigenvalues=[1.2], w_p=[0.0], w_q=[0.0], lam=1.0, n=1, beta=2.0
        )
        w = np.array([0.6])
        estimate = local_entropy_mc(model, 1.1, draws=200_000, seed=32, w=w)
        assert abs(estimate.value - local_entropy(model, 1.1, w=w)) <= 3.0 * estimate.std_error

    def test_smoothed_volume_shrinks_with_curvature(self):
        # Sharper directions leave less smoothed low-loss volume around the
        # minimizer: the log-volume drops, so the free energy returned here
        # rises in every eigenvalue.
        base = QuadraticModel(
            hessian_eigenvalues=[0.5, 1.0], w_p=[0, 0], w_q=[0, 0], lam=1.0, n=1, beta=1.3
        )
        value = local_entropy(base, 0.9)
        for axis in range(2):
            h = np.array(base.hessian_eigenvalues, copy=True)
            h[axis] += 0.5
            sharper = QuadraticModel(
                hessian_eigenvalues=h, w_p=[0, 0], w_q=[0, 0], lam=1.0, n=1, beta=1.3
            )
            assert local_entropy(sharper, 0.9) > value
