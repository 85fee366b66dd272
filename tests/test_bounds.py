"""Tests for the closed-form bound computations and their orderings."""

import math

import numpy as np
import pytest

from genbounds import (
    BoundRequest,
    DomainError,
    LossModel,
    ParameterError,
    catoni_bound,
    catoni_linear,
    cmi_expectation,
    cmi_pac_high_prob,
    delta_bound,
    dp_prior_gen_bound,
    dp_prior_high_prob,
    dp_prior_penalty,
    fano_identification_lb,
    kl_binary,
    mcallester_linear,
    pac_bayes_kl,
    subgamma_mi,
    subgamma_pacbayes,
    union_bound_beta,
    xu_raginsky,
    zhang_gen_expectation,
    zhang_gen_high_prob,
    zhang_high_prob,
)

GAUSS = LossModel.sub_gaussian(1.0)
UNIT = LossModel.bounded_unit()
COIN = LossModel.bernoulli()


def random_unit_request(rng, beta_below=math.inf):
    beta = float(rng.uniform(0.05, min(1.95, beta_below)))
    return BoundRequest(
        n=int(rng.integers(1, 500)),
        delta=float(rng.uniform(0.01, 1.0)),
        empirical_risk=float(rng.uniform(0.0, 1.0)),
        kl=float(rng.uniform(0.0, 20.0)),
        beta=beta,
        model=COIN,
    )


class TestBoundRequest:
    def test_validation(self):
        with pytest.raises(ParameterError):
            BoundRequest(n=0, delta=0.5)
        with pytest.raises(ParameterError):
            BoundRequest(n=5, delta=0.0)
        with pytest.raises(ParameterError):
            BoundRequest(n=5, delta=0.5, kl=-1.0)
        with pytest.raises(ParameterError):
            BoundRequest(n=5, delta=0.5, beta=0.0)
        with pytest.raises(ParameterError):
            BoundRequest(n=5, delta=0.5, empirical_risk=math.nan)
        with pytest.raises(ParameterError):
            BoundRequest(n=50.5, delta=0.5)
        with pytest.raises(ParameterError):
            BoundRequest(n=True, delta=0.5)
        assert BoundRequest(n=np.int64(50), delta=0.5).n == 50

    def test_degenerate_delta_is_tolerated(self):
        BoundRequest(n=5, delta=2.0)

    def test_a_numpy_n_gives_python_scalars(self):
        # With a numpy n, kl / (n beta) overflowed as numpy scalar arithmetic: a RuntimeWarning.
        req = BoundRequest(n=np.int64(50), delta=0.05, empirical_risk=0.1, kl=1e300, beta=1e-10)
        assert type(req.n) is int
        inversion = BoundRequest(n=np.int64(50), delta=0.05, empirical_risk=0.1, kl=1.0, model=COIN)
        for result in (zhang_high_prob(req), pac_bayes_kl(inversion)):
            assert type(result.value) is float and type(result.raw_value) is float
            assert type(result.vacuous) is bool
        assert zhang_high_prob(req).vacuous and not pac_bayes_kl(inversion).vacuous


class TestZhangHighProb:
    def test_penalties_vanish(self):
        req = BoundRequest(n=10, delta=1.0, empirical_risk=0.3, kl=0.0, beta=2.0, model=GAUSS)
        assert zhang_high_prob(req).value == pytest.approx(0.3, abs=1e-15)

    def test_arithmetic(self):
        req = BoundRequest(
            n=100, delta=math.exp(-1.0), empirical_risk=0.2, kl=1.0, beta=1.0, model=GAUSS
        )
        result = zhang_high_prob(req)
        assert result.value == pytest.approx(0.22, abs=1e-12)
        assert result.components["information_complexity"] == pytest.approx(0.21)
        assert result.components["confidence"] == pytest.approx(0.01)

    def test_infinite_kl_is_vacuous(self):
        req = BoundRequest(n=10, delta=0.5, empirical_risk=0.2, kl=math.inf, beta=1.0, model=GAUSS)
        result = zhang_high_prob(req)
        assert result.value == math.inf
        assert result.vacuous

    def test_requires_beta(self):
        with pytest.raises(ParameterError):
            zhang_high_prob(BoundRequest(n=10, delta=0.5, model=GAUSS))


class TestZhangGen:
    def test_sub_gaussian_slack(self):
        req = BoundRequest(n=1, delta=1.0, kl=0.0, beta=1.0, model=GAUSS)
        assert zhang_gen_high_prob(req).value == pytest.approx(0.5, abs=1e-15)

    def test_small_beta_limit(self):
        req = BoundRequest(n=1, delta=1.0, kl=0.0, beta=1e-6, model=GAUSS)
        assert zhang_gen_high_prob(req).value <= 1e-6

    def test_sub_gamma_domain_error(self):
        req = BoundRequest(n=1, delta=1.0, kl=0.0, beta=1.0, model=LossModel.sub_gamma(1.0, 1.0))
        with pytest.raises(DomainError):
            zhang_gen_high_prob(req)

    def test_expectation_form(self):
        assert zhang_gen_expectation(0.0, 5, GAUSS) == 0.0
        assert zhang_gen_expectation(2.0, 1, GAUSS) == pytest.approx(2.0)
        assert zhang_gen_expectation(0.5, 1, LossModel.sub_gamma(1.0, 1.0)) == pytest.approx(1.5)


class TestMutualInformationBounds:
    def test_xu_raginsky(self):
        assert xu_raginsky(0.0, 5, 1.0) == 0.0
        assert xu_raginsky(1.0, 2, 1.0) == pytest.approx(1.0)
        assert xu_raginsky(1.0, 8, 0.5) == pytest.approx(0.25)

    def test_subgamma_reduces_to_sub_gaussian(self):
        assert subgamma_mi(1.3, 7, 1.0, 0.0) == xu_raginsky(1.3, 7, 1.0)

    def test_subgamma_value(self):
        assert subgamma_mi(2.0, 4, 1.0, 2.0) == pytest.approx(2.0)

    def test_subgamma_pacbayes(self):
        req = BoundRequest(n=2, delta=math.exp(-1.0), kl=1.0, model=LossModel.sub_gamma(1.0, 0.5))
        assert subgamma_pacbayes(req).value == pytest.approx(2.0, abs=1e-12)
        tiny_c = BoundRequest(n=10, delta=1.0, kl=0.0, model=LossModel.sub_gamma(1.0, 1e-12))
        assert subgamma_pacbayes(tiny_c).value == pytest.approx(0.5, abs=1e-9)
        with pytest.raises(ParameterError):
            subgamma_pacbayes(BoundRequest(n=2, delta=0.5, model=LossModel.sub_gamma(1.0, 1.0)))


class TestUnionBoundBeta:
    def test_unclipped_matches_analytic_value(self):
        req = BoundRequest(n=400, delta=0.1, kl=2.0, model=GAUSS)
        result = union_bound_beta(req, alpha=2.0, v=100.0)
        sigma = 1.0
        k_const = max(math.log(100.0 * sigma / math.sqrt(4.0), 2.0), 0.0) + math.e
        penalty = 2.0 + math.log((math.log(math.sqrt(400.0), 2.0) + k_const) / 0.1)
        assert result.value == pytest.approx(sigma * math.sqrt(2.0 * 2.0 * penalty / 400.0), rel=1e-12)

    def test_k_clamps_at_e(self):
        req = BoundRequest(n=4, delta=0.5, kl=0.0, model=GAUSS)
        result = union_bound_beta(req, alpha=2.0, v=0.5)  # v sigma / sqrt(2 alpha) < 1
        assert result.extras["union_grid_allowance"] == pytest.approx(
            math.log(math.sqrt(4.0), 2.0) + math.e
        )

    def test_matches_grid_minimization(self):
        req = BoundRequest(n=100, delta=0.05, kl=1.0, model=LossModel.bounded_unit())
        result = union_bound_beta(req, alpha=2.0, v=10.0)
        sigma = 0.5
        k_const = max(math.log(10.0 * sigma / math.sqrt(4.0), 2.0), 0.0) + math.e
        penalty = 1.0 + math.log((math.log(10.0, 2.0) + k_const) / 0.05)
        grid = np.linspace(1e-9, 10.0, 10**5)
        objective = 2.0 * penalty / (100.0 * grid) + grid * sigma**2 / 2.0
        assert abs(result.value - objective.min()) <= 1e-6

    def test_clip_at_v(self):
        req = BoundRequest(n=2, delta=0.01, kl=30.0, model=GAUSS)
        result = union_bound_beta(req, alpha=2.0, v=0.3)
        assert result.beta_used == 0.3

    def test_dominates_fixed_beta_bound(self, rng):
        # The union-bound price is nonnegative against the K-free penalty.
        for _ in range(50):
            req = BoundRequest(
                n=int(rng.integers(2, 300)),
                delta=float(rng.uniform(0.01, 1.0)),
                kl=float(rng.uniform(0.0, 10.0)),
                model=GAUSS,
            )
            result = union_bound_beta(req, alpha=float(rng.uniform(1.1, 4.0)), v=20.0)
            fixed = zhang_gen_high_prob(
                BoundRequest(
                    n=req.n, delta=req.delta, kl=req.kl, beta=result.beta_used, model=GAUSS
                )
            )
            assert result.value >= fixed.value - 1e-12

    def test_alpha_validation(self):
        req = BoundRequest(n=10, delta=0.5, model=GAUSS)
        with pytest.raises(ParameterError):
            union_bound_beta(req, alpha=1.0, v=1.0)


class TestCatoniFamily:
    def test_zero_and_one_fixed_points(self):
        base = dict(n=10, delta=1.0, kl=0.0, beta=1.0, model=COIN)
        assert catoni_bound(BoundRequest(empirical_risk=0.0, **base)).value == 0.0
        assert catoni_bound(BoundRequest(empirical_risk=1.0, **base)).value == pytest.approx(
            1.0, abs=1e-12
        )

    def test_known_value(self):
        req = BoundRequest(n=50, delta=0.1, empirical_risk=0.1, kl=2.0, beta=1.0, model=COIN)
        # phi_1^-1(0.1 + (2 + log 10)/50), evaluated independently to high precision
        assert catoni_bound(req).value == pytest.approx(0.26857112654598318, abs=1e-12)

    def test_vacuous_clamps_to_one(self):
        req = BoundRequest(n=2, delta=0.05, empirical_risk=0.9, kl=5.0, beta=1.0, model=COIN)
        result = catoni_bound(req)
        assert result.value == 1.0
        assert result.vacuous
        assert result.raw_value > 1.0

    def test_prefactors_at_beta_one(self):
        req = BoundRequest(n=100, delta=0.5, empirical_risk=0.1, kl=1.0, beta=1.0, model=COIN)
        assert catoni_linear(req).extras["prefactor"] == pytest.approx(1.5819767068693265)
        assert mcallester_linear(req).extras["prefactor"] == pytest.approx(2.0)

    def test_small_beta_prefactors_tend_to_one(self):
        req = BoundRequest(n=100, delta=0.5, empirical_risk=0.1, kl=0.5, beta=1e-6, model=COIN)
        bracket = 0.1 + (0.5 + math.log(2.0)) / (100 * 1e-6)
        assert catoni_linear(req).raw_value == pytest.approx(bracket, rel=1e-5)

    def test_mcallester_beta_cap(self):
        req = BoundRequest(n=10, delta=0.5, empirical_risk=0.1, kl=0.0, beta=2.0, model=COIN)
        with pytest.raises(ParameterError):
            mcallester_linear(req)

    def test_requires_unit_model(self):
        req = BoundRequest(n=10, delta=0.5, empirical_risk=0.1, kl=0.0, beta=1.0, model=GAUSS)
        with pytest.raises(ParameterError):
            catoni_bound(req)

    def test_ordering_chain(self, rng):
        for _ in range(1000):
            req = random_unit_request(rng, beta_below=1.95)
            a = catoni_bound(req)
            b = catoni_linear(req)
            c = mcallester_linear(req)
            assert a.raw_value <= b.raw_value + 1e-12
            assert b.raw_value <= c.raw_value + 1e-12
            assert a.value <= b.value + 1e-12 and b.value <= c.value + 1e-12


class TestPacBayesKl:
    def test_needs_eight_samples(self):
        with pytest.raises(ParameterError):
            pac_bayes_kl(BoundRequest(n=7, delta=0.5, empirical_risk=0.1, model=COIN))

    def test_zero_risk_analytic(self):
        n = 100
        radius = 0.03
        delta = 2.0 * math.sqrt(n) * math.exp(-radius * n)
        req = BoundRequest(n=n, delta=delta, empirical_risk=0.0, kl=0.0, model=COIN)
        assert pac_bayes_kl(req).value == pytest.approx(-math.expm1(-radius), abs=1e-10)

    def test_degenerate_delta_clamps(self):
        n = 100
        req = BoundRequest(n=n, delta=2.0 * math.sqrt(n), empirical_risk=0.0, kl=0.0, model=COIN)
        result = pac_bayes_kl(req)
        assert "delta_clamped_to_1" in result.flags
        assert result.components["radius"] == pytest.approx(math.log(2.0 * math.sqrt(n)) / n)

    def test_round_trip_against_bisection(self):
        req = BoundRequest(n=100, delta=0.05, empirical_risk=0.1, kl=1.0, model=COIN)
        result = pac_bayes_kl(req)
        radius = (1.0 + math.log(2.0 * math.sqrt(100.0) / 0.05)) / 100.0
        assert kl_binary(0.1, result.value) == pytest.approx(radius, abs=1e-9)


class TestDeltaBound:
    def test_quadratic_closed_form(self):
        req = BoundRequest(n=50, delta=0.1, empirical_risk=0.2, kl=1.0, model=COIN)
        radius = (1.0 + math.log(10.0) + math.log(2.0 * math.sqrt(50.0))) / 50.0
        result = delta_bound(req, "quadratic", math.log(2.0 * math.sqrt(50.0)))
        assert result.value == pytest.approx(0.2 + math.sqrt(radius / 2.0), abs=1e-12)

    def test_kl_variant_equals_dedicated_bound(self, rng):
        for _ in range(25):
            req = BoundRequest(
                n=int(rng.integers(8, 400)),
                delta=float(rng.uniform(0.01, 1.0)),
                empirical_risk=float(rng.uniform(0.0, 1.0)),
                kl=float(rng.uniform(0.0, 8.0)),
                model=COIN,
            )
            moment = math.log(2.0 * math.sqrt(req.n))
            assert delta_bound(req, "kl", moment).value == pytest.approx(
                pac_bayes_kl(req).value, abs=1e-12
            )

    def test_zero_radius_returns_empirical_risk(self):
        req = BoundRequest(n=10, delta=1.0, empirical_risk=0.37, kl=0.0, model=COIN)
        for variant in ("kl", "quadratic", "normalized"):
            assert delta_bound(req, variant, 0.0).value == pytest.approx(0.37, abs=1e-10)

    def test_normalized_inverts_its_distance(self, rng):
        for _ in range(25):
            risk = float(rng.uniform(0.0, 0.8))
            req = BoundRequest(n=60, delta=0.2, empirical_risk=risk, kl=2.0, model=COIN)
            result = delta_bound(req, "normalized", 0.0)
            x = result.raw_value
            radius = (2.0 + math.log(5.0)) / 60.0
            assert (x - risk) ** 2 / (2.0 * x) == pytest.approx(radius, abs=1e-10)

    def test_a_radius_whose_square_overflows_is_vacuous(self):
        req = BoundRequest(n=1, delta=0.5, empirical_risk=0.1, kl=1e300, model=COIN)
        result = delta_bound(req, "normalized", 1.0)
        assert (result.value, result.vacuous) == (1.0, True)
        assert result.raw_value == pytest.approx(2e300) and result.recompose() == result.raw_value

    def test_unknown_variant(self):
        req = BoundRequest(n=10, delta=0.5, empirical_risk=0.1, model=COIN)
        with pytest.raises(ParameterError):
            delta_bound(req, "cubic", 0.0)

    @pytest.mark.parametrize("risk", [0.0, 0.1])
    @pytest.mark.parametrize("variant", ["kl", "quadratic", "normalized"])
    def test_negative_radius_rejected(self, variant, risk):
        # (0 + log 2 - 5) / 50 < 0: no distance is that small
        req = BoundRequest(n=50, delta=0.5, empirical_risk=risk, kl=0.0, model=COIN)
        with pytest.raises(ParameterError):
            delta_bound(req, variant, -5.0)


class TestCmiBounds:
    def test_slack_only(self):
        req = BoundRequest(n=10, delta=1.0, kl=0.0, beta=0.4, model=UNIT)
        assert cmi_pac_high_prob(req).value == pytest.approx(0.2, abs=1e-15)

    def test_known_value(self):
        req = BoundRequest(n=4, delta=0.5, kl=math.log(2.0), beta=1.0, model=UNIT)
        assert cmi_pac_high_prob(req).value == pytest.approx(0.84657359027997265, abs=1e-12)

    def test_optimal_beta_equals_expectation_form(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 200))
            kl = float(rng.uniform(0.0, 5.0))
            delta = float(rng.uniform(0.05, 1.0))
            total = kl + math.log(1.0 / delta)
            betas = np.linspace(1e-4, 4.0, 20001)
            values = total / (n * betas) + betas / 2.0
            assert values.min() == pytest.approx(cmi_expectation(total, n), rel=1e-6)

    def test_expectation_values(self):
        assert cmi_expectation(0.0, 5) == 0.0
        assert cmi_expectation(10 * math.log(2.0), 10) == pytest.approx(1.1774100225154747)


class TestFano:
    def test_floor(self):
        assert fano_identification_lb(0.0, 1) == 0.0
        assert fano_identification_lb(10 * math.log(2.0), 10) == 0.0

    def test_value_in_bits(self):
        assert fano_identification_lb(0.0, 10) == pytest.approx(0.9)


class TestDpPriorBounds:
    def test_penalty_value(self):
        assert dp_prior_penalty(100, 0.1, 0.1) == pytest.approx(4.8538337892946105, abs=1e-12)

    def test_zero_epsilon_reduces_to_delta_split(self):
        req = BoundRequest(n=50, delta=0.2, empirical_risk=0.1, kl=1.0, beta=1.0, model=COIN)
        with_dp = dp_prior_high_prob(req, 0.0)
        plain = zhang_high_prob(req)
        assert with_dp.value - plain.value == pytest.approx(math.log(2.0) / 50.0, abs=1e-12)

    def test_monotone_in_epsilon_and_n(self):
        penalties = [dp_prior_penalty(100, 0.1, e) for e in np.linspace(0.0, 1.0, 11)]
        assert np.all(np.diff(penalties) > 0)
        penalties_n = [dp_prior_penalty(n, 0.1, 0.3) for n in (10, 50, 100, 500)]
        assert np.all(np.diff(penalties_n) > 0)

    def test_gen_bound_composes_slack(self):
        req = BoundRequest(n=50, delta=0.2, kl=1.0, beta=0.5, model=GAUSS)
        result = dp_prior_gen_bound(req, 0.1)
        expected = (1.0 + dp_prior_penalty(50, 0.2, 0.1)) / (50 * 0.5) + 0.5 * 0.5**2 / 0.5
        assert result.value == pytest.approx(expected, abs=1e-12)


#: (case, a call, the value and the vacuity flag it must give) at the vacuity boundary.
VACUITY_BOUNDARY = [
    ("zhang raw 1", lambda: zhang_high_prob(BoundRequest(n=1, delta=1.0, empirical_risk=1.0, beta=1.0, model=UNIT)),
     1.0, False),
    ("zhang raw 1.001", lambda: zhang_high_prob(
        BoundRequest(n=1000, delta=1.0, empirical_risk=1.0, kl=1.0, beta=1.0, model=UNIT)), 1.001, True),
    ("zhang kl inf", lambda: zhang_high_prob(BoundRequest(n=10, delta=0.5, kl=math.inf, beta=1.0, model=UNIT)),
     math.inf, True),
    ("cmi beta 2", lambda: cmi_pac_high_prob(BoundRequest(n=10, delta=1.0, beta=2.0, model=UNIT)), 1.0, False),
    ("cmi beta 2.5", lambda: cmi_pac_high_prob(BoundRequest(n=10, delta=1.0, beta=2.5, model=UNIT)), 1.0, True),
    ("catoni risk 1", lambda: catoni_bound(BoundRequest(n=10, delta=1.0, empirical_risk=1.0, beta=0.7, model=COIN)),
     1.0, False),
    ("delta quadratic reaches 1", lambda: delta_bound(
        BoundRequest(n=1, delta=1.0, empirical_risk=0.5, model=UNIT), "quadratic", 0.5), 1.0, True),
]


@pytest.mark.parametrize("call, value, vacuous", [case[1:] for case in VACUITY_BOUNDARY],
                         ids=[case[0] for case in VACUITY_BOUNDARY])
def test_vacuity_policy_at_its_boundary(call, value, vacuous):
    result = call()
    assert result.value == pytest.approx(value, rel=1e-12)
    assert result.vacuous is vacuous
    assert result.recompose() == result.raw_value


class TestResultInvariants:
    def test_components_recompose(self, rng):
        from genbounds.bounds import COMPONENT_ATOL

        for _ in range(200):
            req = random_unit_request(rng, beta_below=1.95)
            for fn in (catoni_bound, catoni_linear, mcallester_linear, cmi_pac_high_prob):
                result = fn(req)
                assert result.raw_value == pytest.approx(result.recompose(), abs=COMPONENT_ATOL)
                if not result.vacuous:
                    assert result.value == result.raw_value
            if req.n >= 8:
                result = pac_bayes_kl(req)
                assert result.raw_value == pytest.approx(result.recompose(), abs=COMPONENT_ATOL)

    def test_monotone_in_n_and_kl(self):
        ns = [10, 20, 50, 100, 400, 1000]
        kls = np.linspace(0.0, 6.0, 13)
        for maker in (
            lambda n, kl: zhang_high_prob(
                BoundRequest(n=n, delta=0.1, empirical_risk=0.2, kl=kl, beta=1.0, model=GAUSS)
            ),
            lambda n, kl: catoni_bound(
                BoundRequest(n=n, delta=0.1, empirical_risk=0.2, kl=kl, beta=1.0, model=COIN)
            ),
            lambda n, kl: pac_bayes_kl(
                BoundRequest(n=max(n, 8), delta=0.1, empirical_risk=0.2, kl=kl, model=COIN)
            ),
            lambda n, kl: cmi_pac_high_prob(
                BoundRequest(n=n, delta=0.1, kl=kl, beta=0.5, model=UNIT)
            ),
            lambda n, kl: dp_prior_high_prob(
                BoundRequest(n=n, delta=0.1, empirical_risk=0.2, kl=kl, beta=1.0, model=COIN),
                0.1,
            ),
        ):
            in_n = [maker(n, 1.0).raw_value for n in ns]
            assert np.all(np.diff(in_n) <= 1e-12)
            in_kl = [maker(100, kl).raw_value for kl in kls]
            assert np.all(np.diff(in_kl) >= -1e-12)
