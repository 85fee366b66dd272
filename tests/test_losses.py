"""Tests for the loss-family CGF machinery and the annealing bijection."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbounds import (
    DomainError,
    EvaluationError,
    LossModel,
    PsiFunction,
    phi_beta,
    phi_beta_inverse,
    psi_of,
    psi_star_inverse,
    psi_star_inverse_numeric,
)


class TestLossModel:
    def test_families_and_scales(self):
        assert LossModel.bernoulli().sigma == 0.5
        assert LossModel.bounded_unit().is_unit_range
        assert not LossModel.sub_gaussian(2.0).is_unit_range
        assert LossModel.sub_gamma(1.0, 0.5).beta_sup == 2.0
        assert math.isinf(LossModel.sub_gamma(1.0, 0.0).beta_sup)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            LossModel.sub_gaussian(0.0)
        with pytest.raises(DomainError):
            LossModel.sub_gamma(1.0, -0.1)
        with pytest.raises(DomainError):
            LossModel("gaussian")


class TestPsi:
    def test_zero_at_origin(self):
        assert psi_of(LossModel.sub_gaussian(1.0), 0.0) == 0.0

    def test_sub_gaussian_closed_form(self):
        assert psi_of(LossModel.sub_gaussian(1.0), 2.0) == pytest.approx(2.0, abs=1e-15)

    def test_sub_gamma_closed_form(self):
        # 0.25 / (2 * 0.5)
        assert psi_of(LossModel.sub_gamma(1.0, 1.0), 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_bounded_is_hoeffding(self):
        assert psi_of(LossModel.bounded_unit(), 2.0) == pytest.approx(0.5)
        assert psi_of(LossModel.bernoulli(), 2.0) == pytest.approx(0.5)

    def test_domain_error_outside_sub_gamma_range(self):
        with pytest.raises(DomainError):
            psi_of(LossModel.sub_gamma(1.0, 1.0), 1.0)
        with pytest.raises(DomainError):
            psi_of(LossModel.sub_gaussian(1.0), -0.5)


class TestPsiStarInverse:
    def test_at_zero(self):
        assert psi_star_inverse(LossModel.sub_gaussian(1.0), 0.0) == 0.0

    def test_sub_gaussian(self):
        assert psi_star_inverse(LossModel.sub_gaussian(1.0), 2.0) == pytest.approx(2.0)

    def test_sub_gamma(self):
        assert psi_star_inverse(LossModel.sub_gamma(1.0, 1.0), 0.5) == pytest.approx(1.5)

    def test_negative_y_rejected(self):
        with pytest.raises(DomainError):
            psi_star_inverse(LossModel.bernoulli(), -1e-9)


class TestPsiFunction:
    def test_requires_flat_origin(self):
        with pytest.raises(DomainError):
            PsiFunction(lambda b: b)  # nonzero slope at 0

    def test_rejects_nan_inside_domain(self):
        psi = PsiFunction(lambda b: math.nan if b > 0.5 else b * b)
        with pytest.raises(EvaluationError):
            psi_star_inverse_numeric(psi, 1.0)

    def test_convexity_spot_check_catches_concave(self, rng):
        psi = PsiFunction(lambda b: math.sqrt(b) * 1e-3 if b > 1e-4 else 0.0)
        with pytest.raises(DomainError):
            psi.check_convexity(rng)

    def test_convexity_spot_check_passes_quadratic(self, rng):
        PsiFunction(lambda b: b * b / 2).check_convexity(rng)


class TestPsiStarInverseNumeric:
    def test_zero_shortcut(self):
        assert psi_star_inverse_numeric(PsiFunction(lambda b: b * b), 0.0) == 0.0

    def test_quadratic_matches_closed_form(self):
        value = psi_star_inverse_numeric(PsiFunction(lambda b: b * b / 2), 0.5)
        assert value == pytest.approx(1.0, rel=1e-9)

    def test_sub_gamma_shape_on_unit_interval(self):
        psi = PsiFunction(lambda b: b * b / (2 * (1 - b)), beta_sup=1.0)
        assert psi_star_inverse_numeric(psi, 0.5) == pytest.approx(1.5, rel=1e-9)

    @given(
        sigma=st.floats(0.1, 5.0),
        c=st.floats(0.0, 3.0),
        y=st.floats(1e-6, 20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_closed_forms(self, sigma, c, y):
        model = LossModel.sub_gamma(sigma, c) if c > 0 else LossModel.sub_gaussian(sigma)
        numeric = psi_star_inverse_numeric(PsiFunction.from_loss_model(model), y)
        assert numeric == pytest.approx(psi_star_inverse(model, y), rel=1e-6)


class TestPhiBeta:
    def test_endpoints(self):
        assert phi_beta(1.0, 0.0) == 0.0
        assert phi_beta(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert phi_beta_inverse(1.0, 0.0) == 0.0
        assert phi_beta_inverse(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_known_value(self):
        # -log(0.75) / log 2, evaluated to high precision
        assert phi_beta(math.log(2.0), 0.5) == pytest.approx(0.41503749927884382, abs=1e-12)
        assert phi_beta_inverse(math.log(2.0), 0.41503749927884382) == pytest.approx(0.5, abs=1e-12)

    def test_strictly_increasing_in_x(self):
        for beta in (1e-6, 0.3, 1.0, 7.0):
            xs = np.linspace(0.0, 1.0, 101)
            values = [phi_beta(beta, x) for x in xs]
            assert np.all(np.diff(values) > 0)

    def test_small_beta_stability(self):
        # phi tends to the identity as beta -> 0
        assert phi_beta(1e-9, 0.37) == pytest.approx(0.37, abs=1e-9)
        assert phi_beta_inverse(1e-9, 0.37) == pytest.approx(0.37, abs=1e-9)

    @pytest.mark.parametrize("beta", [1e-9, 1.0, 30.0, 37.0, 38.0, 745.0, 1e6])
    def test_is_one_at_one_for_every_beta(self, beta):
        assert phi_beta(beta, 1.0) == 1.0

    def test_matches_a_decimal_reference_up_to_large_beta(self):
        # (1 - x) + x e^-beta in 60 digits, with the binary x and beta taken exactly.
        near_one = [1 - 1e-16, 1 - 2**-52, 1 - 1e-12, 1 - 1e-6, 0.999]
        with decimal.localcontext() as context:
            context.prec = 60
            for beta in [*10 ** np.linspace(-9, 6, 61), 30.0, 37.0, 37.3, 38.0]:
                for x in [*np.linspace(0.0, 1.0, 41), *near_one]:
                    b, d = decimal.Decimal(float(beta)), decimal.Decimal(float(x))
                    want = float(-((1 - d) + d * (-b).exp()).ln() / b)
                    assert abs(phi_beta(beta, x) - want) <= 1e-15 * want, (beta, x)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            phi_beta(0.0, 0.5)
        with pytest.raises(DomainError):
            phi_beta(1.0, 1.5)
        with pytest.raises(DomainError):
            phi_beta_inverse(-1.0, 0.5)

    def test_inverse_above_one_returns_raw_value(self):
        value = phi_beta_inverse(1.0, 1.4)
        assert value > 1.0

    @given(
        beta=st.floats(0.1, 10.0),
        x=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, beta, x):
        assert abs(phi_beta_inverse(beta, phi_beta(beta, x)) - x) <= 1e-10

    def test_round_trip_on_grid(self):
        for beta in np.linspace(0.1, 10.0, 34):
            for x in np.linspace(0.0, 1.0, 21):
                assert abs(phi_beta_inverse(beta, phi_beta(beta, x)) - x) <= 1e-10

    def test_chain_inequality_with_linear_prefactors(self):
        # phi_inverse(beta, x) <= beta x / (1 - e^-beta) <= x / (1 - beta/2)
        for beta in np.linspace(0.05, 1.95, 39):
            for x in np.linspace(0.0, 1.0, 21):
                lhs = phi_beta_inverse(beta, x)
                mid = beta * x / -math.expm1(-beta)
                rhs = x / (1 - beta / 2)
                assert lhs <= mid + 1e-12
                assert mid <= rhs + 1e-12
