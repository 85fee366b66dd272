"""Tests for discrete/Gaussian divergences, information measures, and inversions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from genbounds import (
    DiscreteDist,
    DomainError,
    GaussianKLInputs,
    JointTable,
    ShapeError,
    conditional_kl,
    conditional_mutual_info,
    gibbs_posterior,
    golden_formula_residual,
    kl_binary,
    kl_binary_inverse_upper,
    kl_discrete,
    kl_gaussian_diag,
    kl_gaussian_spectral,
    max_info_dp_bound,
    max_info_exact,
    mutual_info,
)
from genbounds.divergences import _kl_rows, _logsumexp
from conftest import random_dist


def random_joint(rng, rows, cols, positive=False):
    w = rng.random((rows, cols))
    if positive:
        w += 0.05
    return JointTable.from_weights(w)


class TestDiscreteDist:
    def test_validation(self):
        with pytest.raises(DomainError):
            DiscreteDist(np.array([0.5, 0.4]))
        with pytest.raises(DomainError):
            DiscreteDist(np.array([1.2, -0.2]))
        with pytest.raises(ShapeError):
            DiscreteDist(np.array([[0.5, 0.5]]))

    def test_uniform_and_weights(self):
        assert np.allclose(DiscreteDist.uniform(4).probs, 0.25)
        assert np.allclose(DiscreteDist.from_weights([2, 2]).probs, [0.5, 0.5])

    @pytest.mark.parametrize("size", [0, -1, 2.5, True, np.float64(3.0)])
    def test_uniform_refuses_a_size_that_is_not_a_positive_integer(self, size):
        with pytest.raises(DomainError, match="^size must be a positive integer$"):
            DiscreteDist.uniform(size)


class TestKlDiscrete:
    def test_identical_is_exactly_zero(self, rng):
        for _ in range(20):
            p = random_dist(rng, 5)
            assert kl_discrete(p, p) == 0.0

    def test_point_mass_against_uniform(self):
        p = DiscreteDist(np.array([1.0, 0.0]))
        q = DiscreteDist(np.array([0.5, 0.5]))
        assert kl_discrete(p, q) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_absolute_continuity_failure(self):
        p = DiscreteDist(np.array([1.0, 0.0]))
        q = DiscreteDist(np.array([0.0, 1.0]))
        assert kl_discrete(p, q) == math.inf

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            kl_discrete(DiscreteDist.uniform(2), DiscreteDist.uniform(3))

    def test_nonnegative(self, rng):
        for _ in range(50):
            p, q = random_dist(rng, 6), random_dist(rng, 6)
            assert kl_discrete(p, q) >= 0.0


class TestKlBinary:
    def test_diagonal_zero(self):
        for y in (0.1, 0.3, 0.5, 0.9):
            assert kl_binary(y, y) == 0.0

    def test_known_value(self):
        # 0.5 log 2 + 0.5 log(2/3)
        assert kl_binary(0.5, 0.25) == pytest.approx(0.14384103622589046, abs=1e-14)

    def test_endpoint_conventions(self):
        assert kl_binary(0.0, 0.5) == pytest.approx(math.log(2.0))
        assert kl_binary(1.0, 0.5) == pytest.approx(math.log(2.0))
        assert kl_binary(0.0, 0.0) == 0.0
        assert kl_binary(1.0, 1.0) == 0.0
        assert kl_binary(0.5, 0.0) == math.inf
        assert kl_binary(0.5, 1.0) == math.inf

    def test_domain(self):
        with pytest.raises(DomainError):
            kl_binary(-0.1, 0.5)
        with pytest.raises(DomainError):
            kl_binary(0.5, 1.1)
        with pytest.raises(DomainError):
            kl_binary([0.5, math.nan], 0.5)

    def test_rows_equal_one_call_per_row(self, rng):
        y = np.concatenate([[0.0, 0.0, 1.0, 1.0, 0.5, 0.5, 0.0, 1.0], rng.random(20)])
        x = np.concatenate([[0.0, 0.5, 1.0, 0.5, 0.0, 1.0, 1.0, 0.0], rng.random(20)])
        rows = kl_binary(y, x)
        assert [repr(v) for v in rows.tolist()] == [repr(kl_binary(a, b)) for a, b in zip(y.tolist(), x.tolist())]
        assert type(kl_binary(0.5, 0.25)) is float


class TestKlBinaryInverseUpper:
    def test_zero_radius(self):
        assert kl_binary_inverse_upper(0.37, 0.0) == 0.37

    def test_y_zero_analytic(self):
        for c in (0.1, 0.5, 2.0):
            assert kl_binary_inverse_upper(0.0, c) == pytest.approx(-math.expm1(-c), abs=1e-11)

    def test_large_radius_stays_below_one(self):
        # kl(0.1 || x) diverges as x -> 1, so the inverse never saturates for
        # finite radii; the root for c = 10 sits just below 1.
        x = kl_binary_inverse_upper(0.1, 10.0)
        assert 0.9999 < x < 1.0
        assert kl_binary(0.1, x) == pytest.approx(10.0, abs=1e-9)

    def test_saturation_at_y_one(self):
        assert kl_binary_inverse_upper(1.0, 5.0) == 1.0

    def test_nan_radius_is_rejected(self):
        with pytest.raises(DomainError):
            kl_binary_inverse_upper(0.1, math.nan)
        with pytest.raises(DomainError):
            kl_binary_inverse_upper([0.1, 0.2], [1.0, math.nan])

    def test_rows_equal_one_call_per_row(self, rng):
        # Rows that stop at once (c = 0, y = 1), bisect from y = 0, saturate, or stop just short of 1 unsnapped.
        y = np.concatenate([[0.37, 1.0, 0.0, 0.1, 1.0 - 1e-13, 0.0, 0.999], rng.random(30)])
        c = np.concatenate([[0.0, 5.0, 0.5, 1e300, 0.0, math.inf, 1e-300], rng.exponential(2.0, 30)])
        rows = kl_binary_inverse_upper(y, c)
        want = [repr(kl_binary_inverse_upper(a, b)) for a, b in zip(y.tolist(), c.tolist())]
        assert [repr(v) for v in rows.tolist()] == want
        assert rows[4] == 1.0 - 1e-13 and rows[3] == rows[5] == 1.0
        assert type(kl_binary_inverse_upper(0.1, 1.0)) is float

    @given(y=st.floats(0.0, 0.9), u_extra=st.floats(0.01, 14.0))
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, y, u_extra):
        # Place the root at 1 - (1-y) e^{-u_extra}; beyond u_extra ~ 15 the
        # float64 grid around 1 is too coarse for any x to hit c within 1e-9.
        x_root = y + (1.0 - y) * -math.expm1(-u_extra)
        c = kl_binary(y, x_root)
        x = kl_binary_inverse_upper(y, c)
        assert x >= y
        assert x < 1.0
        assert abs(kl_binary(y, x) - c) <= 1e-9
        assert kl_binary(y, x) <= c * (1 + 1e-12) + 1e-15


class TestGaussianKl:
    def test_identical_zero(self):
        inputs = GaussianKLInputs(0.0, np.array([2.0, 2.0]), 2.0)
        assert kl_gaussian_spectral(inputs) == pytest.approx(0.0, abs=1e-15)

    def test_scalar_log_ratio(self):
        inputs = GaussianKLInputs(0.0, np.array([2.0]), 1.0)
        assert kl_gaussian_spectral(inputs) == pytest.approx(0.09657359027997265, abs=1e-14)

    def test_mean_shift_only(self):
        inputs = GaussianKLInputs(4.0, np.array([1.0]), 1.0)
        assert kl_gaussian_spectral(inputs) == pytest.approx(2.0, abs=1e-14)

    def test_diag_matches_spectral(self, rng):
        for _ in range(25):
            k = rng.integers(1, 5)
            lam = float(rng.uniform(0.2, 3.0))
            eig = rng.uniform(0.3, 5.0, size=k)
            wp = rng.normal(size=k)
            wq = rng.normal(size=k)
            spectral = kl_gaussian_spectral(
                GaussianKLInputs(float(np.sum((wq - wp) ** 2)), eig, lam)
            )
            diag = kl_gaussian_diag(wp, 1.0 / eig, wq, np.full(k, 1.0 / lam))
            assert diag == pytest.approx(spectral, abs=1e-12)

    def test_diag_known_values(self):
        assert kl_gaussian_diag([0.0], [0.5], [0.0], [1.0]) == pytest.approx(
            0.09657359027997265, abs=1e-14
        )
        assert kl_gaussian_diag([0, 0], [1, 1], [1, 1], [1, 1]) == pytest.approx(1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            GaussianKLInputs(0.0, np.array([0.0]), 1.0)
        with pytest.raises(DomainError):
            kl_gaussian_diag([0.0], [-1.0], [0.0], [1.0])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: GaussianKLInputs(math.nan, np.array([1.0, 2.0]), 1.0),
            lambda: GaussianKLInputs(0.0, np.array([1.0]), math.nan),
            lambda: GaussianKLInputs(0.0, np.array([1.0]), math.inf),
            lambda: kl_gaussian_diag([math.nan], [1.0], [0.0], [1.0]),
            lambda: kl_gaussian_diag([0.0], [1.0], [math.inf], [1.0]),
            lambda: kl_gaussian_diag([0.0], [math.nan], [0.0], [1.0]),
            lambda: kl_gaussian_diag([0.0], [1.0], [0.0], [math.nan]),
            lambda: kl_gaussian_diag([0.0], [math.inf], [0.0], [1.0]),
        ],
        ids=["spectral-nan-mean-gap", "spectral-nan-lam", "spectral-inf-lam", "diag-nan-mean",
             "diag-inf-mean", "diag-nan-p-var", "diag-nan-q-var", "diag-inf-p-var"],
    )
    def test_inputs_that_would_give_nan_are_rejected(self, call):
        with pytest.raises(DomainError):
            call()

    def test_infinite_kl_stays_allowed(self):
        assert kl_gaussian_spectral(GaussianKLInputs(math.inf, np.array([1.0, 2.0]), 1.0)) == math.inf
        assert kl_gaussian_diag([0.0], [1.0], [0.0], [math.inf]) == math.inf


class TestMutualInfo:
    def test_product_joint_zero(self, rng):
        p = random_dist(rng, 3)
        q = random_dist(rng, 4)
        joint = JointTable(np.outer(p.probs, q.probs))
        assert mutual_info(joint) == pytest.approx(0.0, abs=1e-14)

    def test_perfect_correlation(self):
        joint = JointTable(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert mutual_info(joint) == pytest.approx(math.log(2.0))

    def test_nonnegative(self, rng):
        for _ in range(100):
            assert mutual_info(random_joint(rng, 4, 3)) >= 0.0


class TestGoldenFormula:
    def test_residual_vanishes_on_random_joints(self, rng):
        for _ in range(1000):
            joint = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            q = random_dist(rng, joint.num_hypotheses)
            assert abs(golden_formula_residual(joint, q)) <= 1e-10

    def test_oracle_prior_attains_mutual_information(self, rng):
        joint = random_joint(rng, 4, 3)
        oracle = joint.hypothesis_marginal()
        info = mutual_info(joint)
        assert conditional_kl(joint, oracle) == pytest.approx(info, abs=1e-12)
        for _ in range(50):
            q = random_dist(rng, 3)
            assert conditional_kl(joint, q) >= info - 1e-12

    def test_absolute_continuity_sentinel(self, rng):
        joint = random_joint(rng, 3, 3, positive=True)
        q = DiscreteDist(np.array([0.5, 0.5, 0.0]))
        assert golden_formula_residual(joint, q) == math.inf


class TestConditionalMutualInfo:
    def test_independent_given_z(self, rng):
        # p(z, u, w) = p(z) p(u) p(w|z): no selector information
        table = np.zeros((2, 2, 3))
        pz = [0.4, 0.6]
        for z in range(2):
            pw = random_dist(rng, 3).probs
            for u in range(2):
                table[z, u] = pz[z] * 0.5 * pw
        assert conditional_mutual_info(table) == pytest.approx(0.0, abs=1e-14)

    def test_copy_channel_attains_bit_ceiling(self):
        # w = u, u uniform on n=1 bit, z independent
        table = np.zeros((2, 2, 2))
        for z in range(2):
            for u in range(2):
                table[z, u, u] = 0.5 * 0.5
        assert conditional_mutual_info(table) == pytest.approx(math.log(2.0))

    def test_mass_validation(self):
        with pytest.raises(DomainError):
            conditional_mutual_info(np.full((2, 2, 2), 0.25))


# Reference implementations: the support-masked KL formula, the per-row
# averaged-KL loop and the per-sheet selector-information loop that the row
# kernel replaced.  They share no code with the package.


def reference_kl(p: np.ndarray, q: np.ndarray) -> float:
    support = p > 0
    if np.any(q[support] == 0):
        return math.inf
    ps = p[support]
    return float(np.sum(ps * (np.log(ps) - np.log(q[support]))))


def reference_mutual_info(p: np.ndarray) -> float:
    outer = p.sum(axis=1, keepdims=True) * p.sum(axis=0, keepdims=True)
    mask = p > 0
    return max(float(np.sum(p[mask] * (np.log(p[mask]) - np.log(outer[mask])))), 0.0)


def reference_conditional_kl(p: np.ndarray, q: np.ndarray) -> float:
    total = 0.0
    for row in p:
        mass = row.sum()
        if mass == 0:
            continue
        term = reference_kl(row / mass, q)
        if math.isinf(term):
            return math.inf
        total += mass * term
    return total


def reference_conditional_mutual_info(table: np.ndarray) -> float:
    value = 0.0
    for sheet in table:
        mass = sheet.sum()
        if mass == 0:
            continue
        value += mass * reference_mutual_info(sheet / mass)
    return max(value, 0.0)


def sparse_table(rng, shape) -> np.ndarray:
    """A random probability table with about a third of its entries zero, a zero
    first slice along axis 0 (a zero-mass row or sheet) and a zero last column."""
    while True:
        w = rng.random(shape) * (rng.random(shape) > 0.35)
        w[0] = 0.0
        w[..., -1] = 0.0
        if w.sum() > 0:
            return w / w.sum()


class TestRowKernelAgainstReferences:
    def test_kl_discrete_matches_the_support_masked_formula(self, rng):
        for _ in range(300):
            p = sparse_table(rng, (int(rng.integers(3, 12)),))
            q = random_dist(rng, p.size).probs
            assert abs(kl_discrete(DiscreteDist(p), DiscreteDist(q)) - reference_kl(p, q)) <= 1e-15

    def test_conditional_kl_and_mutual_info_match_the_row_loop(self, rng):
        for _ in range(300):
            p = sparse_table(rng, (int(rng.integers(2, 9)), int(rng.integers(2, 7))))
            q = random_dist(rng, p.shape[1]).probs
            joint = JointTable(p)
            assert abs(conditional_kl(joint, DiscreteDist(q)) - reference_conditional_kl(p, q)) <= 1e-15
            assert abs(mutual_info(joint) - reference_mutual_info(p)) <= 1e-15

    def test_a_q_that_misses_the_support_gives_inf(self, rng):
        for _ in range(50):
            p = sparse_table(rng, (int(rng.integers(2, 9)), int(rng.integers(2, 7))))
            q = random_dist(rng, p.shape[1]).probs.copy()  # a DiscreteDist's probs are read-only
            q[np.flatnonzero(p.sum(axis=0))[0]] = 0.0
            q /= q.sum()
            assert reference_conditional_kl(p, q) == math.inf
            assert conditional_kl(JointTable(p), DiscreteDist(q)) == math.inf
            assert kl_discrete(DiscreteDist(p.sum(axis=0)), DiscreteDist(q)) == math.inf

    @pytest.mark.parametrize("h", [2, 3, 4, 8, 16])
    def test_a_posterior_within_rounding_of_its_prior_has_kl_0_not_below(self, h):
        rng = np.random.default_rng(h)
        q = random_dist(rng, h).probs
        rows = np.stack([gibbs_posterior(DiscreteDist(q), rng.random(h), 10 ** rng.uniform(-12, -6)).probs
                         for _ in range(500)])
        raw = np.where(rows > 0, rows * (np.log(rows) - np.log(q)), 0.0).sum(axis=1)
        assert (raw < 0).any()  # the summed terms do round below 0 here
        assert (_kl_rows(rows, q) >= 0).all()
        assert all(kl_discrete(DiscreteDist(row), DiscreteDist(q)) >= 0 for row in rows)

    def test_conditional_mutual_info_matches_the_sheet_loop(self, rng):
        for _ in range(300):
            shape = (int(rng.integers(2, 6)), int(rng.integers(2, 5)), int(rng.integers(2, 6)))
            table = sparse_table(rng, shape)
            assert abs(conditional_mutual_info(table) - reference_conditional_mutual_info(table)) <= 1e-15


def brute_force_max_info(joint: JointTable, alpha: float) -> float:
    """Definitional sup over all events of log((P(O) - alpha) / Q(O))."""
    p = joint.probs.ravel()
    q = (joint.probs.sum(axis=1, keepdims=True) * joint.probs.sum(axis=0, keepdims=True)).ravel()
    best = -math.inf
    for mask in range(1, 1 << p.size):
        bits = [(mask >> i) & 1 for i in range(p.size)]
        po = float(np.dot(bits, p))
        qo = float(np.dot(bits, q))
        if po <= alpha:
            continue
        if qo == 0.0:
            return math.inf
        best = max(best, math.log((po - alpha) / qo))
    return best


class TestMaxInfo:
    def test_product_joint_zero(self, rng):
        p = random_dist(rng, 3)
        q = random_dist(rng, 3)
        joint = JointTable(np.outer(p.probs, q.probs))
        assert max_info_exact(joint, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_correlation(self):
        joint = JointTable(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert max_info_exact(joint, 0.0) == pytest.approx(math.log(2.0))

    def test_matches_brute_force_subset_oracle(self, rng):
        for _ in range(20):
            joint = random_joint(rng, 3, 3, positive=True)
            for alpha in (0.0, 0.05, 0.2):
                exact = max_info_exact(joint, alpha)
                oracle = brute_force_max_info(joint, alpha)
                assert exact == pytest.approx(oracle, abs=1e-6)

    def test_monotone_in_alpha(self, rng):
        for _ in range(20):
            joint = random_joint(rng, 4, 3, positive=True)
            assert max_info_exact(joint, 0.1) <= max_info_exact(joint, 0.0) + 1e-9

    def test_dominates_mutual_information(self, rng):
        for _ in range(100):
            joint = random_joint(rng, 4, 4)
            assert max_info_exact(joint, 0.0) >= mutual_info(joint) - 1e-12

    def test_event_probability_transfer(self, rng):
        # P(O) <= e^k Q(O) + alpha for every event O
        for _ in range(100):
            joint = random_joint(rng, 3, 4, positive=True)
            alpha = float(rng.uniform(0.0, 0.3))
            k = max_info_exact(joint, alpha)
            p = joint.probs
            q = p.sum(axis=1, keepdims=True) * p.sum(axis=0, keepdims=True)
            mask = rng.random(p.shape) < 0.5
            assert p[mask].sum() <= math.exp(k) * q[mask].sum() + alpha + 1e-9


class TestMaxInfoDpBound:
    def test_pure_case_scales_linearly(self):
        assert max_info_dp_bound(0.3, 7, 0.0) == pytest.approx(2.1)

    def test_zero_epsilon(self):
        assert max_info_dp_bound(0.0, 100, 0.0) == 0.0
        assert max_info_dp_bound(0.0, 100, 0.5) == 0.0

    def test_known_value(self):
        assert max_info_dp_bound(0.1, 100, 0.05) == pytest.approx(
            1.8581015157406195, abs=1e-12
        )


#: Losses with ties, signs and both infinities; with beta up to 1e300 they
#: give exponents that underflow, overflow and tie at the maximum.
LOSSES = st.sampled_from([0.0, 0.25, 0.5, 1.0, -1.0, 3.0, math.inf, -math.inf]) | st.floats(-5.0, 5.0)
WEIGHTS = st.sampled_from([0.0, 0.1, 0.25, 0.5]) | st.floats(0.0, 1.0)
BETAS = st.sampled_from([1e-3, 1.0, 50.0, 1e4, 1e300]) | st.floats(1e-3, 1e300)


@st.composite
def logsumexp_inputs(draw):
    """(a, b, axis) shaped like the call sites: one 1-D vector, or rows against one weight row on axis 1."""
    k = draw(st.integers(1, 6))
    rows = draw(st.integers(0, 4))
    shape = (rows, k) if rows else (k,)
    f = np.array(draw(st.lists(LOSSES, min_size=math.prod(shape), max_size=math.prod(shape)))).reshape(shape)
    b = np.array(draw(st.lists(WEIGHTS, min_size=k, max_size=k)))
    return -draw(BETAS) * f, (b[None, :] if rows else b), (1 if rows else None)


def bit_identical(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return (
        x.shape == y.shape
        and np.array_equal(x, y, equal_nan=True)
        and np.array_equal(np.signbit(x), np.signbit(y))
    )


class TestLogSumExp:
    @given(inputs=logsumexp_inputs())
    @settings(max_examples=400, deadline=None)
    def test_matches_scipy_bit_for_bit(self, inputs):
        a, b, axis = inputs
        got = _logsumexp(a, b, axis=axis)
        with np.errstate(over="ignore"):  # scipy divides s / m outside its own errstate
            # scipy masks zero weights to -inf too, except in its direct
            # fallback; on masked input the two agree everywhere.
            assert bit_identical(got, logsumexp(np.where(b == 0, -np.inf, a), axis=axis, b=b))
            if not np.any((b == 0) & (np.exp(a) == np.inf)):
                assert bit_identical(got, logsumexp(a, axis=axis, b=b))

    def test_a_zero_weight_on_an_overflowing_exponent_adds_nothing(self):
        # All weight sits on exp(-inf): the sum is 0 at every beta.  scipy's
        # fallback computes 0 * exp(1e4) = NaN; the helper gives log(0).
        a, b = np.array([-math.inf, 1e4]), np.array([1.0, 0.0])
        assert _logsumexp(a, b) == -math.inf
        assert math.isnan(logsumexp(a, b=b))
        rows = _logsumexp(np.array([[-math.inf, 1e4], [0.0, 1e4]]), b[None, :], axis=1)
        assert rows.tolist() == [-math.inf, 0.0]
