"""Acceptance suite: every certification criterion at its pinned tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
failure report).  Run the whole gate with::

    pytest tests/test_acceptance.py -v
"""

import math
import time

import numpy as np
import pytest

from genbounds import (
    BoundRequest,
    BoundSpec,
    DiscreteDist,
    FiniteProblem,
    GibbsAlgorithm,
    JointTable,
    LossModel,
    QuadraticModel,
    TrialConfig,
    catoni_bound,
    catoni_linear,
    cmi_exact_quantities,
    cmi_expectation,
    dp_prior_mechanism,
    dv_identity_residual,
    empirical_risks,
    enumerate_joint,
    gaussian_icm_objective,
    gibbs_posterior,
    golden_formula_residual,
    iei_exact,
    information_complexity,
    kl_binary,
    kl_binary_inverse_upper,
    local_entropy,
    local_entropy_mc,
    max_info_dp_bound,
    max_info_exact,
    mcallester_linear,
    mutual_info,
    occam_bound,
    occam_spectral_kl,
    oic,
    optimal_gaussian_covariance,
    psi_star_inverse,
    psi_star_inverse_numeric,
    PsiFunction,
    run_cmi_experiment,
    run_dp_prior_experiment,
    run_violation_experiment,
    stochastic_complexity,
    union_bound_beta,
    verify_expectation_bounds,
    zhang_high_prob,
)
from conftest import random_dist, random_problem


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status}: {description}{suffix}")
    assert ok, f"criterion {number:02d} failed: {description}{suffix}"


def standard_problem() -> FiniteProblem:
    """The standard certification problem: 4 experts on a fair coin, n = 50."""
    return FiniteProblem(
        losses=[[0, 1], [1, 0], [0, 1], [1, 0]], mu=DiscreteDist([0.5, 0.5]), n=50
    )


def test_criterion_01_exponential_moment_exactness():
    """Enumerated exponential moment never exceeds 1 on any small configuration."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = -math.inf
    configs = 0
    for num_hyp in (2, 3, 4):
        for n in range(1, 7):
            problem = random_problem(rng, num_hyp, 2, n=n)
            prior = random_dist(rng, num_hyp)
            for beta_alg in (0.5, 2.0):
                def rule(sample, _p=problem, _q=prior, _b=beta_alg):
                    return gibbs_posterior(_q, empirical_risks(_p, sample), _p.n * _b)

                for beta in (0.25, 1.0, 4.0):
                    value = iei_exact(problem, rule, prior, beta)
                    worst = max(worst, value)
                    configs += 1
                    assert value <= 1.0 + 1e-10
    elapsed = time.monotonic() - start
    _report(
        1,
        "exponential-moment enumeration <= 1 + 1e-10",
        worst <= 1.0 + 1e-10 and elapsed < 10.0,
        f"{configs} configs, worst={worst:.12f}, {elapsed:.1f}s",
    )


@pytest.mark.parametrize(
    "label,kind,params",
    [
        ("catoni", "plain", {"bound": "catoni", "beta": 1.0}),
        ("zhang", "plain", {"bound": "zhang", "beta": 1.0}),
        ("cmi", "cmi", {"bound": "cmi", "beta": 0.3}),
        ("dp-prior", "dp", {"bound": "dp-prior", "beta": 1.0, "epsilon": 0.2}),
    ],
)
def test_criterion_02_violation_rate_certification(label, kind, params):
    """Each high-probability bound holds at rate <= delta with CP-95 confidence."""
    start = time.monotonic()
    delta = 0.05
    config = TrialConfig(
        seed=20240817,
        trials=10_000,
        problem=standard_problem(),
        algorithm=GibbsAlgorithm(beta_alg=5.0),
        bound=BoundSpec(params["bound"], {"beta": params["beta"]}),
        delta=delta,
    )
    if kind == "plain":
        report = run_violation_experiment(config)
    elif kind == "cmi":
        report = run_cmi_experiment(config)
    else:
        report = run_dp_prior_experiment(config, params["epsilon"])
    elapsed = time.monotonic() - start
    _report(
        2,
        f"{label} certified over {report.trials} trials",
        report.clopper_pearson_upper_95 <= delta and elapsed < 60.0,
        f"rate={report.rate:.4f}, cp95={report.clopper_pearson_upper_95:.4f}, {elapsed:.1f}s",
    )


def test_criterion_03_expectation_bound_dominance():
    """Exact expected gap is dominated through both information routes."""
    rng = np.random.default_rng(303)
    checked = 0
    worst_residual = 0.0
    for num_hyp in (2, 3, 4):
        for n in (1, 2, 3, 4):
            for algorithm in (GibbsAlgorithm(beta_alg=1.0), GibbsAlgorithm(beta_alg=4.0)):
                problem = random_problem(rng, num_hyp, 2, n=n)
                prior = random_dist(rng, num_hyp)
                report = verify_expectation_bounds(problem, algorithm, prior=prior)
                assert report.mi_bound_holds
                assert report.prior_bound_holds
                worst_residual = max(worst_residual, abs(report.golden_residual))
                assert abs(report.golden_residual) <= 1e-10
                checked += 1
    _report(
        3,
        "expected gap <= both information bounds on enumerated problems",
        checked >= 20,
        f"{checked} problems, worst golden residual={worst_residual:.2e}",
    )


def test_criterion_04_variational_identities():
    """Gibbs identity residuals vanish; no posterior beats the Gibbs posterior."""
    rng = np.random.default_rng(404)
    worst_residual = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        p = DiscreteDist(rng.dirichlet(np.ones(k)))
        q = random_dist(rng, k)
        f = rng.normal(size=k) * 2.0
        beta = float(rng.uniform(0.1, 6.0))
        worst_residual = max(worst_residual, abs(dv_identity_residual(p, q, f, beta)))
    assert worst_residual <= 1e-10

    worst_gap = 0.0
    trials = 0
    for _ in range(20):
        problem = random_problem(rng, 4, 2, n=3)
        q = random_dist(rng, 4)
        sample = rng.integers(0, 2, size=3)
        beta = float(rng.uniform(0.2, 2.0))
        posterior, value = oic(q, problem, sample, beta)
        sc = stochastic_complexity(q, empirical_risks(problem, sample), problem.n * beta)
        assert abs(value - sc) <= 1e-10
        risks = empirical_risks(problem, sample)
        for _ in range(50):
            other = DiscreteDist(rng.dirichlet(np.ones(4)))
            gap = value - information_complexity(other, q, risks, problem.n * beta)
            worst_gap = max(worst_gap, gap)
            trials += 1
            assert gap <= 1e-12
    _report(
        4,
        "variational identity and Gibbs optimality",
        trials >= 1000,
        f"worst residual={worst_residual:.2e}, worst optimality gap={worst_gap:.2e}",
    )


def test_criterion_05_dual_inversions():
    """Numeric Legendre-dual inverse and binary-KL inversion hit their targets."""
    rng = np.random.default_rng(505)
    worst_rel = 0.0
    for _ in range(100):
        sigma = float(rng.uniform(0.2, 4.0))
        c = float(rng.uniform(0.0, 2.0)) if rng.random() < 0.5 else 0.0
        model = LossModel.sub_gamma(sigma, c) if c > 0 else LossModel.sub_gaussian(sigma)
        y = float(rng.uniform(1e-4, 10.0))
        numeric = psi_star_inverse_numeric(PsiFunction.from_loss_model(model), y)
        closed = psi_star_inverse(model, y)
        worst_rel = max(worst_rel, abs(numeric - closed) / closed)
        assert abs(numeric - closed) <= 1e-6 * closed

    worst_round = 0.0
    for _ in range(200):
        y = float(rng.uniform(0.0, 0.9))
        # roots representable in float64: see the kl inversion unit tests
        x_root = y + (1.0 - y) * -math.expm1(-float(rng.uniform(0.05, 14.0)))
        c = kl_binary(y, x_root)
        x = kl_binary_inverse_upper(y, c)
        assert x < 1.0
        worst_round = max(worst_round, abs(kl_binary(y, x) - c))
        assert abs(kl_binary(y, x) - c) <= 1e-9
    _report(
        5,
        "dual inversions match closed forms and round-trip",
        True,
        f"worst rel={worst_rel:.2e}, worst kl round-trip={worst_round:.2e}",
    )


def test_criterion_06_ordering_chain_and_union_grid():
    """Catoni <= linearized bounds; analytic beta optimizer matches a fine grid."""
    rng = np.random.default_rng(606)
    for _ in range(1000):
        req = BoundRequest(
            n=int(rng.integers(1, 500)),
            delta=float(rng.uniform(0.01, 1.0)),
            empirical_risk=float(rng.uniform(0.0, 1.0)),
            kl=float(rng.uniform(0.0, 20.0)),
            beta=float(rng.uniform(0.05, 1.95)),
            model=LossModel.bernoulli(),
        )
        a, b, c = catoni_bound(req), catoni_linear(req), mcallester_linear(req)
        assert a.raw_value <= b.raw_value + 1e-12
        assert b.raw_value <= c.raw_value + 1e-12

    worst_grid = 0.0
    for n, alpha, sigma, v, kl, delta in (
        (100, 2.0, 0.5, 10.0, 1.0, 0.05),
        (400, 1.5, 1.0, 5.0, 3.0, 0.1),
        (50, 3.0, 0.25, 2.0, 0.0, 0.5),
        (10_000, 2.0, 1.0, 0.05, 2.0, 0.05),  # clip at v active
    ):
        model = LossModel.sub_gaussian(sigma)
        req = BoundRequest(n=n, delta=delta, kl=kl, model=model)
        result = union_bound_beta(req, alpha=alpha, v=v)
        log_alpha = math.log(alpha)
        k_const = max(math.log(v * sigma / math.sqrt(2 * alpha)) / log_alpha, 0.0) + math.e
        penalty = kl + math.log((math.log(math.sqrt(n)) / log_alpha + k_const) / delta)
        grid = np.linspace(v / 10**5, v, 10**5)
        objective = alpha * penalty / (n * grid) + grid * sigma**2 / 2.0
        worst_grid = max(worst_grid, abs(result.value - float(objective.min())))
        assert abs(result.value - float(objective.min())) <= 1e-6
    _report(
        6,
        "bound ordering chain and union-grid agreement",
        True,
        f"worst grid mismatch={worst_grid:.2e}",
    )


def test_criterion_07_gaussian_posterior_optimality():
    """The curvature-matched covariance is stationary, optimal, and its bound
    differs from the exact-KL bound by exactly the dropped trace term."""
    rng = np.random.default_rng(707)
    worst_derivative = 0.0
    worst_gap_error = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 5))
        model = QuadraticModel(
            hessian_eigenvalues=rng.uniform(0.0, 1.5, size=k),
            w_p=rng.normal(size=k),
            w_q=rng.normal(size=k),
            lam=float(rng.uniform(0.3, 2.0)),
            n=int(rng.integers(1, 11)),
            beta=float(rng.uniform(0.2, 1.2)),
        )
        star = optimal_gaussian_covariance(model)
        best = gaussian_icm_objective(model, star)
        for _ in range(5):
            direction = rng.uniform(-1.0, 1.0, size=k)
            step = 1e-4
            derivative = (
                gaussian_icm_objective(model, star + step * direction)
                - gaussian_icm_objective(model, star - step * direction)
            ) / (2 * step)
            worst_derivative = max(worst_derivative, abs(derivative))
            assert abs(derivative) <= 1e-5
        for _ in range(50):
            perturbed = star * rng.uniform(0.5, 2.0, size=k)
            assert gaussian_icm_objective(model, perturbed) >= best - 1e-12

        occam = occam_bound(model, 0.25, 0.3)
        exact = zhang_high_prob(
            BoundRequest(
                n=model.n,
                delta=0.25,
                empirical_risk=0.3,
                kl=occam_spectral_kl(model),
                beta=model.beta,
                model=LossModel.sub_gaussian(1.0),
            )
        )
        spectrum = model.regularized_spectrum()
        dropped = float(np.sum(model.lam / spectrum - 1.0)) / (2 * model.n * model.beta)
        gap_error = abs((occam.value - exact.value) + dropped)
        worst_gap_error = max(worst_gap_error, gap_error)
        assert gap_error <= 1e-10
    _report(
        7,
        "Gaussian covariance stationarity, optimality, and bound gap",
        True,
        f"worst derivative={worst_derivative:.2e}, worst gap error={worst_gap_error:.2e}",
    )


def test_criterion_08_selector_information_sanity():
    """Selector information lies in [0, n log 2] and dominates the exact gap."""
    rng = np.random.default_rng(808)
    checked = 0
    for num_hyp in (2, 3, 4):
        for n in (1, 2, 3):
            problem = random_problem(rng, num_hyp, 2, n=n)
            cmi, gap = cmi_exact_quantities(problem, GibbsAlgorithm(beta_alg=2.0))
            assert 0.0 <= cmi <= n * math.log(2.0) + 1e-12
            if n == 3:
                assert gap <= cmi_expectation(cmi, n) + 1e-12
            checked += 1
    _report(8, "selector information in range and dominating the gap", checked == 9)


def test_criterion_09_max_information():
    """Max-information dominates mutual information, transfers event probabilities,
    and is capped by the privacy ceiling for the exponential mechanism."""
    rng = np.random.default_rng(909)
    for _ in range(500):
        joint = JointTable.from_weights(rng.random((int(rng.integers(2, 5)), int(rng.integers(2, 5)))) + 1e-3)
        assert max_info_exact(joint, 0.0) >= mutual_info(joint) - 1e-12

    for _ in range(100):
        joint = JointTable.from_weights(rng.random((3, 4)) + 0.02)
        alpha = float(rng.uniform(0.0, 0.4))
        level = max_info_exact(joint, alpha)
        p = joint.probs
        q = p.sum(axis=1, keepdims=True) * p.sum(axis=0, keepdims=True)
        event = rng.random(p.shape) < 0.5
        assert p[event].sum() <= math.exp(level) * q[event].sum() + alpha + 1e-9

    for epsilon in (0.3, 1.0):
        for n in (2, 3):
            problem = random_problem(rng, 3, 2, n=n)
            joint = enumerate_joint(problem, lambda sample: dp_prior_mechanism(problem, sample, epsilon))
            assert max_info_exact(joint, 0.0) <= max_info_dp_bound(epsilon, n, 0.0) + 1e-9
            for alpha in (0.05, 0.2):
                assert max_info_exact(joint, alpha) <= max_info_dp_bound(epsilon, n, alpha) + 1e-9
    _report(9, "max-information dominance, transfer, and privacy ceiling", True)


def test_criterion_10_local_entropy():
    """Closed-form smoothed free energy matches Monte Carlo; the smoothed
    low-loss log-volume strictly shrinks as any curvature eigenvalue grows."""
    model = QuadraticModel(
        hessian_eigenvalues=[0.6, 2.2], w_p=[0.3, -0.5], w_q=[0.0, 0.0], lam=1.0, n=1, beta=1.4
    )
    gamma = 0.9
    estimate = local_entropy_mc(model, gamma, draws=10**6, seed=1010)
    closed = local_entropy(model, gamma)
    mc_ok = abs(estimate.value - closed) <= 3.0 * estimate.std_error

    # The returned free energy is pinned by the Gaussian-integral convention
    # (-log Z / beta), so flatness reads as: log-volume = -beta * value is
    # strictly decreasing in each eigenvalue.
    monotone = True
    for axis in range(2):
        volumes = []
        for bump in np.linspace(0.0, 2.0, 9):
            h = np.array(model.hessian_eigenvalues, copy=True)
            h[axis] += bump
            bumped = QuadraticModel(
                hessian_eigenvalues=h, w_p=model.w_p, w_q=model.w_q, lam=1.0, n=1, beta=1.4
            )
            volumes.append(-bumped.beta * local_entropy(bumped, gamma))
        monotone = monotone and bool(np.all(np.diff(volumes) < 0))
    _report(
        10,
        "local-entropy closed form vs Monte Carlo and curvature monotonicity",
        mc_ok and monotone,
        f"|closed - mc|={abs(estimate.value - closed):.2e}, 3se={3 * estimate.std_error:.2e}",
    )
