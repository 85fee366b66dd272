"""Tests for the certification harness: enumeration, experiments, privacy audit."""

import dataclasses
import functools
import itertools
import math
import pickle
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import genbounds.bounds
import genbounds.cli
from genbounds import (
    BoundRequest,
    BoundSpec,
    BudgetError,
    ConfigurationError,
    DiscreteDist,
    DomainError,
    ErmAlgorithm,
    ExpectationBoundReport,
    FiniteProblem,
    GibbsAlgorithm,
    JointTable,
    LossModel,
    PacBayesSgdParams,
    ParameterError,
    TrialConfig,
    annealed_risks,
    certify,
    clopper_pearson_upper,
    cmi_exact_quantities,
    cmi_expectation,
    cmi_trial,
    conditional_kl,
    conditional_mutual_info,
    dp_mechanism_max_log_ratio,
    dp_prior_mechanism,
    dp_prior_trial,
    empirical_risks,
    enumerate_joint,
    gibbs_posterior,
    golden_formula_residual,
    iter_samples,
    kl_discrete,
    mutual_info,
    pacbayes_sgd_objective,
    run_cmi_experiment,
    run_dp_prior_experiment,
    run_violation_experiment,
    subgamma_mi,
    true_risks,
    union_beta_grid,
    union_bound_beta,
    verify_expectation_bounds,
    violation_trial,
    xu_raginsky,
    zhang_gen_expectation,
)
import genbounds.harness
from genbounds.harness import (
    _INC_FACTOR,
    _block_evaluator,
    _bound_model,
    _jump_constants,
    _mul_add128,
    _mulhi,
    _one_trial,
    _summarize,
    _thresholds,
    _trial_counts,
    _trials,
)
from genbounds.posteriors import _table_posteriors
from genbounds.problems import tabulate, tabulate_types
from genbounds.registry import BOUNDS
from conftest import random_problem


def standard_problem(n=50):
    """Four expert hypotheses over a fair coin: two per side, no perfect one."""
    return FiniteProblem(
        losses=[[0, 1], [1, 0], [0, 1], [1, 0]], mu=DiscreteDist([0.5, 0.5]), n=n
    )


def make_config(problem, bound, trials=400, seed=7, delta=0.05, beta=1.0, params=(), **kwargs):
    """A trial config; ``params`` are the values of the bound's table ``fields``, in their order."""
    fields = dict(zip(BOUNDS[bound].fields, params)) if params else {}
    return TrialConfig(
        seed=seed,
        trials=trials,
        problem=problem,
        algorithm=kwargs.pop("algorithm", GibbsAlgorithm(beta_alg=5.0)),
        bound=BoundSpec(bound, {"beta": beta, **fields}),
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

    def test_gibbs_equals_the_gibbs_posterior_against_the_uniform_prior_bit_for_bit(self, rng):
        for _ in range(50):
            h, k, n = (int(x) for x in rng.integers(1, [6, 5, 30]))
            problem = random_problem(rng, h, k, n)
            sample = rng.integers(0, k, size=n)
            beta_alg = float(10 ** rng.uniform(-3, 2))
            post = GibbsAlgorithm(beta_alg).posterior(problem, sample)
            want = gibbs_posterior(DiscreteDist.uniform(h), empirical_risks(problem, sample), n * beta_alg)
            assert post.probs.tobytes() == want.probs.tobytes()


#: The confidences of the exact grid, and its (violations, trials): T <= 250, v spread over [0, T).
CP_CONFIDENCES = [0.5, 0.9, 0.95, 0.99]
CP_GRID = sorted(
    {(v, t) for t in (1, 2, 3, 5, 10, 17, 50, 100, 250) for v in (0, 1, 2, 3, t // 4, t // 2, 3 * t // 4, t - 2, t - 1)
     if 0 <= v < t}
)


def cdf_exceeds(violations, trials, p, alpha):
    """F(v; T, p) = P[Bin(T, p) <= v] > alpha, exactly, for rationals p = m / d and alpha.

    F d^T = (d - m)^(T - v) sum_{j <= v} C(T, j) m^j (d - m)^(v - j), so the
    comparison is one of integers.
    """
    p, alpha = Fraction(p), Fraction(alpha)
    m, d = p.numerator, p.denominator
    head, binomial = 0, 1
    for j in range(violations + 1):
        head += binomial * m**j * (d - m) ** (violations - j)
        binomial = binomial * (trials - j) // (j + 1)
    return (d - m) ** (trials - violations) * head * alpha.denominator > alpha.numerator * d**trials


def root_is_within(violations, trials, confidence, value, rel=Fraction(1, 10**14)):
    """True when the root of F(v; T, p) = 1 - confidence lies within ``rel`` relative of ``value``.

    F falls in p, so the root lies in [a, b] exactly when F(a) > 1 - confidence >= F(b).
    """
    alpha = 1 - Fraction(confidence)
    below, above = Fraction(value) * (1 - rel), min(Fraction(value) * (1 + rel), Fraction(1))
    return cdf_exceeds(violations, trials, below, alpha) and not cdf_exceeds(violations, trials, above, alpha)


class TestClopperPearson:
    def test_zero_violations(self):
        # 1 - 0.05^(1/n) closed form
        assert clopper_pearson_upper(0, 100) == pytest.approx(1 - 0.05 ** (1 / 100))

    def test_all_violations(self):
        assert clopper_pearson_upper(10, 10) == 1.0

    def test_monotone_in_violations(self):
        uppers = [clopper_pearson_upper(k, 50) for k in range(0, 51, 5)]
        assert np.all(np.diff(uppers) > 0)

    @pytest.mark.parametrize("confidence", CP_CONFIDENCES)
    @pytest.mark.parametrize("violations, trials", CP_GRID)
    def test_the_exact_root_lies_within_1e_14(self, violations, trials, confidence):
        assert root_is_within(violations, trials, confidence, clopper_pearson_upper(violations, trials, confidence))

    @pytest.mark.parametrize("violations", [65, 3, 1])
    def test_the_acceptance_values_are_within_1e_14_of_the_exact_root(self, violations):
        assert root_is_within(violations, 10_000, 0.95, clopper_pearson_upper(violations, 10_000))

    @pytest.mark.parametrize("confidence", [0.01, 0.3])
    @pytest.mark.parametrize("violations, trials", [(1, 3), (2, 10), (5, 17), (40, 50), (100, 250)])
    def test_below_confidence_one_half_the_root_lies_within_1e_14(self, violations, trials, confidence):
        assert root_is_within(violations, trials, confidence, clopper_pearson_upper(violations, trials, confidence))

    def test_matches_betaincinv_up_to_a_million_trials(self):
        rng = np.random.default_rng(20240817)
        for _ in range(300):
            trials = int(10 ** rng.uniform(0, 6))
            violations = int(rng.integers(0, trials + 1))
            confidence = float(rng.choice(CP_CONFIDENCES))
            expected = 1.0 if violations == trials else scipy.special.betaincinv(
                violations + 1, trials - violations, confidence
            )
            got = clopper_pearson_upper(violations, trials, confidence)
            assert got == pytest.approx(expected, rel=1e-11, abs=0), (violations, trials, confidence)

    def test_nondecreasing_in_violations_and_confidence(self):
        for trials in (7, 50, 1000):
            uppers = [clopper_pearson_upper(v, trials) for v in range(0, trials + 1, max(1, trials // 100))]
            assert np.all(np.diff(uppers) >= 0), trials
        levels = [0.01, 0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999]
        for violations, trials in [(0, 10), (1, 10), (5, 10), (9, 10), (65, 10_000), (5000, 10_000)]:
            uppers = [clopper_pearson_upper(violations, trials, c) for c in levels]
            assert np.all(np.diff(uppers) >= 0), (violations, trials)

    def test_nonincreasing_in_trials(self):
        for violations in (0, 1, 5, 65):
            uppers = [clopper_pearson_upper(violations, trials) for trials in range(violations + 1, violations + 300)]
            assert np.all(np.diff(uppers) <= 0), violations

    @pytest.mark.parametrize("confidence", CP_CONFIDENCES)
    def test_at_least_the_rate_from_confidence_one_half(self, confidence):
        for violations, trials in CP_GRID + [(65, 10_000), (500_000, 10**6)]:
            assert clopper_pearson_upper(violations, trials, confidence) >= violations / trials

    @pytest.mark.parametrize("confidence", [0.01, 0.5, 0.95, 0.99])
    def test_zero_violations_is_the_closed_form(self, confidence):
        for trials in (1, 2, 100, 10**6):
            assert clopper_pearson_upper(0, trials, confidence) == -math.expm1(math.log1p(-confidence) / trials)

    @pytest.mark.parametrize("confidence", [0.01, 0.5, 0.95])
    def test_as_many_violations_as_trials_gives_1(self, confidence):
        for trials in (1, 2, 10**6):
            assert clopper_pearson_upper(trials, trials, confidence) == 1.0

    def test_numpy_integers_are_accepted(self):
        expected = clopper_pearson_upper(65, 10_000)
        for kind in (np.int32, np.int64, np.uint32, np.uint64):
            got = clopper_pearson_upper(kind(65), kind(10_000))
            assert type(got) is float and got == expected

    @pytest.mark.parametrize("confidence", [1.5, 1.0, 0.0, -0.1, math.nan])
    def test_a_confidence_outside_0_1_is_refused(self, confidence):
        with pytest.raises(DomainError, match="confidence"):
            clopper_pearson_upper(3, 10, confidence)


class TestSampleTable:
    def test_rows_follow_iter_samples_and_the_index_formula(self, rng):
        problem = random_problem(rng, 3, 3, n=3)
        algorithm = GibbsAlgorithm(beta_alg=1.0)
        samples, weights, risks = tabulate(problem)
        probs = _table_posteriors(problem, algorithm, samples, risks)
        expected = list(iter_samples(problem))
        assert len(samples) == len(expected) == 27
        for row, (sample, weight) in enumerate(expected):
            assert np.array_equal(samples[row], sample)
            assert sum(int(s) * 3 ** (2 - i) for i, s in enumerate(sample)) == row
            assert weights[row] == weight
            assert np.array_equal(risks[row], empirical_risks(problem, sample))
            assert np.array_equal(probs[row], algorithm.posterior(problem, sample).probs)


class TestEnumerateJoint:
    def test_constant_algorithm_gives_product(self, rng):
        problem = random_problem(rng, 3, 2, n=3)
        joint = enumerate_joint(problem, lambda sample: DiscreteDist([0.2, 0.5, 0.3]))
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
        report = verify_expectation_bounds(problem, lambda sample: DiscreteDist.uniform(3))
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

    def test_gibbs_posteriors_within_rounding_of_the_prior(self):
        # At beta_alg <= 1e-8 the rows' KLs sum a few ulps below 0, and I(S;W) sits below float resolution,
        # so only the averaged-KL route is checked.
        rng = np.random.default_rng(15)
        for _ in range(20):
            problem = random_problem(rng, 4, 3, n=4)
            report = verify_expectation_bounds(problem, GibbsAlgorithm(beta_alg=10 ** rng.uniform(-12, -8)))
            assert report.prior_bound_holds
            assert abs(report.golden_residual) <= 1e-10

    @pytest.mark.parametrize("model", [LossModel.sub_gaussian(4.0), LossModel.sub_gamma(4.0, 0.5)],
                             ids=["sub-gaussian", "sub-gamma"])
    def test_the_mi_route_reads_the_loss_model(self, model):
        # Losses in [0, 8) are 4-sub-Gaussian by Hoeffding's lemma.  A route read at the unit scale 1/2
        # failed this correct learner on 90 of these 200 problems.
        rng = np.random.default_rng(0)
        for _ in range(200):
            losses, masses = 8 * rng.random((3, 2)), rng.random(2) + 0.2
            problem = FiniteProblem(losses=losses, mu=DiscreteDist.from_weights(masses), n=4)
            report = verify_expectation_bounds(problem, GibbsAlgorithm(beta_alg=2.0), model=model)
            info = report.mutual_information
            assert report.mi_gap_bound == zhang_gen_expectation(info, 4, model)
            want = subgamma_mi(info, 4, 4.0, model.c) if model.c else xu_raginsky(info, 4, 4.0)
            assert report.mi_gap_bound == pytest.approx(want, rel=1e-15)
            assert report.mi_bound_holds and report.prior_bound_holds

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


def table_report(table, problem, rule, prior=None):
    """The expectation-bound report computed from one sample table and one call per row of a callable rule."""
    samples, weights, risks = table(problem)
    probs = np.array([rule(sample).probs for sample in samples])
    joint = JointTable.from_weights(weights[:, None] * probs)
    q = prior if prior is not None else DiscreteDist.uniform(problem.num_hypotheses)
    info = mutual_info(joint)
    return ExpectationBoundReport(
        mutual_information=info,
        expected_gap=float(np.sum(joint.probs * (true_risks(problem) - risks))),
        mi_gap_bound=xu_raginsky(info, problem.n, 0.5),
        prior_gap_bound=zhang_gen_expectation(conditional_kl(joint, q), problem.n, LossModel.bounded_unit()),
        golden_residual=golden_formula_residual(joint, q),
    )


def type_table(problem):
    """The type table with each row's risks recomputed from its sorted sample: (samples, weights, risks)."""
    counts, weights, _ = tabulate_types(problem)
    samples = [np.repeat(np.arange(problem.num_outcomes), row) for row in counts]
    return samples, weights, np.array([empirical_risks(problem, sample) for sample in samples])


def reference_type_audit(problem, epsilon):
    """The privacy audit by recomputing the mechanism's log prior on every type and after every move of a count."""
    k = problem.num_outcomes
    counts, _, _ = tabulate_types(problem)
    log_priors = {
        tuple(row): reference_log_prior(problem, np.repeat(np.arange(k), row), epsilon) for row in counts.tolist()
    }
    worst = 0.0
    for row, log_prior in log_priors.items():
        for a, b in itertools.permutations(range(k), 2):
            if row[a]:
                neighbor = list(row)
                neighbor[a] -= 1
                neighbor[b] += 1
                worst = max(worst, float(np.max(np.abs(log_prior - log_priors[tuple(neighbor)]))))
    return worst


@st.composite
def audit_problems(draw):
    """A problem with [0, 1] losses, h <= 5, 2 <= k <= 5 and n <= 6, whose data law may have zero masses."""
    h, k, n = draw(st.integers(1, 5)), draw(st.integers(2, 5)), draw(st.integers(1, 6))
    loss = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1)
    losses = draw(st.lists(st.lists(loss, min_size=k, max_size=k), min_size=h, max_size=h))
    masses = draw(st.lists(st.just(0.0) | st.floats(0.05, 1), min_size=k, max_size=k).filter(any))
    return FiniteProblem(losses=losses, mu=DiscreteDist.from_weights(masses), n=n)


class FirstOutcome:
    """A rule that reads the order of the sample: it trusts the first outcome most."""

    def __init__(self, problem):
        self.problem = problem

    def __call__(self, sample):
        weights = np.ones(self.problem.num_hypotheses)
        weights[int(sample[0]) % self.problem.num_hypotheses] += 4.0
        return DiscreteDist.from_weights(weights)


class TestTypeTable:
    """Exchangeable rules are checked on C(n + k - 1, k - 1) types instead of k^n sequences."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rows_are_the_types(self, n, k):
        problem = random_problem(np.random.default_rng([n, k, 1]), 3, k, n=n)
        algorithm = GibbsAlgorithm(beta_alg=2.0)
        counts, weights, risks = tabulate_types(problem)
        probs = algorithm._posterior_rows(risks, DiscreteDist.uniform(3).probs, n)
        assert len(counts) == len(weights) == len(risks) == math.comb(n + k - 1, k - 1)
        assert counts.shape[1] == k and np.all(counts >= 0) and np.all(counts.sum(axis=1) == n)
        assert abs(math.fsum(weights) - 1.0) <= 1e-12
        for row, count in enumerate(counts):
            sample = np.repeat(np.arange(k), count)
            assert np.array_equal(risks[row], empirical_risks(problem, sample))
            assert np.array_equal(probs[row], algorithm.posterior(problem, sample).probs)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_count_rows_follow_the_order_of_sorted_samples(self, k):
        for n in range(1, 8):
            problem = FiniteProblem(losses=np.zeros((1, k)), mu=DiscreteDist.uniform(k), n=n)
            counts, _, _ = tabulate_types(problem)
            expected = [
                np.bincount(sample, minlength=k)
                for sample in itertools.combinations_with_replacement(range(k), n)
            ]
            assert counts.dtype.kind == "i" and np.array_equal(counts, expected)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "algorithm",
        [GibbsAlgorithm(beta_alg=2.0), ErmAlgorithm(), ErmAlgorithm(tie_break="uniform")],
        ids=["gibbs", "erm-lowest", "erm-uniform"],
    )
    @pytest.mark.parametrize("fixed_prior", [False, True], ids=["uniform", "fixed"])
    def test_verify_matches_the_sequence_table(self, n, k, algorithm, fixed_prior):
        rng = np.random.default_rng([n, k, 2])
        problem = random_problem(rng, 4, k, n=n, binary=isinstance(algorithm, ErmAlgorithm))
        prior = DiscreteDist.from_weights(rng.random(4) + 0.05) if fixed_prior else None
        got = verify_expectation_bounds(problem, algorithm, prior=prior)
        want = table_report(tabulate, problem, functools.partial(algorithm.posterior, problem), prior)
        for field in ("mutual_information", "expected_gap", "prior_gap_bound", "golden_residual"):
            assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12, field
        # The bound is sqrt(I / 2n): rounding noise of 1e-16 in an information
        # that is truly 0 moves it by 1e-8, so compare the information it is made of.
        assert got.mi_gap_bound == xu_raginsky(got.mutual_information, n, 0.5)
        assert abs(got.mi_gap_bound**2 - want.mi_gap_bound**2) <= 1e-12

    def test_a_rule_that_reads_the_order_runs_on_sequences(self, rng):
        problem = random_problem(rng, 3, 2, n=4)
        report = verify_expectation_bounds(problem, FirstOutcome(problem))
        assert report == table_report(tabulate, problem, FirstOutcome(problem))
        # On types the rule would see only sorted samples, which changes the result.
        assert report != table_report(type_table, problem, FirstOutcome(problem))

    @pytest.mark.parametrize(
        "algorithm",
        [GibbsAlgorithm(beta_alg=2.0), ErmAlgorithm(), ErmAlgorithm(tie_break="uniform")],
        ids=["gibbs", "erm-lowest", "erm-uniform"],
    )
    @pytest.mark.parametrize("prior", ["uniform", "fixed", "zero-mass"])
    @pytest.mark.parametrize("mu", [[0.3, 0.2, 0.5], [0.6, 0.0, 0.4]], ids=["interior", "zero-mass"])
    def test_verify_equals_the_rule_on_each_type(self, algorithm, prior, mu):
        rng = np.random.default_rng(11)
        problem = FiniteProblem(losses=rng.integers(0, 2, (4, 3)).astype(float), mu=DiscreteDist(mu), n=5)
        q = {
            "uniform": None,
            "fixed": DiscreteDist.from_weights(rng.random(4) + 0.05),
            "zero-mass": DiscreteDist([0.5, 0.0, 0.25, 0.25]),
        }[prior]
        report = verify_expectation_bounds(problem, algorithm, prior=q)
        assert report == table_report(type_table, problem, functools.partial(algorithm.posterior, problem), q)

    @pytest.mark.parametrize("epsilon", [0.1, 0.7, 3.0])
    @pytest.mark.parametrize("mu", [[0.3, 0.2, 0.5], [0.6, 0.0, 0.4]], ids=["interior", "zero-mass"])
    def test_audit_equals_the_mechanism_on_each_type(self, epsilon, mu):
        problem = FiniteProblem(losses=np.random.default_rng(3).random((4, 3)), mu=DiscreteDist(mu), n=5)
        assert dp_mechanism_max_log_ratio(problem, epsilon) == reference_type_audit(problem, epsilon)

    @given(
        problem=audit_problems(),
        epsilon=st.integers(-200, 350).map(lambda e: 10 ** (e / 100)),
        words=st.integers(1, 40),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_audit_across_blocks_equals_every_move(self, problem, epsilon, words):
        # Blocks of at most a few rows, so most neighbours lie in other blocks; at n epsilon / 2 up to
        # about 10^4 some priors round to 0 and take their logs from the logits.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(genbounds.harness, "_BLOCK_WORDS", words)
            assert dp_mechanism_max_log_ratio(problem, epsilon) == reference_type_audit(problem, epsilon)

    def test_verify_runs_where_the_sequences_exceed_the_budget(self, rng):
        problem = random_problem(rng, 3, 2, n=25)
        report = verify_expectation_bounds(problem, GibbsAlgorithm(beta_alg=1.0))
        assert report.mi_bound_holds and report.prior_bound_holds
        assert abs(report.golden_residual) <= 1e-10
        with pytest.raises(BudgetError, match="33554432 sequences"):
            enumerate_joint(problem, GibbsAlgorithm(beta_alg=1.0))
        with pytest.raises(BudgetError, match="33554432 sequences"):
            verify_expectation_bounds(problem, FirstOutcome(problem))

    def test_verify_runs_where_the_multinomials_exceed_a_float(self, rng):
        problem = random_problem(rng, 3, 2, n=5000)
        report = verify_expectation_bounds(problem, GibbsAlgorithm(beta_alg=1.0))
        assert report.mi_bound_holds and report.prior_bound_holds
        assert abs(report.golden_residual) <= 1e-10

    def test_budget_error_names_the_type_count(self, rng):
        problem = random_problem(rng, 3, 3, n=4)
        with pytest.raises(BudgetError, match="enumerating 15 types exceeds the budget of 10"):
            verify_expectation_bounds(problem, ErmAlgorithm(), budget=10)
        with pytest.raises(BudgetError, match="enumerating 15 types exceeds the budget of 10"):
            dp_mechanism_max_log_ratio(problem, 0.5, budget=10)

    def test_codes_beyond_int64(self, rng):
        # 64 outcomes at n = 1: the code of a count vector reaches 2^63.
        problem = random_problem(rng, 3, 64, n=1)
        _, _, risks = tabulate(problem)
        for row, (sample, _) in enumerate(iter_samples(problem)):
            assert np.array_equal(risks[row], empirical_risks(problem, sample))
        assert dp_mechanism_max_log_ratio(problem, 0.7) == reference_audit(problem, 0.7)


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


class TestTruthWithinTheLosses:
    """A truth that rounds past the range of the losses must not count a correct bound as violated."""

    def test_a_true_risk_rounded_past_1_is_not_a_violation(self):
        # mu's masses sum to 1 + 2^-52, so the constant-1 row's true risk rounded to 1 + 2^-52, above
        # the bound clamped to 1, on every trial that draws outcome 0 alone: 1297 violations before the clip.
        problem = FiniteProblem(
            losses=[[1, 1], [1, 0]], mu=DiscreteDist([0.8410730240022617, 0.15892697599773845]), n=16
        )
        assert sum(problem.mu.probs.tolist()) > 1.0 and true_risks(problem)[0] == 1.0
        config = make_config(problem, "catoni", trials=20_000, seed=20240817, algorithm=ErmAlgorithm())
        report = certify(config)
        assert report.violations == 35 and report.certified(0.05)

    def test_a_gap_rounded_past_the_range_is_clipped(self):
        # Hypothesis 0 has the constant loss 0.7, which some types' risks round to 0.7 + 2^-53: its
        # ghost minus training risk is 0 exactly, but the difference of the rounded risks is not.
        problem = FiniteProblem(losses=[[0.7, 0.7], [1.0, 1.0]], mu=DiscreteDist([0.5, 0.5]), n=7)
        config = make_config(problem, "cmi", trials=200, algorithm=ErmAlgorithm())
        truths = _trials(config, np.arange(config.trials, dtype=np.uint64))[:, 1]
        assert np.all(truths == 0.0)
        assert any(per_trial(config, "supersample", (), t)[1] != 0.0 for t in range(config.trials))


class TestCertifyMemory:
    def test_only_the_pairs_grow_with_the_trials(self):
        # Each trial keeps its (bound, truth) pair, 16 bytes, in one array; the trial indices, the draws
        # and the evaluation of a block do not grow with the trial count.
        certify(make_config(standard_problem(), "zhang", trials=100))
        peaks = []
        for trials in (50_000, 200_000):
            tracemalloc.start()
            try:
                report = certify(make_config(standard_problem(), "zhang", trials=trials))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.trials == trials
        assert (peaks[1] - peaks[0]) / 150_000 <= 20


def reference_cmi_quantities(problem, algorithm):
    """(CMI, expected gap) by a loop over every supersample and selector pair."""
    k, n = problem.num_outcomes, problem.n
    selectors = list(itertools.product((0, 1), repeat=n))
    joint = np.zeros((k ** (2 * n), 2**n, problem.num_hypotheses))
    expected_gap = 0.0
    for zi, flat in enumerate(itertools.product(range(k), repeat=2 * n)):
        z_tilde = np.array(flat, dtype=int).reshape(n, 2)
        weight = float(np.prod(problem.mu.probs[z_tilde])) / 2**n
        for ui, u in enumerate(selectors):
            u = np.array(u)
            train, ghost = z_tilde[np.arange(n), u], z_tilde[np.arange(n), 1 - u]
            posterior = algorithm.posterior(problem, train)
            joint[zi, ui] = weight * posterior.probs
            gaps = empirical_risks(problem, ghost) - empirical_risks(problem, train)
            expected_gap += weight * float(posterior.probs @ gaps)
    return conditional_mutual_info(joint / joint.sum()), expected_gap


def trial_samples(problem, seed, trial, supersample):
    """Trial ``trial``'s training sample and its ghost sample (None without a supersample), drawn by numpy."""
    rng, k, n = np.random.default_rng([seed, trial]), problem.num_outcomes, problem.n
    if not supersample:
        return rng.choice(k, n, p=problem.mu.probs), None
    z_tilde = rng.choice(k, (n, 2), p=problem.mu.probs)
    u = rng.integers(0, 2, n)
    return z_tilde[np.arange(n), u], z_tilde[np.arange(n), 1 - u]


def per_trial_counts(problem, seed, trial, supersample):
    """One trial's training (and ghost) counts, drawn from its own generator."""
    k = problem.num_outcomes
    samples = trial_samples(problem, seed, trial, supersample)
    return np.stack([np.bincount(sample, minlength=k) for sample in samples if sample is not None])


def block_counts(problem, seed, trials, supersample):
    return np.concatenate(list(_trial_counts(problem, seed, trials, supersample)))


def count_problem(k, n):
    weights = [0.3, 0.7] if k == 2 else np.random.default_rng(5).random(k) + 0.2
    return FiniteProblem(losses=np.zeros((1, k)), mu=DiscreteDist.from_weights(weights), n=n)


#: Data laws at the edges of the inverse-CDF search: zero masses, a dyadic CDF, a mass far below 2^-53.
EDGE_MUS = {
    "zero first": [0.0, 0.3, 0.7],
    "zero middle": [0.3, 0.0, 0.7],
    "zero last": [0.3, 0.7, 0.0],
    "dyadic": [0.25, 0.75],
    "1e-300 mass": [1e-300, 0.4, 0.6],
}

#: Unsorted, with a duplicate, and on both sides of the two-word trial index 2^32.
BLOCK_TRIALS = np.array([2**32, *range(299, -1, -1), 2**32 - 1, 17], dtype=np.uint64)


def record_evaluations(monkeypatch):
    """Patch ``_block_evaluator`` to record each block of types ``_trials`` evaluates; returns the record."""
    blocks = []
    original = genbounds.harness._block_evaluator

    def recording(*args):
        supersample, evaluate = original(*args)

        def record(counts):
            blocks.append(counts[:, 0].tolist())
            return evaluate(counts)

        return supersample, record

    monkeypatch.setattr(genbounds.harness, "_block_evaluator", recording)
    return blocks


class TestBlockDraw:
    """The block draw is ``default_rng([seed, trial])`` to the bit, on the installed numpy."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 20240817, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 5])
    @pytest.mark.parametrize("k", [2, 8])
    @pytest.mark.parametrize("n", [7, 10])
    @pytest.mark.parametrize("supersample", [False, True], ids=["sample", "supersample"])
    def test_counts_equal_the_per_trial_draws(self, seed, k, n, supersample):
        problem = count_problem(k, n)
        expected = [per_trial_counts(problem, seed, t, supersample) for t in BLOCK_TRIALS.tolist()]
        assert np.array_equal(block_counts(problem, seed, BLOCK_TRIALS, supersample), expected)

    @pytest.mark.parametrize("n", [50, 51])
    @pytest.mark.parametrize("supersample", [False, True], ids=["sample", "supersample"])
    def test_a_run_longer_than_one_block(self, monkeypatch, n, supersample):
        # 100 words: a chunk of 1 or 2 trials, and blocks of 11 trials, or 5 for a supersample.
        monkeypatch.setattr(genbounds.harness, "_BLOCK_WORDS", 100)
        problem = count_problem(8, n)
        assert len(list(_trial_counts(problem, 3, BLOCK_TRIALS, supersample))) > 1
        expected = [per_trial_counts(problem, 3, t, supersample) for t in BLOCK_TRIALS.tolist()]
        assert np.array_equal(block_counts(problem, 3, BLOCK_TRIALS, supersample), expected)

    @pytest.mark.parametrize("weights", EDGE_MUS.values(), ids=EDGE_MUS.keys())
    @pytest.mark.parametrize("supersample", [False, True], ids=["sample", "supersample"])
    def test_counts_equal_the_per_trial_draws_at_edge_masses(self, weights, supersample):
        problem = FiniteProblem(losses=np.zeros((1, len(weights))), mu=DiscreteDist.from_weights(weights), n=7)
        expected = [per_trial_counts(problem, 20240817, t, supersample) for t in BLOCK_TRIALS.tolist()]
        assert np.array_equal(block_counts(problem, 20240817, BLOCK_TRIALS, supersample), expected)

    @pytest.mark.parametrize(
        "weights", [*EDGE_MUS.values(), np.random.default_rng(5).random(8) + 0.2], ids=[*EDGE_MUS, "8-outcome"]
    )
    def test_a_threshold_count_is_the_inverse_cdf_search(self, weights):
        mu = DiscreteDist.from_weights(weights).probs
        thresholds = _thresholds(mu)
        assert thresholds.dtype == np.uint64 and len(thresholds) == len(mu) - 1
        tops = (thresholds.astype(np.int64)[:, None] + [-1, 0, 1]).ravel()
        tops = tops[(tops >= 0) & (tops < 2**53)].astype(np.uint64)
        counts = (tops[:, None] >= thresholds).sum(axis=1)
        cdf = mu.cumsum()
        cdf /= cdf[-1]  # the table Generator.choice searches
        assert np.array_equal(counts, cdf.searchsorted(tops * 2.0**-53, side="right"))

    def test_each_block_evaluates_its_drawn_types_in_trial_order(self, monkeypatch):
        # 100 words: 14 trials a block, 5 for a supersample, and types repeat within and across blocks.
        problem = count_problem(8, 7)
        for bound, supersample in (("zhang", False), ("cmi", True)):
            config = make_config(problem, bound, trials=300)
            trials = np.arange(config.trials, dtype=np.uint64)
            whole = _trials(config, trials)
            monkeypatch.setattr(genbounds.harness, "_BLOCK_WORDS", 100)
            blocks = record_evaluations(monkeypatch)
            assert np.array_equal(_trials(config, trials), whole)
            drawn = [block[:, 0].tolist() for block in _trial_counts(problem, config.seed, trials, supersample)]
            assert blocks == drawn and len(blocks) > 1
            evaluated = [tuple(row) for block in blocks for row in block]
            assert evaluated == [tuple(per_trial_counts(problem, config.seed, t, supersample)[0]) for t in range(300)]
            assert len(set(evaluated)) < 300
            monkeypatch.undo()

    @pytest.mark.parametrize(
        "h, k, n",
        [(16, 8, 200), (4, 2, 50), (1, 8, 7), (4, 512, 50), (2, 3, 2000)],
        ids=["wide", "coin", "one-hypothesis", "many-outcomes", "long-sample"],
    )
    @pytest.mark.parametrize("supersample", [False, True], ids=["sample", "supersample"])
    def test_a_block_keeps_its_rows_within_the_block_words(self, h, k, n, supersample):
        # A block holds as many trials as keep (parts k + h) values each within the block words,
        # or one chunk of stream words where that is more; only the last block is short.
        problem = FiniteProblem(losses=np.zeros((h, k)), mu=DiscreteDist.uniform(k), n=n)
        words, parts = genbounds.harness._BLOCK_WORDS, 2 if supersample else 1
        width = 2 * n + (n + 1) // 2 if supersample else n
        chunk = max(1, words // width)
        sizes = [len(block) for block in _trial_counts(problem, 5, np.arange(700, dtype=np.uint64), supersample)]
        assert sum(sizes) == 700
        assert all(size * (parts * k + h) <= words or size <= chunk for size in sizes)
        assert sizes[:-1] == [max(chunk, words // (parts * k + h))] * (len(sizes) - 1)

    def test_a_certify_wide_run_is_one_evaluation(self, monkeypatch):
        # 16 x 8, n = 200, 150 trials: the stream words come 40 trials at a time, 16 for a
        # supersample, and all 150 trials make one block.
        problem = wide_problem()
        for bound in ("zhang", "cmi"):
            config = make_config(problem, bound, trials=150)
            blocks = record_evaluations(monkeypatch)
            _trials(config, np.arange(config.trials, dtype=np.uint64))
            assert len(blocks) == 1 and len(blocks[0]) > 100, bound
            monkeypatch.undo()

    def test_block_boundaries_of_the_seeding_and_the_draws(self, monkeypatch):
        # 100 words: each block of 33 trials is seeded by itself and drawn 14 at a time, or for a
        # supersample each block of 20 is drawn 5 at a time.
        monkeypatch.setattr(genbounds.harness, "_BLOCK_WORDS", 100)
        problem = count_problem(2, 7)
        for supersample in (False, True):
            expected = [per_trial_counts(problem, 11, t, supersample) for t in BLOCK_TRIALS.tolist()]
            assert np.array_equal(block_counts(problem, 11, BLOCK_TRIALS, supersample), expected)

    @pytest.mark.parametrize(
        "trials",
        [range(0, 3000), range(2**32 - 1500, 2**32 + 1500), range(7, 9000, 3)],
        ids=["from-0", "across-2^32", "stepped"],
    )
    def test_a_range_and_its_index_array_give_the_same_blocks(self, monkeypatch, trials):
        # 100 words: blocks of 33 trials, or 20 for a supersample, each seeded by itself.
        monkeypatch.setattr(genbounds.harness, "_BLOCK_WORDS", 100)
        problem = count_problem(2, 7)
        indices = np.array(list(trials), dtype=np.uint64)
        for supersample in (False, True):
            ranged = list(_trial_counts(problem, 11, trials, supersample))
            indexed = list(_trial_counts(problem, 11, indices, supersample))
            assert len(ranged) == len(indexed) > 1
            assert all(np.array_equal(a, b) for a, b in zip(ranged, indexed))

    def test_each_block_is_seeded_by_itself(self, monkeypatch):
        # On the coin at n = 50 a block holds 1365 trials, so 10^4 trials are seeded in 8 calls.
        config = make_config(standard_problem(), "zhang", trials=10_000)
        seeded = []
        original = genbounds.harness._pcg64_origins

        def recording(seed, trials):
            seeded.append(trials.tolist())
            return original(seed, trials)

        monkeypatch.setattr(genbounds.harness, "_pcg64_origins", recording)
        pairs = _trials(config, range(config.trials))
        assert [len(trials) for trials in seeded] == [1365] * 7 + [445]
        assert [t for trials in seeded for t in trials] == list(range(config.trials))
        monkeypatch.setattr(genbounds.harness, "_BLOCK_WORDS", 100)
        assert np.array_equal(_trials(config, range(config.trials)), pairs)

    def test_certifications_create_no_generator(self, monkeypatch):
        zhang = make_config(standard_problem(), "zhang", trials=2000)
        cmi = make_config(standard_problem(), "cmi", trials=2000, beta=0.3)

        def refuse(*args, **kwargs):
            raise AssertionError("a certification seeded a generator per trial")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert run_violation_experiment(zhang).trials == 2000
        assert run_cmi_experiment(cmi).trials == 2000

    @pytest.mark.parametrize("trial", [-1, 2**64, 1.0, True])
    def test_a_trial_index_is_an_integer_below_2_to_the_64(self, trial):
        with pytest.raises(ConfigurationError):
            violation_trial(make_config(standard_problem(), "zhang", trials=1), trial)


PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: Limbs at the edges of the 32-bit halves and of the carries.
EDGE_LIMBS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def limbs(values):
    """(hi, lo) uint64 arrays of Python ints in [0, 2^128)."""
    return tuple(np.array([v >> shift & (2**64 - 1) for v in values], dtype=np.uint64) for shift in (64, 0))


def joined(hi, lo):
    return [a << 64 | b for a, b in zip(hi.ravel().tolist(), lo.ravel().tolist())]


class TestStreamArithmetic:
    """The jump arithmetic of the block streams, against Python integers."""

    def test_mulhi_on_edge_limbs(self):
        a, b = np.array(list(itertools.product(EDGE_LIMBS, repeat=2)), dtype=np.uint64).T
        assert _mulhi(a, b).tolist() == [x * y >> 64 for x, y in zip(a.tolist(), b.tolist())]

    def test_mul_add128_on_edge_limbs(self):
        values = [hi << 64 | lo for hi, lo in itertools.product(EDGE_LIMBS, repeat=2)]
        a, b, c = map(list, zip(*itertools.product(values, repeat=3)))
        want = [(x * y + z) % 2**128 for x, y, z in zip(a, b, c)]
        assert joined(*_mul_add128(limbs(a), limbs(b), limbs(c))) == want
        # A scalar factor, as the origins take u^-1.
        a, c = map(list, zip(*itertools.product(values, repeat=2)))
        for y in values:
            scalar = tuple(np.uint64(limb[0]) for limb in limbs([y]))
            assert joined(*_mul_add128(limbs(a), scalar, limbs(c))) == [(x * y + z) % 2**128 for x, z in zip(a, c)]

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 5, 2**128 - 1])
    def test_origins_are_the_seed_sequence_state(self, seed):
        # One block mixes one- and two-word trials.  The last two seeds are four words, so a
        # two-word trial mixes two entropy words past the pool, and 2^64 + 3 mixes one.
        trials = np.array([0, 17, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)
        u_inverse = pow((PCG_MULT - 1) // 4, -1, 2**128)
        xs, ys = [], []
        for trial in trials.tolist():
            state = np.random.SeedSequence([seed, trial]).generate_state(4, np.uint64)
            init_hi, init_lo, seq_hi, seq_lo = state.tolist()
            inc = (2 * (seq_hi << 64 | seq_lo) + 1) % 2**128
            xs.append(((init_hi << 64 | init_lo) + inc) % 2**128)
            ys.append((4 * xs[-1] + inc * u_inverse) % 2**128)
        origins = genbounds.harness._pcg64_origins(seed, trials)
        assert origins.shape == (4, len(trials)) and origins.dtype == np.uint64
        assert joined(*origins[:2]) == xs and joined(*origins[2:]) == ys
        # A block of one width alone seeds its trials as the mixed block does.
        for part in (slice(0, 3), slice(3, 5)):
            assert np.array_equal(genbounds.harness._pcg64_origins(seed, trials[part]), origins[:, part])

    def test_jump_constants_are_the_lcg_sums_times_u(self):
        # B_t = C_t u with C_t = sum_{i<t} MULT^i and MULT - 1 = 4 u, for t = 2..m+1.
        u, power, total, want = (PCG_MULT - 1) // 4, PCG_MULT, 1, []
        for _ in range(300):
            total = (total + power) % 2**128
            power = power * PCG_MULT % 2**128
            want.append(total * u % 2**128)
            assert (4 * want[-1] + 1) % 2**128 == power
        assert joined(*_jump_constants(300)) == want

    @given(x=st.integers(0, 2**128 - 1), inc=st.integers(0, 2**127 - 1).map(lambda v: 2 * v + 1))
    @settings(max_examples=30, deadline=None)
    def test_one_product_jump_equals_sequential_steps(self, x, inc):
        u_inverse = pow((PCG_MULT - 1) // 4, -1, 2**128)
        y = (4 * x + inc * u_inverse) % 2**128
        assert joined(*_mul_add128(limbs([inc]), _INC_FACTOR, limbs([4 * x % 2**128]))) == [y]
        (y_hi, y_lo), (x_hi, x_lo) = limbs([y]), limbs([x])
        states = _mul_add128(_jump_constants(599), (y_hi[:, None], y_lo[:, None]), (x_hi[:, None], x_lo[:, None]))
        want, state = [], (PCG_MULT * x + inc) % 2**128
        for _ in range(599):  # t = 2..600
            state = (PCG_MULT * state + inc) % 2**128
            want.append(state)
        assert joined(*states) == want


class TestCmiExperiment:
    def test_supersample_split(self):
        # The training and ghost counts of a trial together count its whole supersample z~.
        problem = count_problem(8, 6)
        trials = np.arange(40, dtype=np.uint64)
        counts = block_counts(problem, 3, trials, supersample=True)
        for t in trials.tolist():
            z_tilde = np.random.default_rng([3, t]).choice(8, (6, 2), p=problem.mu.probs)
            assert counts[t].sum(axis=1).tolist() == [6, 6]
            assert np.array_equal(counts[t].sum(axis=0), np.bincount(z_tilde.ravel(), minlength=8))

    def test_trials_follow_the_validated_draw(self):
        problem = soft_problem(n=9)
        config = make_config(problem, "cmi", trials=60, beta=0.3, algorithm=ErmAlgorithm("uniform"))
        for trial in range(config.trials):
            train, ghost = trial_samples(problem, config.seed, trial, supersample=True)
            posterior = config.algorithm.posterior(problem, train)
            risks = empirical_risks(problem, train)
            gap = float(posterior.probs @ (empirical_risks(problem, ghost) - risks))
            request = BoundRequest(
                n=problem.n, delta=config.delta, empirical_risk=float(posterior.probs @ risks),
                kl=kl_discrete(posterior, DiscreteDist.uniform(4)), beta=0.3, model=LossModel.bounded_unit(),
            )
            assert cmi_trial(config, trial) == (genbounds.bounds.cmi_pac_high_prob(request).value, gap)

    def test_certifies_on_standard_problem(self):
        config = make_config(standard_problem(), "cmi", trials=2000, beta=0.3)
        report = run_cmi_experiment(config)
        assert report.certified(0.05)

    def test_rejects_a_bound_of_another_trial(self):
        with pytest.raises(ConfigurationError):
            run_cmi_experiment(make_config(standard_problem(), "catoni", trials=10))

    def test_sample_ignoring_rule_has_zero_information(self, rng):
        problem = random_problem(rng, 3, 2, n=2)
        cmi, gap = cmi_exact_quantities(problem, lambda sample: DiscreteDist.uniform(3))
        assert cmi == pytest.approx(0.0, abs=1e-12)
        assert gap == pytest.approx(0.0, abs=1e-12)

    def test_exact_quantities_dominated_by_expectation_bound(self, rng):
        for _ in range(5):
            problem = random_problem(rng, 3, 2, n=3)
            cmi, gap = cmi_exact_quantities(problem, GibbsAlgorithm(beta_alg=2.0))
            assert 0.0 <= cmi <= problem.n * math.log(2.0) + 1e-12
            assert gap <= cmi_expectation(cmi, problem.n) + 1e-12

    def test_budget_error_names_the_joint_size(self, rng):
        problem = random_problem(rng, 3, 2, n=3)
        with pytest.raises(BudgetError, match="1536 entries exceeds the budget of 1000"):
            cmi_exact_quantities(problem, ErmAlgorithm(), budget=1000)

    def test_budget_error_names_the_largest_n_that_fits(self, rng):
        # k^(2n) 2^n h entries: 24, 192, 1536 and 12288 for n = 1..4 with k = 2, h = 3.
        problem = random_problem(rng, 3, 2, n=4)
        for budget, fits in [(1000, "n ≤ 2 fits"), (1536, "n ≤ 3 fits"), (23, "no n fits")]:
            with pytest.raises(BudgetError, match=f"^a supersample joint of 12288 entries .*; {fits}$"):
                cmi_exact_quantities(problem, ErmAlgorithm(), budget=budget)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exact_quantities_match_the_pair_loop(self, n, k):
        problem = random_problem(np.random.default_rng([n, k]), 3, k, n=n)
        algorithm = GibbsAlgorithm(beta_alg=2.0)
        cmi, gap = cmi_exact_quantities(problem, algorithm)
        ref_cmi, ref_gap = reference_cmi_quantities(problem, algorithm)
        assert cmi == pytest.approx(ref_cmi, abs=1e-12)
        assert gap == pytest.approx(ref_gap, abs=1e-12)

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


def reference_log_prior(problem, sample, epsilon):
    """The log of the mechanism's prior; an entry below the normal floats is taken from the logits."""
    prior = dp_prior_mechanism(problem, sample, epsilon).probs
    logits = (
        np.log(DiscreteDist.uniform(problem.num_hypotheses).probs)
        - problem.n * epsilon / 2.0 * empirical_risks(problem, sample)
    )
    with np.errstate(divide="ignore"):
        return np.where(prior < np.finfo(float).tiny, logits - scipy.special.logsumexp(logits), np.log(prior))


def reference_audit(problem, epsilon):
    """The privacy audit by recomputing the mechanism on every neighbour."""
    worst = 0.0
    for sample, _ in iter_samples(problem):
        prior = reference_log_prior(problem, sample, epsilon)
        for i in range(problem.n):
            for z in range(problem.num_outcomes):
                if z == sample[i]:
                    continue
                neighbor = sample.copy()
                neighbor[i] = z
                other = reference_log_prior(problem, neighbor, epsilon)
                worst = max(worst, float(np.max(np.abs(prior - other))))
    return worst


class TestDpPriorExperiment:
    @pytest.mark.parametrize(
        "losses, epsilon, error",
        [([[0, 1], [1, 0]], -1.0, DomainError), ([[0, 2], [1, 0]], 0.5, ConfigurationError)],
        ids=["negative-epsilon", "losses-beyond-1"],
    )
    def test_audit_checks_its_inputs_before_the_type_table(self, monkeypatch, losses, epsilon, error):
        def refuse(*args, **kwargs):
            raise AssertionError("the audit built the type table before it checked its inputs")

        monkeypatch.setattr(genbounds.harness, "tabulate_types", refuse)
        problem = FiniteProblem(losses=losses, mu=DiscreteDist([0.5, 0.5]), n=10**5)
        with pytest.raises(error):
            dp_mechanism_max_log_ratio(problem, epsilon)

    def test_mechanism_is_private_exhaustively(self, rng):
        for epsilon in (0.2, 1.0):
            problem = random_problem(rng, 3, 2, n=4)
            worst = dp_mechanism_max_log_ratio(problem, epsilon)
            assert worst <= epsilon + 1e-12

    def test_audit_matches_the_neighbour_loop(self, rng):
        for k, n in ((2, 4), (3, 3)):
            problem = random_problem(rng, 3, k, n=n)
            for epsilon in (0.2, 1.0, 50.0):
                assert dp_mechanism_max_log_ratio(problem, epsilon) == reference_audit(
                    problem, epsilon
                )

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_audit_over_types_matches_the_neighbour_loop(self, n, k):
        problem = random_problem(np.random.default_rng([n, k, 3]), 3, k, n=n)
        for epsilon in (0.2, 1.0, 50.0):
            assert dp_mechanism_max_log_ratio(problem, epsilon) == reference_audit(problem, epsilon)

    def test_audit_sees_a_ratio_beside_a_hypothesis_both_priors_exclude(self):
        # Priors (1, 0, 0) on [0, 0] and (.5, .5, 0) on [0, 1] in floats: in
        # log space hypothesis 1 has log ratio 3000 - log 2, hypothesis 2 has
        # 1500 - log 2, and neither is infinite.
        problem = FiniteProblem(
            losses=[[0, 1], [1, 0], [1, 1]], mu=DiscreteDist([0.5, 0.5]), n=2
        )
        assert dp_mechanism_max_log_ratio(problem, 3000.0) == 2999.30685281944
        assert reference_audit(problem, 3000.0) == 2999.30685281944

    def test_audit_sees_the_ratio_of_a_hypothesis_both_priors_round_to_0(self):
        # Hypothesis 1 trails by 0.5 to 0.6 in risk, so at n epsilon / 2 = 3000 every prior is (1, 0)
        # in floats; one changed coordinate moves its log prior by 3000 * 0.1 / 2.
        problem = FiniteProblem(losses=[[0, 0.5], [0.6, 1]], mu=DiscreteDist([0.5, 0.5]), n=2)
        worst = dp_mechanism_max_log_ratio(problem, 3000.0)
        assert worst == reference_audit(problem, 3000.0)
        assert abs(worst - 150.0) <= 1e-9

    @pytest.mark.parametrize("n", [4600, 4800, 5000])
    def test_audit_of_priors_that_underflow_stays_within_epsilon(self, n):
        # n epsilon / 2 is 690, 720 and 750: the worse expert's prior entry on an all-one-outcome
        # sample is e^-690, a normal float, then a subnormal, then 0.
        problem = FiniteProblem(losses=[[0, 1], [1, 0]], mu=DiscreteDist([0.5, 0.5]), n=n)
        assert dp_mechanism_max_log_ratio(problem, 0.3) == 0.3000000000001819

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


class TestTrialConfig:
    def test_rejects_a_rule_that_may_not_be_exchangeable(self):
        class Constant:
            def posterior(self, problem, sample):
                return DiscreteDist.uniform(4)

        class Subclassed(GibbsAlgorithm):
            pass

        for algorithm in (Constant(), Subclassed(beta_alg=5.0)):
            with pytest.raises(ConfigurationError):
                make_config(standard_problem(), "zhang", algorithm=algorithm)
        make_config(standard_problem(), "zhang", algorithm=ErmAlgorithm(tie_break="uniform"))

    def test_rejects_a_fractional_trial_count(self):
        with pytest.raises(ConfigurationError, match="trials must be a positive integer"):
            make_config(standard_problem(), "zhang", trials=2.5)

    def test_rejects_a_bool_trial_count(self):
        with pytest.raises(ConfigurationError, match="trials must be a positive integer"):
            make_config(standard_problem(), "zhang", trials=True)
        config = make_config(standard_problem(), "zhang", trials=np.int64(20))
        assert run_violation_experiment(config) == run_violation_experiment(
            make_config(standard_problem(), "zhang", trials=20)
        )

    @pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf, "0.1"])
    def test_bound_offset_must_be_a_finite_number(self, offset):
        with pytest.raises(ConfigurationError, match="bound_offset must be a finite number"):
            make_config(standard_problem(), "zhang", bound_offset=offset)

    @pytest.mark.parametrize("delta", [True, "0.05", None], ids=["bool", "string", "none"])
    def test_delta_must_be_a_number(self, delta):
        with pytest.raises(ConfigurationError, match="delta must be a number"):
            make_config(standard_problem(), "zhang", delta=delta)

    def test_a_bool_bound_offset_is_refused(self):
        with pytest.raises(ConfigurationError, match="bound_offset must be a finite number"):
            make_config(standard_problem(), "zhang", bound_offset=True)

    def test_a_prior_must_be_a_distribution(self):
        with pytest.raises(ConfigurationError, match="prior must be a DiscreteDist"):
            make_config(standard_problem(n=5), "zhang", prior=[0.25, 0.25, 0.25, 0.25])

    def test_equal_configs_hash_equal(self):
        problem = standard_problem()
        config, twin = (make_config(problem, "dp-prior", params=(0.2,)) for _ in range(2))
        assert config == twin and hash(config) == hash(twin)
        assert hash(config.bound) == hash(BoundSpec("dp-prior", {"epsilon": 0.2, "beta": 1.0}))
        assert len({config, twin, make_config(problem, "dp-prior", params=(0.3,))}) == 2
        assert config.bound.params.get("epsilon") == 0.2
        assert dict(**config.bound.params) == {"beta": 1.0, "epsilon": 0.2}

    def test_a_bound_spec_keeps_its_own_params(self):
        params = {"beta": 1.0}
        spec = BoundSpec("zhang", params)
        params["beta"] = 2.0
        assert spec.params == {"beta": 1.0} and list(spec.params) == ["beta"]
        with pytest.raises(TypeError):
            spec.params["beta"] = 3.0
        assert pickle.loads(pickle.dumps(spec)) == spec

    @pytest.mark.parametrize("pair", [(math.nan, 0.5), (0.5, math.nan)], ids=["bound", "truth"])
    def test_a_nan_bound_or_truth_refuses_the_summary(self, pair):
        with pytest.raises(DomainError, match="NaN"):
            _summarize([(0.6, 0.5), pair])

    def test_seed_must_be_a_non_negative_integer(self):
        for seed in (-1, True, 1.5):
            with pytest.raises(ConfigurationError):
                make_config(standard_problem(), "zhang", seed=seed)
        config = make_config(standard_problem(), "zhang", seed=np.int64(3), trials=20)
        assert run_violation_experiment(config) == run_violation_experiment(
            make_config(standard_problem(), "zhang", seed=3, trials=20)
        )


def soft_problem(n=12):
    """Random [0, 1] losses, so trials of one type sum their losses in another order."""
    return random_problem(np.random.default_rng(11), 4, 3, n=n)


class TestTypeLoop:
    """A block's trials are evaluated row by row; reports must equal the one-trial entry points."""

    @pytest.mark.parametrize("problem", [standard_problem(n=20), soft_problem()], ids=["coin", "soft"])
    @pytest.mark.parametrize(
        "algorithm", [GibbsAlgorithm(beta_alg=5.0), ErmAlgorithm()], ids=["gibbs", "erm"]
    )
    @pytest.mark.parametrize("prior", [None, DiscreteDist([0.4, 0.3, 0.2, 0.1])], ids=["uniform", "fixed"])
    def test_reports_equal_the_one_trial_entry_points(self, problem, algorithm, prior):
        runs = (
            ("zhang", run_violation_experiment, violation_trial, ()),
            ("cmi", run_cmi_experiment, cmi_trial, ()),
            ("dp-prior", run_dp_prior_experiment, dp_prior_trial, (0.3,)),
        )
        for bound, run, one_trial, params in runs:
            config = make_config(problem, bound, trials=120, algorithm=algorithm, prior=prior)
            if bound == "dp-prior" and prior is not None:
                # The private prior replaces the configured one, which is refused rather than ignored.
                for call in (lambda: run(config, *params), lambda: one_trial(config, 0, *params)):
                    with pytest.raises(ConfigurationError, match="does not read a prior"):
                        call()
                continue
            singles = [one_trial(config, t, *params) for t in range(config.trials)]
            assert run(config, *params) == _summarize(singles), bound

    def test_bound_is_one_call_per_block_with_a_row_per_trial(self, monkeypatch):
        calls = []
        original = genbounds.bounds.zhang_high_prob

        def counted(request):
            calls.append(request)
            return original(request)

        monkeypatch.setattr(genbounds.bounds, "zhang_high_prob", counted)
        config = make_config(standard_problem(), "zhang", trials=2000)
        run_violation_experiment(config)
        # Blocks of 1365 trials on the coin at n = 50; a type drawn again is evaluated again.
        assert [len(request.kl) for request in calls] == [1365, 635]

    @pytest.mark.parametrize("bound", ["zhang", "dp-prior"])
    def test_annealed_truth_without_beta_raises_the_bounds_error(self, bound):
        config = make_config(standard_problem(), bound, trials=10, beta=None)
        with pytest.raises(ParameterError):
            if bound == "zhang":
                run_violation_experiment(config)
            else:
                run_dp_prior_experiment(config, 0.2)


def wide_problem(n=200):
    """A seed-drawn 16 x 8 problem with {0, 1} losses, where nearly every trial has its own type."""
    return random_problem(np.random.default_rng(5), 16, 8, n=n, binary=True)


#: (bound, trial kind, bound parameters) of the certification trials.
TRIAL_KINDS = (
    ("zhang", "plain", ()),
    ("catoni", "plain", ()),
    ("cmi", "supersample", ()),
    ("dp-prior", "private-prior", (0.3,)),
)


def per_type(config, kind, params, counts):
    """(risks, posterior, bound, truth) of one training type from the public primitives.

    The truth is None for the gap to a ghost sample.
    """
    problem = config.problem
    n, h = problem.n, problem.num_hypotheses
    sample = np.repeat(np.arange(problem.num_outcomes), counts)
    risks = empirical_risks(problem, sample)
    uniform = DiscreteDist.uniform(h)
    prior = config.prior if config.prior is not None else uniform
    base = uniform
    if kind == "private-prior":
        prior = base = dp_prior_mechanism(problem, sample, *params)
    if isinstance(config.algorithm, GibbsAlgorithm):
        posterior = gibbs_posterior(base, risks, n * config.algorithm.beta_alg)
    else:
        posterior = config.algorithm.posterior(problem, sample)
    model = LossModel.bernoulli() if problem.has_binary_losses else LossModel.bounded_unit()
    beta = config.bound.params["beta"]
    request = BoundRequest(
        n=n,
        delta=config.delta,
        empirical_risk=float(posterior.probs @ risks),
        kl=kl_discrete(posterior, prior),
        beta=beta,
        model=model,
    )
    entry = BOUNDS[config.bound.name]
    bound = entry.request(request, *params).value
    if entry.truth == "gap":
        return risks, posterior.probs, bound, None
    truth_risks = annealed_risks(problem, beta) if entry.truth == "annealed" else true_risks(problem)
    return risks, posterior.probs, bound, float(posterior.probs @ truth_risks)


def per_trial(config, kind, params, trial):
    """(bound, truth) of one trial from the per-trial draw and the public primitives."""
    problem = config.problem
    train, ghost = trial_samples(problem, config.seed, trial, kind == "supersample")
    risks, posterior, bound, truth = per_type(config, kind, params, np.bincount(train, minlength=problem.num_outcomes))
    if truth is None:
        truth = float(posterior @ (empirical_risks(problem, ghost) - risks))
    return bound, truth


class TestBlockEvaluator:
    """A block of types is evaluated as the one-sample primitives evaluate each type, to the bit."""

    @pytest.mark.parametrize("fixed_prior", [False, True], ids=["uniform", "fixed"])
    @pytest.mark.parametrize(
        "algorithm",
        [GibbsAlgorithm(beta_alg=5.0), ErmAlgorithm(), ErmAlgorithm(tie_break="uniform")],
        ids=["gibbs", "erm-lowest", "erm-uniform"],
    )
    @pytest.mark.parametrize(
        "problem, bound, kind, params",
        [(problem, *trial) for problem in (wide_problem(), soft_problem()) for trial in TRIAL_KINDS
         if problem.has_binary_losses or trial[0] != "catoni"],
        ids=[f"{name}-{trial[0]}" for name in ("wide", "soft") for trial in TRIAL_KINDS
             if name == "wide" or trial[0] != "catoni"],
    )
    def test_rows_equal_the_per_type_primitives(self, problem, bound, kind, params, fixed_prior, algorithm):
        h = problem.num_hypotheses
        prior = DiscreteDist.from_weights(np.arange(1.0, h + 1)) if fixed_prior else None
        config = make_config(problem, bound, trials=1, algorithm=algorithm, prior=prior, params=params)
        if kind == "private-prior" and fixed_prior:
            with pytest.raises(ConfigurationError, match="does not read a prior"):
                _block_evaluator(config)
            return
        parts = 2 if kind == "supersample" else 1
        counts = np.random.default_rng(3).multinomial(problem.n, problem.mu.probs, size=(40, parts))
        counts[5] = counts[2]  # a repeated type is evaluated again, the same way
        supersample, evaluate = _block_evaluator(config)
        posteriors, rows = evaluate(counts)
        assert supersample == (kind == "supersample") and rows.shape == (40, 2)
        for i, (train, *ghost) in enumerate(counts):
            risks, want_posterior, want_bound, want_truth = per_type(config, kind, params, train)
            if ghost:
                ghost_risks = empirical_risks(problem, np.repeat(np.arange(problem.num_outcomes), ghost[0]))
                want_truth = float(want_posterior @ (ghost_risks - risks))
            assert np.array_equal(posteriors[i], want_posterior)
            assert rows[i].tolist() == [want_bound, want_truth]

    @pytest.mark.parametrize("problem", [wide_problem(), soft_problem()], ids=["wide", "soft"])
    @pytest.mark.parametrize(
        "algorithm",
        [GibbsAlgorithm(beta_alg=5.0), ErmAlgorithm(), ErmAlgorithm(tie_break="uniform")],
        ids=["gibbs", "erm-lowest", "erm-uniform"],
    )
    def test_trials_over_several_blocks_equal_the_per_trial_primitives(self, monkeypatch, problem, algorithm):
        # 300 stream words: blocks of 12 (wide) or 42 (soft) trials, or 9 and 30 for a supersample.
        monkeypatch.setattr(genbounds.harness, "_BLOCK_WORDS", 300)
        fixed = DiscreteDist.from_weights(np.arange(1.0, problem.num_hypotheses + 1))
        for (bound, kind, params), prior in itertools.product(TRIAL_KINDS, (None, fixed)):
            if bound == "catoni" and not problem.has_binary_losses:
                continue
            config = make_config(problem, bound, trials=90, algorithm=algorithm, prior=prior, params=params)
            if kind == "private-prior" and prior is not None:
                with pytest.raises(ConfigurationError, match="does not read a prior"):
                    _trials(config, np.arange(config.trials, dtype=np.uint64))
                continue
            got = _trials(config, np.arange(config.trials, dtype=np.uint64))
            want = [per_trial(config, kind, params, t) for t in range(config.trials)]
            assert [tuple(pair) for pair in got.tolist()] == want, (bound, prior)

    @pytest.mark.parametrize(
        "problem, trials",
        [(standard_problem(n=5), 300), (wide_problem(), 40)],
        ids=["more-trials-than-types", "more-types-than-trials"],
    )
    def test_a_full_type_table_equals_the_per_trial_primitives(self, problem, trials):
        # The coin at n = 5 draws each of its 6 types many times in 300 trials, and the wide
        # problem's 40 trials draw 40 of its C(207, 7) types.
        size = math.comb(problem.n + problem.num_outcomes - 1, problem.num_outcomes - 1)
        for bound, kind, params in TRIAL_KINDS:
            config = make_config(problem, bound, trials=trials, params=params)
            counts = _trial_counts(problem, config.seed, np.arange(trials, dtype=np.uint64), kind == "supersample")
            assert len({row for block in counts for row in map(tuple, block[:, 0].tolist())}) == min(trials, size)
            got = _trials(config, np.arange(config.trials, dtype=np.uint64))
            want = [per_trial(config, kind, params, t) for t in range(config.trials)]
            assert [tuple(pair) for pair in got.tolist()] == want, bound

    @pytest.mark.parametrize("bound, kind, params", TRIAL_KINDS, ids=[trial[0] for trial in TRIAL_KINDS])
    def test_types_whose_counts_agree_in_their_low_bytes_are_told_apart(self, monkeypatch, bound, kind, params):
        # At n = 300, (257, 43) and (1, 299) share their low bytes, so a one-byte count would confuse them.
        # One expert on outcome 0 and two on outcome 1, so the two types have different bounds.
        problem = FiniteProblem(losses=[[0, 1], [1, 0], [1, 0]], mu=DiscreteDist([0.5, 0.5]), n=300)
        config = make_config(problem, bound, trials=3, params=params)
        counts = np.array([[257, 43], [1, 299], [257, 43]])[:, None].repeat(2 if kind == "supersample" else 1, axis=1)
        monkeypatch.setattr(genbounds.harness, "_trial_counts", lambda *args: iter([counts]))
        got = _trials(config, np.arange(3, dtype=np.uint64))
        for (bound_value, _), train in zip(got.tolist(), counts[:, 0]):
            assert bound_value == per_type(config, kind, params, train)[2]
        assert got[0, 0] != got[1, 0]

    @pytest.mark.parametrize("problem", [standard_problem(), wide_problem()], ids=["coin", "wide"])
    def test_posteriors_within_rounding_of_the_prior_are_certified(self, problem):
        # At beta_alg = 1e-9 the posteriors' KLs to the uniform prior sum a few ulps below 0.
        for bound, _, params in TRIAL_KINDS:
            config = make_config(problem, bound, trials=2000, algorithm=GibbsAlgorithm(beta_alg=1e-9), params=params)
            report = _summarize(_trials(config, np.arange(config.trials, dtype=np.uint64)))
            assert report.trials == 2000 and report.certified(config.delta), bound

    @pytest.mark.parametrize("h", [9, 11, 20, 21, 25])
    @pytest.mark.parametrize("bound", ["catoni", "catoni-linear"])
    def test_a_fitted_risk_that_rounds_past_the_losses_is_clipped(self, bound, h):
        # On a sample of outcome 0 alone every risk is 1, and the Gibbs posterior dotted with them
        # rounds to 1 + 2^-52, which a [0, 1] bound refused, ending the certification.
        problem = FiniteProblem(losses=[[1.0, i % 2] for i in range(h)], mu=DiscreteDist([0.7, 0.3]), n=3)
        config = make_config(problem, bound, trials=200, seed=1)
        posteriors, rows = _block_evaluator(config)[1](np.array([[[3, 0]]]))
        assert posteriors[0] @ np.ones(h) > 1.0
        kl = kl_discrete(DiscreteDist(posteriors[0]), DiscreteDist.uniform(h))
        one = BoundRequest(n=3, delta=0.05, empirical_risk=1.0, kl=kl, beta=1.0, model=LossModel.bernoulli())
        assert rows[0, 0] == genbounds.registry.BOUNDS[bound].request(one).value
        assert run_violation_experiment(config).trials == 200

    def test_a_row_that_is_not_a_distribution_is_refused(self, monkeypatch):
        # A learner whose rows are off by more than the mass tolerance is refused as a DiscreteDist would be.
        monkeypatch.setattr(GibbsAlgorithm, "_posterior_rows", lambda self, risks, base, n: 1.5 * base + 0 * risks)
        config = make_config(standard_problem(), "zhang", trials=20)
        with pytest.raises(DomainError, match="probabilities sum to 1.5, not 1"):
            run_violation_experiment(config)


#: The entry points of each trial kind before :func:`certify`: the run function, the one-trial function and the
#: values of the bound's fields they take after the config (and the trial).
TRIAL_ENTRY_POINTS = {
    "plain": (run_violation_experiment, violation_trial, ()),
    "supersample": (run_cmi_experiment, cmi_trial, ()),
    "private-prior": (run_dp_prior_experiment, dp_prior_trial, (0.2,)),
}
CERTIFIABLE = [name for name, entry in BOUNDS.items() if entry.trial is not None]


class TestCertify:
    """One certification path, keyed by the bound table."""

    def test_the_certifiable_bounds(self):
        assert CERTIFIABLE == [
            "zhang", "catoni", "catoni-linear", "mcallester-linear", "pac-bayes-kl", "cmi", "dp-prior"
        ]

    @pytest.mark.parametrize("problem", [standard_problem(), wide_problem()], ids=["coin", "wide"])
    @pytest.mark.parametrize("bound", CERTIFIABLE)
    def test_certify_equals_the_entry_points_of_its_trial(self, problem, bound):
        entry = BOUNDS[bound]
        run, one_trial, values = TRIAL_ENTRY_POINTS[entry.trial]
        config = make_config(problem, bound, trials=300, beta=0.3 if bound == "cmi" else 1.0)
        full = make_config(problem, bound, trials=300, beta=0.3 if bound == "cmi" else 1.0, params=values)
        assert repr(certify(full)) == repr(run(config, *values))
        for trial in (0, 7, 2**40):
            got = _one_trial(full, trial)
            assert repr(got) == repr(one_trial(config, trial, *values))
            assert got == per_trial(full, entry.trial, values, trial)

    @pytest.mark.parametrize("bound", CERTIFIABLE)
    def test_a_certifiable_entry_reads_what_the_cli_can_configure(self, bound):
        entry = BOUNDS[bound]
        assert entry.request is not None and entry.truth in ("annealed", "true", "gap")
        assert entry.trial in TRIAL_ENTRY_POINTS
        assert all(field in genbounds.cli._EXPERIMENT_SCHEMA for field in entry.fields)

    def test_a_bound_without_a_trial_is_refused_with_the_certifiable_bounds(self):
        config = make_config(standard_problem(), "union-beta", trials=10)
        with pytest.raises(ConfigurationError, match="certifiable: " + ", ".join(CERTIFIABLE) + "$"):
            certify(config)

    def test_an_unknown_bound_is_refused(self):
        config = TrialConfig(
            seed=1, trials=10, problem=standard_problem(), algorithm=ErmAlgorithm(),
            bound=BoundSpec("no-such-bound", {"beta": 1.0}), delta=0.05,
        )
        with pytest.raises(ConfigurationError, match="'no-such-bound' has no certification trial"):
            certify(config)

    @pytest.mark.parametrize(
        "bound, params, unread",
        [("zhang", {"epsilon": 0.2}, "epsilon"), ("dp-prior", {"alpha": 2.0, "epsilon": 0.2, "v": 1}, "alpha, v")],
    )
    def test_a_parameter_the_bound_does_not_read_is_refused(self, bound, params, unread):
        config = make_config(standard_problem(), bound, trials=10)
        config = dataclasses.replace(config, bound=BoundSpec(bound, {"beta": 1.0, **params}))
        refusal = re.escape(f"{bound!r} does not read the parameter(s) {unread}") + "$"
        with pytest.raises(ConfigurationError, match=refusal):
            certify(config)
        with pytest.raises(ConfigurationError, match="does not read"):
            _one_trial(config, 0)

    def test_a_missing_field_is_named(self):
        config = make_config(standard_problem(), "dp-prior", trials=10)
        with pytest.raises(ConfigurationError, match="missing required field experiment.epsilon"):
            certify(config)

    def test_an_entry_point_sets_the_bounds_epsilon(self):
        # The run function's epsilon replaces one the config holds, as the argument it is.
        config = make_config(standard_problem(), "dp-prior", trials=200, params=(5.0,))
        want = certify(make_config(standard_problem(), "dp-prior", trials=200, params=(0.2,)))
        assert run_dp_prior_experiment(config, 0.2) == want != certify(config)
        assert config.bound.params == {"beta": 1.0, "epsilon": 5.0}

    @pytest.mark.parametrize("trial", sorted(TRIAL_ENTRY_POINTS))
    def test_a_trial_without_parameters_is_the_config_itself(self, trial):
        # No rebuilt config, so the entry points do not re-run its checks.
        bound = next(name for name in CERTIFIABLE if BOUNDS[name].trial == trial)
        config = make_config(standard_problem(), bound, trials=10, params=TRIAL_ENTRY_POINTS[trial][2])
        assert genbounds.harness._of_trial(config, trial) is config

    @pytest.mark.parametrize("trial", sorted(TRIAL_ENTRY_POINTS))
    def test_an_entry_point_refuses_a_bound_of_another_trial(self, trial):
        run, one_trial, values = TRIAL_ENTRY_POINTS[trial]
        supported = ", ".join(name for name in CERTIFIABLE if BOUNDS[name].trial == trial)
        for bound in CERTIFIABLE:
            if BOUNDS[bound].trial != trial:
                config = make_config(standard_problem(), bound, trials=10)
                refusal = f"not certified by the {trial} trial; supported: {supported}$"
                with pytest.raises(ConfigurationError, match=refusal):
                    run(config, *values)
                with pytest.raises(ConfigurationError, match=f"not certified by the {trial} trial"):
                    one_trial(config, 0, *values)


def mc_deviation(m, delta_prime):
    """The Monte Carlo deviation allowance priced into the retraining objective."""
    params = PacBayesSgdParams(
        n=100, beta=2.0, lam=0.1, alpha=2.0, b=10, c=0.5, m=m, delta=0.05,
        delta_prime=delta_prime, mc_empirical_risk=0.1, kl=1.0,
    )
    return pacbayes_sgd_objective(params).components["mc_deviation"]


class TestBoundModel:
    def test_losses_outside_the_unit_range_are_sub_gaussian_at_half_their_range(self):
        problem = FiniteProblem(losses=[[0.0, 4.0], [1.0, 2.0]], mu=DiscreteDist([0.5, 0.5]), n=10)
        assert _bound_model(problem) == LossModel.sub_gaussian(2.0)

    def test_a_narrow_range_keeps_scale_1(self):
        problem = FiniteProblem(losses=[[0.5, 1.5], [1.0, 0.75]], mu=DiscreteDist([0.5, 0.5]), n=10)
        assert _bound_model(problem) == LossModel.sub_gaussian(1.0)


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
    # sigma = 1e-308 squares to 0; its start is taken without the square.
    @pytest.mark.parametrize("n, v, sigma", [(100, 10.0, 0.5), (10, 1e308, 1e-308)])
    def test_grid_is_geometric_and_covers_v(self, n, v, sigma):
        grid = union_beta_grid(n, 2.0, v, sigma)
        ratios = grid[1:] / grid[:-1]
        assert np.allclose(ratios, 2.0)
        assert grid[-1] * 2.0 >= v

    # Near the limits the grid admits: a start of 1e-300, above the smallest normal float; a span
    # log v - log u of 706.9, below 709; and an alpha of 1 + 1e-5, which asks for 126 000 points.
    @pytest.mark.parametrize("n, alpha, v, sigma",
                             [(1, 2.0, 1e-300, 1.0), (1, 2.0, 1e300, 2e7), (1, 1 + 1e-5, 10.0, 0.5)])
    def test_a_grid_near_the_limits_is_positive_finite_and_geometric(self, n, alpha, v, sigma):
        grid = union_beta_grid(n, alpha, v, sigma)
        assert grid[0] >= np.finfo(float).tiny and np.all(np.isfinite(grid))
        assert np.allclose(grid[1:] / grid[:-1], alpha, rtol=1e-12, atol=0.0)
        assert grid[-1] * alpha >= v

    def test_size_never_exceeds_priced_allowance(self):
        for n in (1, 10, 100, 10**4):
            for v in (0.1, 1.0, 10.0, 100.0):
                for sigma in (0.25, 0.5, 1.0, 3.0):
                    request = BoundRequest(n=n, delta=0.5, model=LossModel.sub_gaussian(sigma))
                    allowance = union_bound_beta(request, 2.0, v).extras["union_grid_allowance"]
                    assert len(union_beta_grid(n, 2.0, v, sigma)) <= allowance
