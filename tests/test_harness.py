"""Tests for the certification harness: enumeration, experiments, privacy audit."""

import itertools
import math

import numpy as np
import pytest

import genbounds.bounds
from genbounds import (
    BoundRequest,
    BoundSpec,
    BudgetError,
    ConfigurationError,
    DiscreteDist,
    ErmAlgorithm,
    ExpectationBoundReport,
    FiniteProblem,
    GibbsAlgorithm,
    JointTable,
    LossModel,
    PacBayesSgdParams,
    ParameterError,
    SupersampleDraw,
    TrialConfig,
    annealed_risks,
    clopper_pearson_upper,
    cmi_exact_quantities,
    cmi_expectation,
    cmi_trial,
    conditional_kl,
    conditional_mutual_info,
    dp_mechanism_max_log_ratio,
    dp_prior_mechanism,
    dp_prior_trial,
    draw_supersample,
    empirical_risks,
    enumerate_joint,
    golden_formula_residual,
    iter_samples,
    kl_discrete,
    mutual_info,
    pacbayes_sgd_objective,
    run_cmi_experiment,
    run_dp_prior_experiment,
    run_violation_experiment,
    true_risks,
    union_beta_grid,
    union_bound_beta,
    verify_expectation_bounds,
    violation_trial,
    xu_raginsky,
    zhang_gen_expectation,
)
import genbounds.harness
from genbounds.harness import _draw, _draw_supersample, _summarize, _trial_counts, _trial_rng
from genbounds.problems import tabulate, tabulate_types
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

    def test_acceptance_value(self):
        assert clopper_pearson_upper(65, 10_000) == 0.00798471527353767


class TestSampleTable:
    def test_rows_follow_iter_samples_and_the_index_formula(self, rng):
        problem = random_problem(rng, 3, 3, n=3)
        algorithm = GibbsAlgorithm(beta_alg=1.0)
        samples, weights, risks, probs = tabulate(
            problem, lambda s: algorithm.posterior(problem, s)
        )
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


def table_report(table, problem, algorithm, prior=None):
    """The expectation-bound report computed from one sample table, whatever the rule."""
    _, weights, risks, probs = table(problem, lambda s: algorithm.posterior(problem, s))
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


class FirstOutcome:
    """A rule that reads the order of the sample: it trusts the first outcome most."""

    def posterior(self, problem, sample):
        weights = np.ones(problem.num_hypotheses)
        weights[int(sample[0]) % problem.num_hypotheses] += 4.0
        return DiscreteDist.from_weights(weights)


class TestTypeTable:
    """Exchangeable rules are checked on C(n + k - 1, k - 1) types instead of k^n sequences."""

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rows_are_the_types(self, n, k):
        problem = random_problem(np.random.default_rng([n, k, 1]), 3, k, n=n)
        algorithm = GibbsAlgorithm(beta_alg=2.0)
        samples, weights, risks, probs = tabulate_types(problem, lambda s: algorithm.posterior(problem, s))
        assert len(samples) == len(weights) == len(risks) == len(probs) == math.comb(n + k - 1, k - 1)
        assert abs(math.fsum(weights) - 1.0) <= 1e-12
        for row, sample in enumerate(samples):
            assert np.all(np.diff(sample) >= 0)
            assert np.array_equal(risks[row], empirical_risks(problem, sample))
            assert np.array_equal(probs[row], algorithm.posterior(problem, sample).probs)

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
        want = table_report(tabulate, problem, algorithm, prior)
        for field in ("mutual_information", "expected_gap", "prior_gap_bound", "golden_residual"):
            assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12, field
        # The bound is sqrt(I / 2n): rounding noise of 1e-16 in an information
        # that is truly 0 moves it by 1e-8, so compare the information it is made of.
        assert got.mi_gap_bound == xu_raginsky(got.mutual_information, n, 0.5)
        assert abs(got.mi_gap_bound**2 - want.mi_gap_bound**2) <= 1e-12

    def test_a_rule_that_reads_the_order_runs_on_sequences(self, rng):
        problem = random_problem(rng, 3, 2, n=4)
        report = verify_expectation_bounds(problem, FirstOutcome())
        assert report == table_report(tabulate, problem, FirstOutcome())
        # On types the rule would see only sorted samples, which changes the result.
        assert report != table_report(tabulate_types, problem, FirstOutcome())

    def test_verify_runs_where_the_sequences_exceed_the_budget(self, rng):
        problem = random_problem(rng, 3, 2, n=25)
        report = verify_expectation_bounds(problem, GibbsAlgorithm(beta_alg=1.0))
        assert report.mi_bound_holds and report.prior_bound_holds
        assert abs(report.golden_residual) <= 1e-10
        with pytest.raises(BudgetError, match="33554432 sequences"):
            enumerate_joint(problem, GibbsAlgorithm(beta_alg=1.0))
        with pytest.raises(BudgetError, match="33554432 sequences"):
            verify_expectation_bounds(problem, FirstOutcome())

    def test_budget_error_names_the_type_count(self, rng):
        problem = random_problem(rng, 3, 3, n=4)
        with pytest.raises(BudgetError, match="enumerating 15 types exceeds the budget of 10"):
            verify_expectation_bounds(problem, ErmAlgorithm(), budget=10)
        with pytest.raises(BudgetError, match="enumerating 15 types exceeds the budget of 10"):
            dp_mechanism_max_log_ratio(problem, 0.5, budget=10)

    def test_codes_beyond_int64(self, rng):
        # 64 outcomes at n = 1: the code of a count vector reaches 2^63.
        problem = random_problem(rng, 3, 64, n=1)
        _, _, risks, _ = tabulate(problem, lambda s: DiscreteDist.uniform(3))
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
            draw = SupersampleDraw(z_tilde=z_tilde, u=np.array(u))
            posterior = algorithm.posterior(problem, draw.training_sample)
            joint[zi, ui] = weight * posterior.probs
            gaps = empirical_risks(problem, draw.ghost_sample) - empirical_risks(
                problem, draw.training_sample
            )
            expected_gap += weight * float(posterior.probs @ gaps)
    return conditional_mutual_info(joint / joint.sum()), expected_gap


class TestTrialDraw:
    """The trials draw by inverse CDF, which must be ``Generator.choice`` to the bit."""

    @pytest.mark.parametrize(
        "weights", [[0.5, 0.5], np.random.default_rng(5).random(8) + 0.2], ids=["coin", "8-outcome"]
    )
    def test_draws_equal_generator_choice(self, weights):
        mu = DiscreteDist.from_weights(weights)
        k, n = len(mu), 50
        problem = FiniteProblem(losses=np.zeros((1, k)), mu=mu, n=n)
        for trial in range(300):
            ours, theirs = _trial_rng(1, trial), _trial_rng(1, trial)
            sample = _draw(ours, mu.probs, n)
            expected = theirs.choice(k, size=n, p=mu.probs)
            assert sample.dtype == expected.dtype and np.array_equal(sample, expected)
            assert ours.random() == theirs.random()

            ours, theirs = _trial_rng(2, trial), _trial_rng(2, trial)
            z_tilde, u = _draw_supersample(problem, ours)
            expected = theirs.choice(k, size=(n, 2), p=mu.probs)
            assert z_tilde.dtype == expected.dtype and np.array_equal(z_tilde, expected)
            assert np.array_equal(u, theirs.integers(0, 2, size=n))
            assert ours.random() == theirs.random()


def per_trial_counts(problem, seed, trial, supersample):
    """One trial's training (and ghost) counts, drawn from its own generator."""
    rng, k = _trial_rng(seed, trial), problem.num_outcomes
    if not supersample:
        return np.bincount(_draw(rng, problem.mu.probs, problem.n), minlength=k)[None]
    draw = SupersampleDraw(*_draw_supersample(problem, rng))
    return np.stack([np.bincount(draw.training_sample, minlength=k), np.bincount(draw.ghost_sample, minlength=k)])


def block_counts(problem, seed, trials, supersample):
    return np.concatenate(list(_trial_counts(problem, seed, trials, supersample)))


def count_problem(k, n):
    weights = [0.3, 0.7] if k == 2 else np.random.default_rng(5).random(k) + 0.2
    return FiniteProblem(losses=np.zeros((1, k)), mu=DiscreteDist.from_weights(weights), n=n)


#: Unsorted, with a duplicate, and on both sides of the two-word trial index 2^32.
BLOCK_TRIALS = np.array([2**32, *range(299, -1, -1), 2**32 - 1, 17], dtype=np.uint64)


class TestBlockDraw:
    """The block draw is ``default_rng([seed, trial])`` to the bit, on the installed numpy."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 20240817, 2**32 - 1, 2**32, 2**64 + 3])
    @pytest.mark.parametrize("k", [2, 8])
    @pytest.mark.parametrize("n", [7, 10])
    @pytest.mark.parametrize("supersample", [False, True], ids=["sample", "supersample"])
    def test_counts_equal_the_per_trial_draws(self, seed, k, n, supersample):
        problem = count_problem(k, n)
        expected = [per_trial_counts(problem, seed, t, supersample) for t in BLOCK_TRIALS.tolist()]
        assert np.array_equal(block_counts(problem, seed, BLOCK_TRIALS, supersample), expected)

    @pytest.mark.parametrize("n", [50, 51])
    @pytest.mark.parametrize("supersample", [False, True], ids=["sample", "supersample"])
    def test_a_run_longer_than_one_block(self, n, supersample):
        problem = count_problem(8, n)
        assert len(list(_trial_counts(problem, 3, BLOCK_TRIALS, supersample))) > 1
        expected = [per_trial_counts(problem, 3, t, supersample) for t in BLOCK_TRIALS.tolist()]
        assert np.array_equal(block_counts(problem, 3, BLOCK_TRIALS, supersample), expected)

    def test_block_boundaries_of_the_seeding_and_the_draws(self, monkeypatch):
        # 100 words: the trials are seeded 100 at a time and drawn 14 or 5 at a time.
        monkeypatch.setattr(genbounds.harness, "_BLOCK_WORDS", 100)
        problem = count_problem(2, 7)
        for supersample in (False, True):
            expected = [per_trial_counts(problem, 11, t, supersample) for t in BLOCK_TRIALS.tolist()]
            assert np.array_equal(block_counts(problem, 11, BLOCK_TRIALS, supersample), expected)

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


class TestCmiExperiment:
    def test_supersample_split(self, rng):
        problem = random_problem(rng, 2, 2, n=6)
        draw = draw_supersample(problem, np.random.default_rng(3))
        both = np.sort(np.stack([draw.training_sample, draw.ghost_sample], axis=1), axis=1)
        assert np.array_equal(both, np.sort(draw.z_tilde, axis=1))

    def test_trials_follow_the_validated_draw(self):
        problem = soft_problem(n=9)
        config = make_config(problem, "cmi", trials=60, beta=0.3, algorithm=ErmAlgorithm("uniform"))
        for trial in range(config.trials):
            draw = draw_supersample(problem, np.random.default_rng([config.seed, trial]))
            posterior = config.algorithm.posterior(problem, draw.training_sample)
            risks = empirical_risks(problem, draw.training_sample)
            gap = float(posterior.probs @ (empirical_risks(problem, draw.ghost_sample) - risks))
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


def reference_audit(problem, epsilon):
    """The privacy audit by recomputing the mechanism on every neighbour."""
    worst = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for sample, _ in iter_samples(problem):
            prior = dp_prior_mechanism(problem, sample, epsilon).probs
            for i in range(problem.n):
                for z in range(problem.num_outcomes):
                    if z == sample[i]:
                        continue
                    neighbor = sample.copy()
                    neighbor[i] = z
                    other = dp_prior_mechanism(problem, neighbor, epsilon).probs
                    ratios = np.abs(np.log(prior) - np.log(other))
                    worst = max(worst, float(np.nanmax(ratios)))
    return worst


class TestDpPriorExperiment:
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
        # Priors (1, 0, 0) on [0, 0] and (.5, .5, 0) on [0, 1]: hypothesis 1
        # has an infinite ratio, hypothesis 2 probability 0 under both.
        problem = FiniteProblem(
            losses=[[0, 1], [1, 0], [1, 1]], mu=DiscreteDist([0.5, 0.5]), n=2
        )
        assert dp_mechanism_max_log_ratio(problem, 3000.0) == math.inf
        assert reference_audit(problem, 3000.0) == math.inf

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
    """Trials of one training type share an evaluation; reports must not notice."""

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
            singles = [one_trial(config, t, *params) for t in range(config.trials)]
            assert run(config, *params) == _summarize(singles), bound

    def test_bound_is_evaluated_once_per_training_type(self, monkeypatch):
        calls = []
        original = genbounds.bounds.zhang_high_prob

        def counted(request):
            calls.append(request)
            return original(request)

        monkeypatch.setattr(genbounds.bounds, "zhang_high_prob", counted)
        config = make_config(standard_problem(), "zhang", trials=2000)
        run_violation_experiment(config)
        types = {
            int(np.random.default_rng([config.seed, t]).choice(2, size=50, p=[0.5, 0.5]).sum())
            for t in range(config.trials)
        }
        assert len(calls) == len(types) < 51

    @pytest.mark.parametrize("bound", ["zhang", "dp-prior"])
    def test_annealed_truth_without_beta_raises_the_bounds_error(self, bound):
        config = make_config(standard_problem(), bound, trials=10, beta=None)
        with pytest.raises(ParameterError):
            if bound == "zhang":
                run_violation_experiment(config)
            else:
                run_dp_prior_experiment(config, 0.2)


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
