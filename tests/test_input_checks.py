"""The input checks on the per-call path: which inputs they refuse, with what, and the bits they pass.

Each refused input raises exactly the exception class and message listed
here.  The Gibbs posterior is pinned bit for bit to its reference formula,
np.where(q > 0, log(max(q, 1e-300)), -inf) - beta f, shifted by its maximum
and normalized.
"""

import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbounds import DiscreteDist, FiniteProblem, LossModel, PsiFunction
from genbounds.bounds import (
    BoundRequest,
    BoundResult,
    cmi_expectation,
    cmi_pac_high_prob,
    dp_prior_penalty,
    fano_identification_lb,
    subgamma_mi,
    subgamma_pacbayes,
    union_bound_beta,
    xu_raginsky,
    zhang_gen_expectation,
)
from genbounds.divergences import (
    _SHORT_ROW,
    PROB_MASS_ATOL,
    GaussianKLInputs,
    JointTable,
    _check_rows,
    conditional_kl,
    conditional_mutual_info,
    kl_binary_inverse_upper,
    kl_gaussian_diag,
    max_info_dp_bound,
    max_info_exact,
)
from genbounds.errors import ConfigurationError, DegenerateError, DomainError, ParameterError, ShapeError
from genbounds.harness import (
    BoundSpec,
    ErmAlgorithm,
    GibbsAlgorithm,
    TrialConfig,
    certify,
    cmi_exact_quantities,
    clopper_pearson_upper,
    dp_mechanism_max_log_ratio,
    dp_prior_mechanism,
    enumerate_joint,
    union_beta_grid,
    verify_expectation_bounds,
)
from genbounds.losses import phi_beta, phi_beta_inverse, psi_of, psi_star_inverse, psi_star_inverse_numeric
from genbounds.posteriors import (
    PacBayesSgdParams,
    QuadraticModel,
    _as_values,
    _gibbs_rows,
    _uniform_probs,
    dv_identity_residual,
    expected_quadratic_loss,
    gaussian_icm_objective,
    gibbs_posterior,
    iei_empirical_check,
    iei_exact,
    information_complexity,
    local_entropy,
    local_entropy_mc,
    oic,
    stochastic_complexity,
)
from genbounds.problems import _count_risks, annealed_risks, empirical_risks
from genbounds.registry import BOUNDS

NAN, INF = float("nan"), float("inf")
NOT_PROBABILITIES = "probabilities must be finite and nonnegative"

#: (name, a 1-D table, the message it is refused with)
BAD_TABLES = [
    ("nan", [NAN, 1.0], NOT_PROBABILITIES),
    ("+inf", [INF, 0.0], NOT_PROBABILITIES),
    ("-inf", [-INF, 1.0], NOT_PROBABILITIES),
    ("negative", [-0.25, 1.25], NOT_PROBABILITIES),
    ("sum overflows", [1e308, 1e308], "probabilities sum to inf, not 1"),
    ("mass off", [0.5, 0.625], "probabilities sum to 1.125, not 1"),
]


def _table(ndim, entries):
    """``entries`` as the first row (or sheet) of a valid ``ndim``-D table whose other cells hold zeros."""
    table = np.zeros((2,) * (ndim - 1) + (len(entries),))
    table[(0,) * (ndim - 1)] = entries
    return table


def _raises_exactly(cls, message, call, *args):
    with pytest.raises(cls, match=f"^{re.escape(message)}$") as info:
        call(*args)
    assert type(info.value) is cls


@pytest.mark.parametrize("name, entries, message", BAD_TABLES, ids=[case[0] for case in BAD_TABLES])
@pytest.mark.parametrize(
    "build, ndim",
    [(DiscreteDist, 1), (JointTable, 2), (conditional_mutual_info, 3)],
    ids=["DiscreteDist", "JointTable", "conditional_mutual_info"],
)
def test_probability_tables_refuse_with_the_same_error(build, ndim, name, entries, message):
    _raises_exactly(DomainError, message, build, _table(ndim, entries))


@pytest.mark.parametrize("build, ndim", [(DiscreteDist, 1), (JointTable, 2)])
def test_a_valid_table_is_kept_bit_for_bit(build, ndim):
    table = _table(ndim, [0.25, 0.0, 5e-324, 0.75 - 5e-324])
    assert build(table).probs.tobytes() == table.tobytes()


def _outcome(call, *args):
    """None if the call returns, else the class and message of the ValueError it raises."""
    try:
        call(*args)
    except ValueError as error:  # DomainError and ShapeError are ValueErrors
        return type(error), str(error)
    return None


#: Entries that a short row's Python read must treat as numpy does.
SPECIAL = st.sampled_from([NAN, INF, -INF, -0.0, 0.0, -0.25, -1e-300, 5e-324, 1e-310, 1e308, -1e308, 1.0, 2.0])


@st.composite
def short_rows(draw):
    """1-D rows of 1 to the short-row cap + 8 entries: normalized, with special entries, or near the mass bound."""
    size = draw(st.integers(1, _SHORT_ROW + 8))
    weights = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))
    row = weights / weights.sum() if weights.sum() > 0 else np.full(size, 1.0 / size)
    kind = draw(st.sampled_from(["normalized", "special", "near the bound", "[±1e308, ±1e308]"]))
    if kind == "special":
        for index in draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3)):
            row[index] = draw(SPECIAL)
    elif kind == "near the bound":
        # Move the last entry so that the total lands a few ulps from 1 - 1e-12 or 1 + 1e-12.
        target = 1.0 + draw(st.sampled_from([-1.0, 1.0])) * PROB_MASS_ATOL + draw(st.integers(-4, 4)) * 2.0**-52
        row[-1] = max(row[-1] + (target - row.sum()), 0.0)
    elif kind == "[±1e308, ±1e308]":
        row = np.full(size + 1, draw(st.sampled_from([1e308, -1e308])))
    return row


@settings(max_examples=500, deadline=None, derandomize=True)
@given(row=short_rows())
def test_a_short_row_is_judged_as_a_row_of_a_block(row):
    # A one-row block takes the numpy check whatever its length, so it is the reference for the short-row read.
    want = _outcome(_check_rows, row[None])
    assert _outcome(_check_rows, row) == want
    assert _outcome(DiscreteDist, row) == want
    if want is None:
        assert DiscreteDist(row).probs.tobytes() == row.tobytes()
    # As f values, a row is refused for a NaN or -inf entry only; [-1e308, -1e308], whose total is -inf, passes.
    refuses = not np.min(row) > -INF
    want_values = (DomainError, "f_values must be > -inf and not NaN (+inf allowed)") if refuses else None
    assert _outcome(_as_values, DiscreteDist.uniform(row.size), row) == want_values


#: Row lengths on both sides of the short-row cap, and of numpy's 8-way summation.
ROW_LENGTHS = [1, 2, 3, 7, 8, 9, _SHORT_ROW - 1, _SHORT_ROW, _SHORT_ROW + 1, 2 * _SHORT_ROW + 3]


@pytest.mark.parametrize("h", ROW_LENGTHS)
def test_one_row_primitives_equal_their_block_rows_bit_for_bit(h):
    rng = np.random.default_rng([29, h])
    q = DiscreteDist.from_weights(rng.random(h) + 0.05)
    assert DiscreteDist(q.probs).probs.tobytes() == q.probs.tobytes()
    for n in (10, _SHORT_ROW, _SHORT_ROW + 1, 200):
        problem = FiniteProblem(losses=rng.random((h, 3)), mu=DiscreteDist.uniform(3), n=n)
        samples = rng.integers(0, 3, size=(5, n))
        counts = np.array([np.bincount(sample, minlength=3) for sample in samples])
        risks = _count_risks(problem, counts)
        rule = GibbsAlgorithm(0.7)
        rows = rule._posterior_rows(risks, _uniform_probs(h), n)
        for beta in (0.0, 0.3, 40.0):
            gibbs = _gibbs_rows(q.probs, risks, beta)
            for i, sample in enumerate(samples):
                assert gibbs_posterior(q, risks[i], beta).probs.tobytes() == gibbs[i].tobytes()
        for i, sample in enumerate(samples):
            assert empirical_risks(problem, sample).tobytes() == risks[i].tobytes()
            assert empirical_risks(problem, sample.tolist()).tobytes() == risks[i].tobytes()
            assert rule.posterior(problem, sample).probs.tobytes() == rows[i].tobytes()


def test_a_distribution_holds_a_read_only_copy_of_its_probabilities():
    table = np.array([0.25, 0.0, 0.75])
    dist = DiscreteDist(table)
    with pytest.raises(ValueError, match="read-only"):
        dist.probs[0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        dist.probs = table
    with pytest.raises(ValueError, match="read-only"):
        dist._log_probs[0] = 0.0
    assert table.flags.writeable and table.tolist() == [0.25, 0.0, 0.75]
    table[0] = 0.5
    assert dist.probs.tolist() == [0.25, 0.0, 0.75]
    for twin in (pickle.loads(pickle.dumps(dist)), copy.copy(dist), copy.deepcopy(dist)):
        assert not twin.probs.flags.writeable and twin.probs.tolist() == [0.25, 0.0, 0.75]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "build, weights, probs",
    [
        (DiscreteDist.from_weights, [1e308, 1e308], [0.5, 0.5]),
        (DiscreteDist.from_weights, [1e308, 1e308, 0.0, 1e308, 1e308], [0.25, 0.25, 0.0, 0.25, 0.25]),
        (JointTable.from_weights, [[1e308, 1e308], [1e308, 1e308]], [[0.25, 0.25], [0.25, 0.25]]),
    ],
    ids=["two", "four and a zero", "joint"],
)
def test_finite_weights_whose_total_overflows_are_normalized(build, weights, probs):
    assert build(weights).probs.tolist() == probs


@pytest.mark.parametrize("build", [DiscreteDist.from_weights, JointTable.from_weights])
@pytest.mark.parametrize(
    "weights, message",
    [
        ([INF, 1.0], "weights must be finite"),
        ([1e308, 1e308, INF], "weights must be finite"),
        ([NAN, 1.0], "weights must have positive total mass"),
        ([0.0, 0.0], "weights must have positive total mass"),
    ],
    ids=["inf", "inf beside an overflow", "nan", "zeros"],
)
def test_weights_are_refused_with_the_same_error(build, weights, message):
    if build is JointTable.from_weights:
        weights = [weights]
    _raises_exactly(DomainError, message, build, weights)


def test_weights_with_a_finite_total_are_divided_by_it_bit_for_bit():
    rng = np.random.default_rng(18)
    for scale in (1e-300, 1.0, 1e300):
        for size in (1, 2, 5, 17):
            weights = rng.random(size) * scale + 1e-3 * scale
            assert DiscreteDist.from_weights(weights).probs.tobytes() == (weights / weights.sum()).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "entries, message",
    [([1e308, 1e308], "probabilities sum to inf, not 1"), ([2.0, 0.0], "probabilities sum to 2.0, not 1")],
    ids=["sum overflows", "entry above 1"],
)
@pytest.mark.parametrize(
    "build, ndim",
    [(DiscreteDist, 1), (JointTable, 2), (conditional_mutual_info, 3)],
    ids=["DiscreteDist", "JointTable", "conditional_mutual_info"],
)
def test_a_mass_above_1_is_refused_without_a_warning(build, ndim, entries, message):
    _raises_exactly(DomainError, message, build, _table(ndim, entries))


UNIFORM = DiscreteDist.uniform(3)
BAD_F_VALUES = "f_values must be > -inf and not NaN (+inf allowed)"


@pytest.mark.parametrize(
    "f, cls, message",
    [
        ([NAN, 0.0, 0.0], DomainError, BAD_F_VALUES),
        ([0.0, -INF, 0.0], DomainError, BAD_F_VALUES),
        ([INF, INF, INF], DegenerateError, "all prior mass sits on infinite f values"),
    ],
    ids=["nan", "-inf", "all +inf"],
)
def test_gibbs_posterior_refuses_f_values_with_the_same_error(f, cls, message):
    _raises_exactly(cls, message, gibbs_posterior, UNIFORM, f, 2.0)


def test_gibbs_posterior_takes_inf_where_the_prior_is_zero():
    q = DiscreteDist([0.0, 0.5, 0.5])
    _raises_exactly(DegenerateError, "all prior mass sits on infinite f values", gibbs_posterior, q, [0.0, INF, INF], 1.0)
    assert gibbs_posterior(q, [INF, INF, 0.0], 1.0).probs.tolist() == [0.0, 0.0, 1.0]


COIN = FiniteProblem(losses=[[0, 1], [1, 0]], mu=DiscreteDist([0.5, 0.5]), n=2)
OUT_OF_RANGE = "sample contains out-of-range outcome indices"
NOT_INDICES = "sample entries must be integer outcome indices"


@pytest.mark.parametrize(
    "sample, message",
    [
        ([0, 2], OUT_OF_RANGE),
        (np.array([-1, 1]), OUT_OF_RANGE),
        (np.array([1, 2], dtype=np.uint8), OUT_OF_RANGE),
        (np.array([0.0, 2.0]), OUT_OF_RANGE),
        ([0, 10**12], OUT_OF_RANGE),
        (np.array([0, np.iinfo(np.int64).max]), OUT_OF_RANGE),
        (np.array([0, 2**64 - 1], dtype=np.uint64), OUT_OF_RANGE),
        (np.array([0.0, 1e20]), OUT_OF_RANGE),
        (np.array([-1e20, 0.0]), OUT_OF_RANGE),
        ([True, False], NOT_INDICES),
        ([1, True], NOT_INDICES),
        ([0.5, 1], NOT_INDICES),
        (np.array([0.0, NAN]), NOT_INDICES),
        (np.array([0.0, INF]), NOT_INDICES),
        (np.array([-INF, 1.0]), NOT_INDICES),
    ],
    ids=["list past k", "negative", "uint8 past k", "integral floats past k", "10**12", "int64 max",
         "uint64 max", "1e20", "-1e20", "bools", "int and bool",
         "fraction", "nan", "+inf", "-inf"],
)
def test_empirical_risks_refuses_samples_with_the_same_error(sample, message):
    _raises_exactly(DomainError, message, empirical_risks, COIN, sample)


@pytest.mark.parametrize(
    "sample, risks",
    [([0, 1], [0.5, 0.5]), (np.array([1, 1], dtype=np.uint8), [1.0, 0.0]), (np.array([1.0, 0.0]), [0.5, 0.5])],
)
def test_empirical_risks_takes_integer_indices_of_any_dtype(sample, risks):
    assert empirical_risks(COIN, sample).tolist() == risks


def _reference_gibbs(q: np.ndarray, f: np.ndarray, beta: float) -> np.ndarray | None:
    """The Gibbs posterior's probabilities by the reference formula; None when all mass sits on f = inf."""
    with np.errstate(divide="ignore"):
        log_q = np.where(q > 0, np.log(np.maximum(q, 1e-300)), -np.inf)
    logits = log_q - beta * f
    peak = np.max(logits)
    if np.isneginf(peak):
        return None
    weights = np.exp(logits - peak)
    return weights / weights.sum()


#: Prior entries: zeros, subnormals and a normal entry under the 1e-300 floor.
TINY = st.sampled_from([0.0, 5e-324, 1e-310, 2.2e-308, 1e-305])


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    size=st.integers(1, 6),
    beta=st.floats(1e-3, 1e3),
    calls=st.integers(1, 4),
)
def test_gibbs_posterior_matches_the_reference_formula_bit_for_bit(data, size, beta, calls):
    weights = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size)))
    q = weights / weights.sum()
    tiny = data.draw(st.lists(st.one_of(st.none(), TINY), min_size=size, max_size=size))
    q = np.array([x if t is None else t for x, t in zip(q, tiny)])
    if abs(q.sum() - 1.0) > 1e-12:  # a replaced entry carried mass; give it to the first
        q[0] += 1.0 - q.sum()
    prior = DiscreteDist(q)  # one prior, and so one cached log, for every call
    for _ in range(calls):
        f = np.array(data.draw(st.lists(st.one_of(st.floats(-50.0, 50.0), st.just(INF)), min_size=size,
                                        max_size=size)))
        if data.draw(st.booleans()):
            f[q == 0] = INF  # f = inf exactly where the prior has no mass
        want = _reference_gibbs(prior.probs, f, beta)
        if want is None:
            with pytest.raises(DegenerateError):
                gibbs_posterior(prior, f, beta)
        else:
            assert gibbs_posterior(prior, f, beta).probs.tobytes() == want.tobytes()


_SGD = dict(n=50, beta=2.0, lam=0.1, alpha=2.0, b=10, c=0.5, m=200, delta=0.05, delta_prime=0.05,
            mc_empirical_risk=0.1, kl=2.0)
_ONE = [1.0]
_POINT = DiscreteDist([1.0])
_MODEL = QuadraticModel(_ONE, _ONE, _ONE, lam=1.0, n=3, beta=1.0)
UNIFORM_2 = DiscreteDist.uniform(2)


def _coin_rule(sample):
    return UNIFORM_2


#: (site, a call taking the integer under test, the error class, its message)
INTEGER_SITES = [
    ("BoundRequest", lambda k: BoundRequest(n=k, delta=0.5), ParameterError, "n must be a positive integer"),
    ("DiscreteDist.uniform", DiscreteDist.uniform, DomainError, "size must be a positive integer"),
    ("xu_raginsky", lambda k: xu_raginsky(1.0, k, 0.5), DomainError, "n must be a positive integer"),
    ("cmi_expectation", lambda k: cmi_expectation(1.0, k), DomainError, "n must be a positive integer"),
    ("fano_identification_lb", lambda k: fano_identification_lb(1.0, k), DomainError,
     "n must be a positive integer"),
    ("dp_prior_penalty", lambda k: dp_prior_penalty(k, 0.1, 0.1), DomainError, "n must be a positive integer"),
    ("zhang_gen_expectation", lambda k: zhang_gen_expectation(1.0, k, LossModel.bounded_unit()), DomainError,
     "n must be a positive integer"),
    ("max_info_dp_bound", lambda k: max_info_dp_bound(0.1, k), DomainError, "n must be a positive integer"),
    ("QuadraticModel.n", lambda k: QuadraticModel(_ONE, _ONE, _ONE, lam=1.0, n=k, beta=1.0), DomainError,
     "n must be a positive integer"),
    *[
        (f"PacBayesSgdParams.{key}", lambda k, key=key: PacBayesSgdParams(**{**_SGD, key: k}), ParameterError,
         f"{key} must be a positive integer")
        for key in ("n", "b", "m")
    ],
    ("union_beta_grid", lambda k: union_beta_grid(k, 2.0, 4.0, 0.5), DomainError, "n must be a positive integer"),
    ("clopper_pearson_upper.trials", lambda k: clopper_pearson_upper(0, k), DomainError,
     "trials must be a positive integer"),
    ("clopper_pearson_upper.violations", lambda k: clopper_pearson_upper(k, 10), DomainError,
     "violations must be an integer in [0, trials]"),
    ("iei_empirical_check", lambda k: iei_empirical_check(COIN, _coin_rule, UNIFORM_2, 1.0, k, seed=0),
     DomainError, "trials must be a positive integer"),
    ("local_entropy_mc", lambda k: local_entropy_mc(_MODEL, 1.0, k, seed=0), DomainError,
     "draws must be an integer of at least 2 for a standard error"),
]


@pytest.mark.parametrize("value", [2.5, True, math.nan], ids=["2.5", "True", "nan"])
@pytest.mark.parametrize("call, cls, message", [case[1:] for case in INTEGER_SITES],
                         ids=[case[0] for case in INTEGER_SITES])
def test_every_integer_count_refuses_a_non_integer_with_its_own_error(call, cls, message, value):
    _raises_exactly(cls, message, call, value)
    call(np.int64(3))


#: (site, a call taking the scalar under test, its message): each refuses NaN with a DomainError.
NAN_SITES = [
    ("annealed_risks", lambda x: annealed_risks(COIN, x), "beta must be positive"),
    ("stochastic_complexity", lambda x: stochastic_complexity(_POINT, [0.5], x), "beta must be positive"),
    ("information_complexity", lambda x: information_complexity(_POINT, _POINT, [0.5], x), "beta must be positive"),
    ("oic", lambda x: oic(UNIFORM_2, COIN, [0, 1], x), "beta must be positive"),
    ("dv_identity_residual", lambda x: dv_identity_residual(_POINT, _POINT, [0.5], x), "beta must be positive"),
    ("iei_exact", lambda x: iei_exact(COIN, _coin_rule, UNIFORM_2, x), "beta must be positive"),
    ("iei_empirical_check", lambda x: iei_empirical_check(COIN, _coin_rule, UNIFORM_2, x, 10, seed=0),
     "beta must be positive"),
    ("phi_beta", lambda x: phi_beta(x, 0.5), "beta must be positive"),
    ("phi_beta_inverse", lambda x: phi_beta_inverse(x, 0.5), "beta must be positive"),
    ("phi_beta_inverse.x", lambda x: phi_beta_inverse(1.0, x), "x must be nonnegative"),
    ("psi_of", lambda x: psi_of(LossModel.bounded_unit(), x), "beta must be nonnegative"),
    ("psi_star_inverse", lambda x: psi_star_inverse(LossModel.bounded_unit(), x), "y must be nonnegative"),
    ("psi_star_inverse_numeric",
     lambda x: psi_star_inverse_numeric(PsiFunction.from_loss_model(LossModel.bounded_unit()), x),
     "y must be nonnegative"),
    ("local_entropy", lambda x: local_entropy(_MODEL, x), "gamma must be positive"),
    ("local_entropy_mc", lambda x: local_entropy_mc(_MODEL, x, 10, seed=0), "gamma must be positive"),
    ("local_entropy.w", lambda x: local_entropy(_MODEL, 1.0, [x]), "w must be finite"),
    ("local_entropy_mc.w", lambda x: local_entropy_mc(_MODEL, 1.0, 10, seed=0, w=[x]), "w must be finite"),
    ("expected_quadratic_loss", lambda x: expected_quadratic_loss(_MODEL, [x]),
     "covariance eigenvalues must be nonnegative"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in NAN_SITES], ids=[case[0] for case in NAN_SITES])
def test_every_nan_parameter_is_refused(call, message):
    _raises_exactly(DomainError, message, call, NAN)
    call(0.5)


def _trial_config(problem, bound, prior=None):
    return TrialConfig(seed=0, trials=10, problem=problem, algorithm=GibbsAlgorithm(1.0),
                       bound=BoundSpec(bound, {"beta": 1.0}), delta=0.05, prior=prior)


_JOINT = JointTable(np.full((2, 2), 0.25))
_UNION_REQUEST = BoundRequest(n=50, delta=0.05, kl=0.5, model=LossModel.sub_gaussian(1.0))

#: (site, a call taking the value under test, the value, the error class, its message)
OUT_OF_RANGE = [
    ("phi_beta_inverse-negative", lambda x: phi_beta_inverse(1.0, x), -5.0, DomainError, "x must be nonnegative"),
    ("phi_beta_inverse--inf", lambda x: phi_beta_inverse(1.0, x), -INF, DomainError, "x must be nonnegative"),
    ("local_entropy-+inf", lambda x: local_entropy(_MODEL, 1.0, [x]), INF, DomainError, "w must be finite"),
    ("local_entropy--inf", lambda x: local_entropy(_MODEL, 1.0, [x]), -INF, DomainError, "w must be finite"),
    ("local_entropy_mc-+inf", lambda x: local_entropy_mc(_MODEL, 1.0, 10, seed=0, w=[x]), INF, DomainError,
     "w must be finite"),
    ("ErmAlgorithm-tie_break", lambda x: ErmAlgorithm(tie_break=x), "first", ConfigurationError,
     "tie_break must be 'lowest' or 'uniform'"),
    ("GibbsAlgorithm-0", GibbsAlgorithm, 0.0, ConfigurationError, "beta_alg must be positive"),
    ("TrialConfig-prior-length", lambda x: _trial_config(COIN, "zhang", DiscreteDist.uniform(x)), 3,
     ConfigurationError, "prior must match the hypothesis count"),
    ("union_beta_grid-alpha", lambda x: union_beta_grid(10, x, 4.0, 0.5), 1.0, DomainError,
     "need alpha > 1, v > 0, sigma > 0"),
    ("LossModel-c", lambda x: LossModel("sub_gaussian", c=x), 0.5, DomainError,
     "only sub-gamma models carry a tail parameter c"),
    ("PsiFunction-beta_sup", lambda x: PsiFunction(lambda b: b * b, beta_sup=x), 0.0, DomainError,
     "beta_sup must be positive"),
    ("subgamma_pacbayes-model",
     lambda x: subgamma_pacbayes(BoundRequest(n=10, delta=0.1, kl=0.5, model=LossModel.sub_gaussian(x))), 1.0,
     ParameterError, "requires a sub-gamma loss model"),
    ("union_bound_beta-model",
     lambda x: union_bound_beta(BoundRequest(n=10, delta=0.1, kl=0.5, model=LossModel.sub_gamma(x, 0.5)), 2.0, 4.0),
     1.0, ParameterError, "requires a sub-Gaussian (or [0, 1]-valued) loss model"),
    ("cmi_pac_high_prob-model",
     lambda x: cmi_pac_high_prob(BoundRequest(n=10, delta=0.1, kl=0.5, beta=1.0, model=LossModel.sub_gaussian(x))),
     1.0, ParameterError, "the supersample bound applies only to [0, 1]-valued losses"),
    ("dp_prior_penalty-delta", lambda x: dp_prior_penalty(10, x, 0.1), 1.5, DomainError, "delta must lie in (0, 1]"),
    ("kl_binary_inverse_upper-y", lambda x: kl_binary_inverse_upper(x, 0.1), 1.5, DomainError,
     "y must lie in [0, 1]"),
    ("kl_gaussian_diag-shapes", lambda x: kl_gaussian_diag(np.zeros(x), _ONE, [0.0], _ONE), 2, ShapeError,
     "mean and variance vectors must share one shape"),
    ("conditional_kl-q-length", lambda x: conditional_kl(_JOINT, DiscreteDist.uniform(x)), 3, ShapeError,
     "q must match the hypothesis axis of the joint"),
    ("max_info_exact-alpha", lambda x: max_info_exact(_JOINT, x), 1.0, DomainError, "alpha must lie in [0, 1)"),
    ("QuadraticModel-empty", lambda x: QuadraticModel(np.ones(x), np.ones(x), np.ones(x), lam=1.0, n=3, beta=1.0),
     0, ShapeError, "hessian_eigenvalues must be a nonempty 1-D vector"),
    ("QuadraticModel-w_p-length", lambda x: QuadraticModel(_ONE, np.ones(x), _ONE, lam=1.0, n=3, beta=1.0), 2,
     ShapeError, "w_p and w_q must match the eigenvalue vector length"),
    ("QuadraticModel-beta-inf", lambda x: QuadraticModel(_ONE, _ONE, _ONE, lam=1.0, n=3, beta=x), INF, DomainError,
     "lam and beta must be finite"),
    ("QuadraticModel-lam-inf", lambda x: QuadraticModel(_ONE, _ONE, _ONE, lam=x, n=3, beta=1.0), INF, DomainError,
     "lam and beta must be finite"),
    ("expected_quadratic_loss-length", lambda x: expected_quadratic_loss(_MODEL, np.ones(x)), 2, ShapeError,
     "covariance spectrum must match the Hessian spectrum"),
    ("local_entropy-length", lambda x: local_entropy(_MODEL, 1.0, np.ones(x)), 2, ShapeError,
     "w must match the model dimension"),
    ("gaussian_icm_objective-cov", lambda x: gaussian_icm_objective(_MODEL, [x]), 0.0, DomainError,
     "covariance eigenvalues must be positive"),
    ("FiniteProblem-1-D-losses", lambda x: FiniteProblem(losses=[x, 1.0], mu=DiscreteDist.uniform(2), n=1), 0.0,
     ShapeError, "losses must be a nonempty (hypotheses x outcomes) matrix"),
    ("FiniteProblem-mu-length", lambda x: FiniteProblem(losses=[[0.0, 1.0]], mu=DiscreteDist.uniform(x), n=1), 3,
     ShapeError, "mu must have one entry per outcome column"),
    ("empirical_risks-empty", lambda x: empirical_risks(COIN, x), [], DomainError,
     "a sample must be a nonempty 1-D list of outcome indices"),
    ("certify-pac-bayes-kl-losses",
     lambda x: certify(_trial_config(FiniteProblem(losses=[[0.0, x], [x, 0.0]], mu=COIN.mu, n=10), "pac-bayes-kl")),
     2.0, ConfigurationError, "bound 'pac-bayes-kl' requires losses in [0, 1]"),
    ("cmi-expectation-field", lambda x: BOUNDS["cmi-expectation"].evaluate({"n": x}), 10, ConfigurationError,
     "cmi-expectation needs a cmi or avg_kl field"),
    *[
        (f"{name}-posterior-length", lambda x, check=check: check(lambda sample: DiscreteDist.uniform(x)), 3,
         ShapeError, "a rule's posteriors must have one entry per hypothesis")
        for name, check in [
            ("enumerate_joint", lambda rule: enumerate_joint(COIN, rule)),
            ("verify_expectation_bounds", lambda rule: verify_expectation_bounds(COIN, rule)),
            ("cmi_exact_quantities", lambda rule: cmi_exact_quantities(COIN, rule)),
            ("iei_exact", lambda rule: iei_exact(COIN, rule, UNIFORM_2, 1.0)),
            ("iei_empirical_check", lambda rule: iei_empirical_check(COIN, rule, UNIFORM_2, 1.0, 10, seed=0)),
        ]
    ],
    ("iei_exact-q-length", lambda x: iei_exact(COIN, _coin_rule, DiscreteDist.uniform(x), 1.0), 3, ShapeError,
     "q must have one entry per hypothesis"),
    ("iei_empirical_check-q-length",
     lambda x: iei_empirical_check(COIN, _coin_rule, DiscreteDist.uniform(x), 1.0, 10, seed=0), 3, ShapeError,
     "q must have one entry per hypothesis"),
    ("union_bound_beta-v-inf", lambda x: union_bound_beta(_UNION_REQUEST, 2.0, x), INF, ParameterError,
     "alpha and v must be finite"),
    ("union_bound_beta-alpha-inf", lambda x: union_bound_beta(_UNION_REQUEST, x, 2.0), INF, ParameterError,
     "alpha and v must be finite"),
    *[
        (f"union_beta_grid-{name}-inf", call, INF, DomainError, "alpha, v and sigma must be finite")
        for name, call in [
            ("alpha", lambda x: union_beta_grid(10, x, 4.0, 0.5)),
            ("v", lambda x: union_beta_grid(10, 2.0, x, 1.0)),
            ("sigma", lambda x: union_beta_grid(10, 2.0, 1.0, x)),
        ]
    ],
    # Finite inputs whose grid cannot be built: about 10^15 points, a start that underflows, a span v / u that
    # overflows.  Each used to fail inside the arithmetic (MemoryError, ZeroDivisionError, OverflowError).
    ("union_beta_grid-alpha-near-1", lambda x: union_beta_grid(10, x, 4.0, 0.5), 1 + 1e-15, DomainError,
     "the grid would hold more than 10000000 points: alpha is too close to 1"),
    ("union_beta_grid-v-subnormal", lambda x: union_beta_grid(10, 2.0, x, 0.5), 5e-324, DomainError,
     "the grid's start min(sqrt(2 alpha) / sigma, v) / sqrt(n) underflows the normal floats"),
    ("union_beta_grid-v-sigma-1e308", lambda x: union_beta_grid(10, 2.0, x, x), 1e308, DomainError,
     "the grid's start min(sqrt(2 alpha) / sigma, v) / sqrt(n) underflows the normal floats"),
    ("union_beta_grid-span", lambda x: union_beta_grid(1, 2.0, x, x), 1e300, DomainError,
     "the grid spans log v - log u > 709, where the powers of alpha overflow"),
    ("gibbs_posterior-beta-inf", lambda x: gibbs_posterior(UNIFORM_2, [0.0, 1.0], x), INF, DomainError,
     "beta must be finite"),
    ("stochastic_complexity-beta-inf", lambda x: stochastic_complexity(UNIFORM_2, [0.0, 1.0], x), INF, DomainError,
     "beta must be finite"),
    # Each of these returned NaN, inf or a warning, or failed inside math, for an infinite scale.
    ("information_complexity-beta-inf",
     lambda x: information_complexity(DiscreteDist([0.0, 1.0]), DiscreteDist([1.0, 0.0]), [0.0, 1.0], x), INF,
     DomainError, "beta must be finite"),
    ("phi_beta-beta-inf", lambda x: phi_beta(x, 0.5), INF, DomainError, "beta must be finite"),
    ("local_entropy-gamma-inf", lambda x: local_entropy(_MODEL, x), INF, DomainError, "gamma must be finite"),
    ("local_entropy_mc-gamma-inf", lambda x: local_entropy_mc(_MODEL, x, 10, seed=0), INF, DomainError,
     "gamma must be finite"),
    ("xu_raginsky-sigma-inf", lambda x: xu_raginsky(1.0, 5, x), INF, DomainError,
     "sigma must be a positive finite real"),
    ("subgamma_mi-sigma-inf", lambda x: subgamma_mi(1.0, 5, x, 0.5), INF, DomainError,
     "sigma must be a positive finite real"),
    ("subgamma_mi-c-inf", lambda x: subgamma_mi(0.0, 5, 1.0, x), INF, DomainError,
     "c must be a nonnegative finite real"),
    ("GibbsAlgorithm-inf", GibbsAlgorithm, INF, ConfigurationError, "beta_alg must be finite"),
    ("oic-beta-inf", lambda x: oic(UNIFORM_2, COIN, [0, 1], x), INF, DomainError, "beta must be finite"),
    ("dv_identity_residual-beta-inf", lambda x: dv_identity_residual(_POINT, _POINT, [0.5], x), INF, DomainError,
     "beta must be finite"),
    ("iei_exact-beta-inf", lambda x: iei_exact(COIN, _coin_rule, UNIFORM_2, x), INF, DomainError,
     "beta must be finite"),
    ("iei_empirical_check-beta-inf", lambda x: iei_empirical_check(COIN, _coin_rule, UNIFORM_2, x, 10, seed=0), INF,
     DomainError, "beta must be finite"),
    # oic leaves the sample's entries to empirical_risks, which refuses what is not an integer index.
    ("oic-fractional-sample", lambda x: oic(UNIFORM_2, COIN, x, 1.0), [0.7, 1.0], DomainError, NOT_INDICES),
    ("oic-bool-sample", lambda x: oic(UNIFORM_2, COIN, x, 1.0), [True, False], DomainError, NOT_INDICES),
    ("oic-nan-sample", lambda x: oic(UNIFORM_2, COIN, x, 1.0), [0, NAN], DomainError, NOT_INDICES),
    ("dp_prior_mechanism-epsilon-inf", lambda x: dp_prior_mechanism(COIN, [0, 1], x), INF, DomainError,
     "epsilon must be finite"),
    ("dp_mechanism_max_log_ratio-epsilon-inf", lambda x: dp_mechanism_max_log_ratio(COIN, x), INF, DomainError,
     "epsilon must be finite"),
]


@pytest.mark.parametrize("call, value, cls, message", [case[1:] for case in OUT_OF_RANGE],
                         ids=[case[0] for case in OUT_OF_RANGE])
def test_out_of_range_values_are_refused(call, value, cls, message):
    _raises_exactly(cls, message, call, value)


@pytest.mark.parametrize("sample", [[0, 1.0], np.array([0.0, 1.0])], ids=["list", "float array"])
def test_oic_takes_an_integral_float_sample_as_its_integer_sample(sample):
    posterior, value = oic(UNIFORM_2, COIN, sample, 1.0)
    want_posterior, want_value = oic(UNIFORM_2, COIN, [0, 1], 1.0)
    assert posterior.probs.tolist() == want_posterior.probs.tolist() and value == want_value


def test_phi_beta_inverse_refuses_an_infinite_beta():
    _raises_exactly(ParameterError, "beta must be finite", phi_beta_inverse, INF, 0.5)


def test_phi_beta_inverse_takes_the_infinite_sum_of_an_infinite_kl():
    assert phi_beta_inverse(1.0, INF) == -1.0 / math.expm1(-1.0) > 1.0
    assert phi_beta_inverse(1.0, 0.0) == 0.0


def test_annealed_risks_refuse_an_infinite_beta():
    _raises_exactly(DomainError, "beta must be finite", annealed_risks, COIN, INF)


def _sgd_params(kl):
    return PacBayesSgdParams(
        n=100, beta=2.0, lam=0.1, alpha=2.0, b=10, c=0.5, m=50, delta=0.05,
        delta_prime=0.01, mc_empirical_risk=0.1, kl=kl,
    )


#: Frozen classes with array fields, some of them the caller's writable arrays, so each equals and hashes as
#: itself only: equality by value could change after construction, and numpy arrays refuse to be one truth value.
ARRAY_HOLDERS = {
    "BoundRequest": lambda: BoundRequest(n=10, delta=0.1),
    "BoundRequest rows": lambda: BoundRequest(n=10, delta=0.1, kl=[1.0, 2.0]),
    "BoundResult": lambda: BoundResult(0.5, {"risk": 0.5}),
    "BoundResult rows": lambda: BoundResult(np.array([0.5, 0.6]), {"risk": np.array([0.5, 0.6])}),
    "PacBayesSgdParams": lambda: _sgd_params(1.0),
    "PacBayesSgdParams rows": lambda: _sgd_params([1.0, 2.0]),
    "FiniteProblem": lambda: FiniteProblem(losses=[[0, 1], [1, 0]], mu=DiscreteDist([0.5, 0.5]), n=2),
    "QuadraticModel": lambda: QuadraticModel(_ONE, _ONE, _ONE, lam=1.0, n=3, beta=1.0),
    "GaussianKLInputs": lambda: GaussianKLInputs(0.0, np.array([2.0, 2.0]), 2.0),
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_an_array_holder_equals_and_hashes_as_itself_only(make):
    one, other = make(), make()
    assert one == one and not one != one and one in {one} and hash(one) == hash(one)
    assert one != other and not one == other


def test_a_row_request_keeps_the_callers_array():
    kl = np.array([1.0, 2.0])
    assert BoundRequest(n=10, delta=0.1, kl=kl).kl is kl


def test_trial_configs_compare_without_raising():
    config = TrialConfig(
        seed=1, trials=5, problem=COIN, algorithm=ErmAlgorithm(), bound=BoundSpec("zhang", {"beta": 1.0}), delta=0.1
    )
    assert config == dataclasses.replace(config) and config != dataclasses.replace(config, problem=copy.copy(COIN))
