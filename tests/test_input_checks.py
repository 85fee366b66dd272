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
    cmi_expectation,
    dp_prior_penalty,
    fano_identification_lb,
    xu_raginsky,
    zhang_gen_expectation,
)
from genbounds.divergences import GaussianKLInputs, JointTable, conditional_mutual_info, max_info_dp_bound
from genbounds.errors import DegenerateError, DomainError, ParameterError
from genbounds.harness import (
    BoundSpec,
    ErmAlgorithm,
    SupersampleDraw,
    TrialConfig,
    clopper_pearson_upper,
    union_beta_grid,
)
from genbounds.losses import phi_beta, phi_beta_inverse, psi_of, psi_star_inverse, psi_star_inverse_numeric
from genbounds.posteriors import (
    PacBayesSgdParams,
    QuadraticModel,
    expected_quadratic_loss,
    gibbs_posterior,
    iei_empirical_check,
    iei_exact,
    information_complexity,
    local_entropy,
    local_entropy_mc,
    stochastic_complexity,
)
from genbounds.problems import annealed_risks, empirical_risks

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


@pytest.mark.parametrize(
    "call, value, message",
    [
        (lambda x: phi_beta_inverse(1.0, x), -5.0, "x must be nonnegative"),
        (lambda x: phi_beta_inverse(1.0, x), -INF, "x must be nonnegative"),
        (lambda x: local_entropy(_MODEL, 1.0, [x]), INF, "w must be finite"),
        (lambda x: local_entropy(_MODEL, 1.0, [x]), -INF, "w must be finite"),
        (lambda x: local_entropy_mc(_MODEL, 1.0, 10, seed=0, w=[x]), INF, "w must be finite"),
    ],
    ids=["phi_beta_inverse-negative", "phi_beta_inverse--inf", "local_entropy-+inf", "local_entropy--inf",
         "local_entropy_mc-+inf"],
)
def test_out_of_range_values_are_refused(call, value, message):
    _raises_exactly(DomainError, message, call, value)


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
    "PacBayesSgdParams": lambda: _sgd_params(1.0),
    "PacBayesSgdParams rows": lambda: _sgd_params([1.0, 2.0]),
    "FiniteProblem": lambda: FiniteProblem(losses=[[0, 1], [1, 0]], mu=DiscreteDist([0.5, 0.5]), n=2),
    "QuadraticModel": lambda: QuadraticModel(_ONE, _ONE, _ONE, lam=1.0, n=3, beta=1.0),
    "GaussianKLInputs": lambda: GaussianKLInputs(0.0, np.array([2.0, 2.0]), 2.0),
    "SupersampleDraw": lambda: SupersampleDraw(z_tilde=[[0, 1], [1, 0]], u=[0, 1]),
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
