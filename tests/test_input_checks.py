"""The input checks on the per-call path: which inputs they refuse, with what, and the bits they pass.

Each refused input raises exactly the exception class and message listed
here.  The Gibbs posterior is pinned bit for bit to its reference formula,
np.where(q > 0, log(max(q, 1e-300)), -inf) - beta f, shifted by its maximum
and normalized.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbounds import DiscreteDist, FiniteProblem, LossModel
from genbounds.bounds import (
    BoundRequest,
    cmi_expectation,
    dp_prior_penalty,
    fano_identification_lb,
    xu_raginsky,
    zhang_gen_expectation,
)
from genbounds.divergences import JointTable, conditional_mutual_info, max_info_dp_bound
from genbounds.errors import DegenerateError, DomainError, ParameterError
from genbounds.posteriors import PacBayesSgdParams, QuadraticModel, gibbs_posterior
from genbounds.problems import empirical_risks

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
        ([True, False], NOT_INDICES),
        ([1, True], NOT_INDICES),
        ([0.5, 1], NOT_INDICES),
        (np.array([0.0, NAN]), NOT_INDICES),
        (np.array([0.0, INF]), NOT_INDICES),
        (np.array([-INF, 1.0]), NOT_INDICES),
    ],
    ids=["list past k", "negative", "uint8 past k", "integral floats past k", "bools", "int and bool",
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
)
def test_gibbs_posterior_matches_the_reference_formula_bit_for_bit(data, size, beta):
    weights = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size)))
    q = weights / weights.sum()
    tiny = data.draw(st.lists(st.one_of(st.none(), TINY), min_size=size, max_size=size))
    q = np.array([x if t is None else t for x, t in zip(q, tiny)])
    if abs(q.sum() - 1.0) > 1e-12:  # a replaced entry carried mass; give it to the first
        q[0] += 1.0 - q.sum()
    f = np.array(data.draw(st.lists(st.one_of(st.floats(-50.0, 50.0), st.just(INF)), min_size=size, max_size=size)))
    prior = DiscreteDist(q)
    want = _reference_gibbs(prior.probs, f, beta)
    if want is None:
        with pytest.raises(DegenerateError):
            gibbs_posterior(prior, f, beta)
    else:
        assert gibbs_posterior(prior, f, beta).probs.tobytes() == want.tobytes()


_SGD = dict(n=50, beta=2.0, lam=0.1, alpha=2.0, b=10, c=0.5, m=200, delta=0.05, delta_prime=0.05,
            mc_empirical_risk=0.1, kl=2.0)
_ONE = [1.0]

#: (site, a call taking the integer under test, the error class, its message)
INTEGER_SITES = [
    ("BoundRequest", lambda k: BoundRequest(n=k, delta=0.5), ParameterError, "n must be a positive integer"),
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
]


@pytest.mark.parametrize("value", [2.5, True, math.nan], ids=["2.5", "True", "nan"])
@pytest.mark.parametrize("call, cls, message", [case[1:] for case in INTEGER_SITES],
                         ids=[case[0] for case in INTEGER_SITES])
def test_every_integer_count_refuses_a_non_integer_with_its_own_error(call, cls, message, value):
    _raises_exactly(cls, message, call, value)
    call(np.int64(3))
