"""Property tests over every bound of the table that takes a request.

Each bound is drawn at random inputs through its table entry and must be
monotone in kl and in 1/delta, stay in [0, 1] when it is stated only for
[0, 1]-valued losses, flag a value above 1 as vacuous for a [0, 1] model, and
refuse NaN in any of its numeric fields.  A call on rows of empirical risk and
kl, or on rows of a field the table entry lists in ``rows`` (``delta`` for
occam, ``kl`` for pac-bayes-sgd), must give, row by row and to the bit, what
one call per row gives, and refuse a bad row as a one-row call refuses it.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbounds.bounds import BoundRequest
from genbounds.errors import GenBoundsError
from genbounds.registry import BOUNDS, _model_from

#: Monotonicity slack: phi_beta^-1 goes through expm1, which need not be monotone to the last bit.
MONOTONE_ATOL = 1e-12

REQUEST_BOUNDS = [name for name, entry in BOUNDS.items() if entry.request is not None]
#: Bounds stated only for [0, 1]-valued losses: they refuse any other model and clamp to 1.
UNIT_ONLY = ("catoni", "catoni-linear", "mcallester-linear", "pac-bayes-kl", "delta", "cmi")

PROPERTIES = settings(max_examples=60, deadline=None, derandomize=True)


def _real(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_BETA = _real(1e-3, 10.0)
_SUB_GAUSSIAN = st.builds(lambda s: {"family": "sub_gaussian", "sigma": s}, _real(0.1, 3.0))
_ANY_MODEL = st.one_of(st.none(), _SUB_GAUSSIAN)

#: name -> strategy for the fields beyond n, delta, empirical_risk and kl.
EXTRAS = {
    "zhang": st.fixed_dictionaries({"beta": _BETA}, optional={"model": _ANY_MODEL}),
    "zhang-gen": st.fixed_dictionaries({"beta": _BETA}, optional={"model": _ANY_MODEL}),
    "subgamma": st.fixed_dictionaries({
        "model": st.builds(lambda s, c: {"family": "sub_gamma", "sigma": s, "c": c}, _real(0.1, 3.0), _real(0.0, 0.95))
    }),
    "union-beta": st.fixed_dictionaries(
        {"alpha": _real(1.1, 4.0), "v": _real(0.1, 10.0)}, optional={"model": _ANY_MODEL}
    ),
    "catoni": st.fixed_dictionaries({"beta": _BETA}),
    "catoni-linear": st.fixed_dictionaries({"beta": _BETA}),
    "mcallester-linear": st.fixed_dictionaries({"beta": _real(1e-3, 1.99)}),
    "pac-bayes-kl": st.fixed_dictionaries({}),
    "delta": st.fixed_dictionaries({
        "variant": st.sampled_from(["kl", "quadratic", "normalized"]), "moment_bound": _real(0.0, 10.0)
    }),
    "cmi": st.fixed_dictionaries({"beta": _BETA}),
    "dp-prior": st.fixed_dictionaries({"beta": _BETA, "epsilon": _real(0.0, 2.0)}),
    "dp-prior-gen": st.fixed_dictionaries(
        {"beta": _BETA, "epsilon": _real(0.0, 2.0)}, optional={"model": _ANY_MODEL}
    ),
}


def test_every_request_bound_has_a_strategy():
    assert set(EXTRAS) == set(REQUEST_BOUNDS)


@st.composite
def configs(draw, name):
    """A valid flat config for ``name``."""
    cfg = {
        "name": name,
        "n": draw(st.integers(8 if name == "pac-bayes-kl" else 1, 10_000)),
        "delta": draw(_real(1e-6, 2.0)),
        "empirical_risk": draw(_real(0.0, 1.0)),
        "kl": draw(_real(0.0, 1e3)),
        **draw(EXTRAS[name]),
    }
    return {key: value for key, value in cfg.items() if value is not None}


def _value(cfg):
    return BOUNDS[cfg["name"]].evaluate(cfg).value


@pytest.mark.parametrize("name", REQUEST_BOUNDS)
@PROPERTIES
@given(data=st.data())
def test_monotone_in_kl(name, data):
    cfg = data.draw(configs(name))
    larger = data.draw(_real(cfg["kl"], 2e3))
    assert _value(cfg) <= _value({**cfg, "kl": larger}) + MONOTONE_ATOL


@pytest.mark.parametrize("name", REQUEST_BOUNDS)
@PROPERTIES
@given(data=st.data())
def test_monotone_in_inverse_delta(name, data):
    cfg = data.draw(configs(name))
    smaller = data.draw(_real(1e-8, cfg["delta"]))
    assert _value({**cfg, "delta": smaller}) >= _value(cfg) - MONOTONE_ATOL


@pytest.mark.parametrize("name", REQUEST_BOUNDS)
@PROPERTIES
@given(data=st.data())
def test_unit_loss_bounds_stay_in_the_unit_interval(name, data):
    cfg = data.draw(configs(name))
    result = BOUNDS[name].evaluate(cfg)
    if name in UNIT_ONLY:
        assert 0.0 <= result.value <= 1.0
    if _model_from(cfg.get("model")).is_unit_range and result.raw_value > 1.0:
        assert result.vacuous


@pytest.mark.parametrize("name", REQUEST_BOUNDS)
@PROPERTIES
@given(data=st.data())
def test_nan_is_refused(name, data):
    cfg = data.draw(configs(name))
    fields = [key for key, value in cfg.items() if isinstance(value, float)]
    field = data.draw(st.sampled_from(fields))
    with pytest.raises(GenBoundsError):
        BOUNDS[name].evaluate({**cfg, field: math.nan})


#: One valid config per bound that takes a request, the delta bound once per variant.
ROW_CASES = [
    ("zhang", {"beta": 0.8}),
    ("zhang-gen", {"beta": 0.8, "model": {"family": "sub_gaussian", "sigma": 1.0}}),
    ("subgamma", {"model": {"family": "sub_gamma", "sigma": 1.0, "c": 0.5}}),
    ("union-beta", {"alpha": 2.0, "v": 5.0}),
    ("catoni", {"beta": 0.8}),
    ("catoni-linear", {"beta": 0.8}),
    ("mcallester-linear", {"beta": 0.8}),
    ("pac-bayes-kl", {}),
    *[("delta", {"variant": variant, "moment_bound": 1.5}) for variant in ("kl", "quadratic", "normalized")],
    ("cmi", {"beta": 0.8}),
    ("dp-prior", {"beta": 0.8, "epsilon": 0.1}),
    ("dp-prior-gen", {"beta": 0.8, "epsilon": 0.1}),
]
#: (empirical risk, kl) rows at the edges: an infinite or overflowing kl, no kl, risks 0 and 1 (saturating).
EDGE_ROWS = [(0.0, math.inf), (0.3, math.inf), (1.0, 0.0), (1.0, 5.0), (0.0, 0.0), (0.5, 1e300), (1e-300, 1e-300)]


def test_every_request_bound_has_a_row_case():
    assert {name for name, _ in ROW_CASES} == set(REQUEST_BOUNDS)


@pytest.mark.parametrize("delta", [0.05, 2.0], ids=["delta-0.05", "delta-2"])
@pytest.mark.parametrize(
    "name, extras", ROW_CASES, ids=[name + "-" + extras.get("variant", "") for name, extras in ROW_CASES]
)
def test_a_row_call_equals_one_call_per_row_to_the_bit(name, extras, delta):
    cfg = {"name": name, "n": 50, "delta": delta, **extras}
    for m in range(1, 18):
        rng = np.random.default_rng(m)
        risks, kls = rng.uniform(0.0, 1.0, m), rng.exponential(3.0, m)
        for row, (risk, kl) in zip(rng.choice(m, size=min(m, 3), replace=False), rng.permutation(EDGE_ROWS)):
            risks[row], kls[row] = risk, kl
        rows = BOUNDS[name].evaluate({**cfg, "empirical_risk": risks, "kl": kls})
        assert rows.value.shape == rows.raw_value.shape == rows.vacuous.shape == (m,)
        assert all(component.shape == (m,) for component in rows.components.values())
        assert np.array_equal(rows.recompose(), rows.raw_value)
        for i, row in enumerate(rows.rows()):
            one = BOUNDS[name].evaluate({**cfg, "empirical_risk": float(risks[i]), "kl": float(kls[i])})
            # repr tells floats apart to the bit, signed zeros included.
            assert repr(row) == repr(one), (m, i)
            assert type(one.value) is float and type(one.vacuous) is bool


def test_a_scalar_request_stays_scalar():
    request = BoundRequest(n=10, delta=0.1, empirical_risk=np.float64(0.2), kl=np.float64(1.0))
    assert type(request.empirical_risk) is float and type(request.kl) is float
    rows = BoundRequest(n=10, delta=0.1, empirical_risk=0.2, kl=[1.0, 2.0])
    assert np.array_equal(rows.empirical_risk, [0.2, 0.2]) and np.array_equal(rows.kl, [1.0, 2.0])


@pytest.mark.parametrize(
    "risk, kl, message",
    [
        ([0.1, math.nan], [1.0, 1.0], "empirical_risk must not be NaN"),
        ([0.1, 0.2], [1.0, math.nan], "kl must be nonnegative (inf allowed)"),
        ([0.1, 0.2], [1.0, -1e-300], "kl must be nonnegative (inf allowed)"),
        ([0.1, 0.2], [1.0, 2.0, 3.0], "empirical_risk and kl must be floats or 1-D rows of one length"),
        ([[0.1]], 1.0, "empirical_risk and kl must be floats or 1-D rows of one length"),
    ],
)
def test_every_row_is_checked(risk, kl, message):
    with pytest.raises(GenBoundsError, match=f"^{re.escape(message)}$"):
        BoundRequest(n=10, delta=0.1, empirical_risk=risk, kl=kl)


@pytest.mark.parametrize("risk", [[0.5, 1.0 + 2.0**-52], -0.1, 1.1], ids=["row", "-0.1", "1.1"])
@pytest.mark.parametrize("name, params", [("catoni", ()), ("zhang", ()), ("dp-prior", (0.1,))],
                         ids=["catoni", "zhang", "dp-prior"])
def test_a_row_outside_the_unit_interval_is_refused_by_a_unit_bound(name, params, risk):
    request = BoundRequest(n=10, delta=0.1, empirical_risk=risk, kl=1.0, beta=1.0)
    with pytest.raises(GenBoundsError, match="empirical_risk must lie in"):
        BOUNDS[name].request(request, *params)


#: One valid config per bound that evaluates a field other than empirical risk and kl as rows.
FIELD_ROW_CASES = {
    "occam": {
        "n": 50, "beta": 0.8, "lam": 1.5, "hessian_eigenvalues": [0.0, 0.4, 3.0],
        "w_p": [0.2, -0.5, 1.0], "w_q": [0.0, 0.3, -0.2], "empirical_risk": 0.2, "delta": 0.05,
    },
    "pac-bayes-sgd": {
        "n": 50, "beta": 2.0, "lam": 0.1, "alpha": 1.5, "b": 4, "c": 0.8, "m": 100,
        "delta": 0.05, "delta_prime": 0.05, "mc_empirical_risk": 0.2, "kl": 1.0,
    },
    "zhang-gen-expectation": {"n": 50, "avg_kl": 1.3, "model": {"family": "sub_gamma", "sigma": 0.7, "c": 0.4}},
    "xu-raginsky": {"n": 50, "mi": 0.8, "sigma": 1.1},
    "subgamma-mi": {"n": 50, "mi": 0.8, "sigma": 1.1, "c": 0.3},
    "cmi-expectation": {"n": 50, "cmi": 2.0},
    "fano": {"n": 50, "cmi": 2.0},
    "max-info-dp": {"n": 50, "epsilon": 0.2, "alpha": 0.05},
}
#: The bounds that take n as a row: the expectation bounds.
N_ROW_BOUNDS = ("zhang-gen-expectation", "xu-raginsky", "subgamma-mi", "cmi-expectation", "fano", "max-info-dp")
#: field -> (a draw of m valid rows, edge rows, bad rows: NaN and out of range).  An n row holds whole
#: floats, as a sweep passes it; a one-point call takes each as an int.
FIELD_ROWS = {
    "kl": (lambda rng, m: rng.exponential(3.0, m), [0.0, math.inf, 1e300, 1e-300], [math.nan, -1.0, -math.inf]),
    "delta": (lambda rng, m: rng.uniform(1e-6, 1.0, m), [1.0, 1e-300, 5e-324, 0.5], [math.nan, 0.0, 1.5, -0.1]),
    "n": (lambda rng, m: rng.integers(1, 10**6, m).astype(float), [1, 2**53, 10**300, 7],
          [math.nan, 0, 2.5, -3, math.inf]),
}


def _point(field: str, value):
    """One row of ``field`` as a one-point config holds it: n as an int, anything else as a float."""
    return int(value) if field == "n" else float(value)


def _row_config(name: str) -> dict:
    """A valid config for ``name``: its field row case, or its request row case at delta 0.05."""
    if name in FIELD_ROW_CASES:
        return {"name": name, **FIELD_ROW_CASES[name]}
    extras = next(extras for case, extras in ROW_CASES if case == name)
    return {"name": name, "n": 50, "delta": 0.05, "empirical_risk": 0.2, "kl": 1.0, **extras}


def test_every_entry_takes_its_row_fields_as_rows():
    for name, entry in BOUNDS.items():
        others = {"occam": ("delta",), "pac-bayes-sgd": ("kl",), **{bound: ("n",) for bound in N_ROW_BOUNDS}}
        assert entry.rows == (("kl",) if entry.request is not None else others.get(name, ())), name
        for field in entry.rows:
            cfg = _row_config(name)
            edges = FIELD_ROWS[field][1]
            rows = entry.evaluate({**cfg, field: np.array(edges, dtype=float)})
            assert rows.value.shape == (len(edges),)
            assert [repr(row) for row in rows.rows()] == [
                repr(entry.evaluate({**cfg, field: edge})) for edge in edges
            ], (name, field)


@pytest.mark.parametrize(
    "name, field", [("occam", "delta"), ("pac-bayes-sgd", "kl"), *[(name, "n") for name in N_ROW_BOUNDS]]
)
def test_a_row_field_call_equals_one_call_per_row_to_the_bit(name, field):
    cfg = _row_config(name)
    draw, edges, _ = FIELD_ROWS[field]
    for m in range(1, 18):
        rng = np.random.default_rng(m)
        values = draw(rng, m)
        for row, edge in zip(rng.choice(m, size=min(m, 3), replace=False), rng.permutation(edges)):
            values[row] = edge
        rows = BOUNDS[name].evaluate({**cfg, field: values})
        assert rows.value.shape == rows.raw_value.shape == rows.vacuous.shape == (m,)
        assert all(component.shape == (m,) for component in rows.components.values())
        assert np.array_equal(rows.recompose(), rows.raw_value)
        for i, row in enumerate(rows.rows()):
            one = BOUNDS[name].evaluate({**cfg, field: _point(field, values[i])})
            assert repr(row) == repr(one), (m, i)
            assert type(one.value) is float and type(one.vacuous) is bool


@pytest.mark.parametrize(
    "name, field", [(name, field) for name, entry in BOUNDS.items() for field in entry.rows]
)
def test_a_bad_row_is_refused_as_a_one_point_call_refuses_it(name, field):
    cfg = _row_config(name)
    for bad in FIELD_ROWS[field][2]:
        with pytest.raises(GenBoundsError) as one:
            BOUNDS[name].evaluate({**cfg, field: bad})
        rows = np.array([*FIELD_ROWS[field][1][:2], bad, FIELD_ROWS[field][1][0]])
        with pytest.raises(type(one.value), match=f"^{re.escape(str(one.value))}$"):
            BOUNDS[name].evaluate({**cfg, field: rows})
