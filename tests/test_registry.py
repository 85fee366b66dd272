"""Tests of the bound table: every entry evaluates, recomposes and flags vacuity,
and the README documents exactly the registered names."""

import copy
import math
import re
from pathlib import Path

import pytest

from genbounds.bounds import COMPONENT_ATOL
from genbounds.errors import GenBoundsError
from genbounds.registry import BOUNDS

README = Path(__file__).resolve().parents[1] / "README.md"

_RISK = {"n": 50, "delta": 0.1, "empirical_risk": 0.2, "kl": 2.0}
_SUB_GAUSSIAN = {"family": "sub_gaussian", "sigma": 1.0}

#: One valid flat config per bound; the delta bound once per variant.
CASES = [
    ("zhang", {**_RISK, "beta": 0.8}),
    ("zhang-gen", {**_RISK, "beta": 0.8, "model": _SUB_GAUSSIAN}),
    ("zhang-gen-expectation", {"avg_kl": 2.0, "n": 50, "model": _SUB_GAUSSIAN}),
    ("xu-raginsky", {"mi": 2.0, "n": 50, "sigma": 0.5}),
    ("subgamma-mi", {"mi": 2.0, "n": 50, "sigma": 0.5, "c": 0.3}),
    ("subgamma", {**_RISK, "model": {"family": "sub_gamma", "sigma": 1.0, "c": 0.5}}),
    ("union-beta", {**_RISK, "alpha": 2.0, "v": 5.0}),
    ("catoni", {**_RISK, "beta": 0.8}),
    ("catoni-linear", {**_RISK, "beta": 0.8}),
    ("mcallester-linear", {**_RISK, "beta": 0.8}),
    ("pac-bayes-kl", dict(_RISK)),
    *[
        ("delta", {**_RISK, "variant": variant, "moment_bound": 1.5})
        for variant in ("kl", "quadratic", "normalized")
    ],
    ("cmi", {**_RISK, "beta": 0.8}),
    ("cmi-expectation", {"cmi": 2.0, "n": 50}),
    ("fano", {"cmi": 2.0, "n": 50}),
    ("dp-prior", {**_RISK, "beta": 0.8, "epsilon": 0.1}),
    ("dp-prior-gen", {**_RISK, "beta": 0.8, "epsilon": 0.1}),
    ("max-info-dp", {"epsilon": 0.1, "n": 50, "alpha": 0.01}),
    (
        "occam",
        {
            "n": 50, "beta": 0.8, "delta": 0.1, "lam": 1.0, "empirical_risk": 0.2,
            "hessian_eigenvalues": [0.5, 2.0], "w_p": [0.1, -0.2], "w_q": [0.0, 0.3],
        },
    ),
    (
        "pac-bayes-sgd",
        {
            "n": 50, "beta": 2.0, "lam": 0.1, "alpha": 2.0, "b": 10, "c": 0.5, "m": 200,
            "delta": 0.05, "delta_prime": 0.05, "mc_empirical_risk": 0.1, "kl": 2.0,
        },
    ),
]


def _params(cases):
    params = []
    for name, cfg in cases:
        case_id = f"{name}-{cfg['variant']}" if "variant" in cfg else name
        params.append(pytest.param(name, {"name": name, **cfg}, id=case_id))
    return params


def test_every_bound_has_a_case():
    assert {name for name, _ in CASES} == set(BOUNDS)


@pytest.mark.parametrize("name, cfg", _params(CASES))
def test_components_recompose(name, cfg):
    result = BOUNDS[name].evaluate(cfg)
    assert result.raw_value == pytest.approx(result.recompose(), abs=COMPONENT_ATOL)


@pytest.mark.parametrize(
    "name, cfg", _params([case for case in CASES if BOUNDS[case[0]].request is not None])
)
def test_infinite_kl_is_vacuous(name, cfg):
    assert BOUNDS[name].evaluate({**cfg, "kl": math.inf}).vacuous


def _numeric_paths(cfg):
    """The path to every number in a config: top-level fields, list entries, model fields."""
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from ((key, sub) for sub, v in value.items() if isinstance(v, (int, float)))
        elif isinstance(value, list):
            yield from ((key, i) for i in range(len(value)))
        elif isinstance(value, (int, float)):
            yield (key,)


def _nan_cases():
    return [
        pytest.param(case.values[0], case.values[1], path, id=f"{case.id}-{'.'.join(map(str, path))}")
        for case in _params(CASES)
        for path in _numeric_paths(case.values[1])
    ]


@pytest.mark.parametrize("name, cfg, path", _nan_cases())
def test_nan_input_is_rejected(name, cfg, path):
    bad = copy.deepcopy(cfg)
    target = bad
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = math.nan
    with pytest.raises(GenBoundsError):
        BOUNDS[name].evaluate(bad)


def test_readme_lists_every_bound_name():
    block = re.search(r"Bound names: (.*?)\.\n", README.read_text(), re.S).group(1)
    assert re.findall(r"`([^`]+)`", block) == list(BOUNDS)


def test_readme_lists_the_bounds_experiment_run_certifies():
    listed = re.search(r"# run: ([\w|-]+)", README.read_text()).group(1).split("|")
    assert listed == [name for name, entry in BOUNDS.items() if entry.trial == "plain"]
