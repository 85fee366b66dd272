"""`bound sweep` configurations for every bound name the CLI accepts.

Each name gets a seed-drawn configuration and a grid over one sweepable
parameter.  :func:`direct_value` evaluates the same row by calling the library
function directly, without the CLI dispatch, so every emitted value can be
checked against it.
"""

from __future__ import annotations

import numpy as np
import genbounds.bounds as B
import genbounds.divergences as D
import genbounds.posteriors as P
from genbounds.losses import LossModel


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _risk_fields(rng) -> dict:
    return {"n": int(rng.integers(20, 500)), "delta": _u(rng, 0.01, 0.2), "empirical_risk": _u(rng, 0.02, 0.4)}


def _quadratic_fields(rng) -> dict:
    k = 3
    return {
        "n": int(rng.integers(20, 500)),
        "beta": _u(rng, 0.3, 1.5),
        "lam": _u(rng, 0.5, 2.0),
        "hessian_eigenvalues": [_u(rng, 0.0, 2.0) for _ in range(k)],
        "w_p": [_u(rng, -1.0, 1.0) for _ in range(k)],
        "w_q": [_u(rng, -1.0, 1.0) for _ in range(k)],
        "empirical_risk": _u(rng, 0.02, 0.4),
    }


#: name -> (sweep parameter, function drawing the fixed fields from an rng).
SWEEPS = {
    "zhang": ("kl", lambda r: {**_risk_fields(r), "beta": _u(r, 0.5, 2.0)}),
    "zhang-gen": ("kl", lambda r: {**_risk_fields(r), "beta": _u(r, 0.5, 2.0),
                                   "model": {"family": "sub_gaussian", "sigma": _u(r, 0.3, 2.0)}}),
    "zhang-gen-expectation": ("n", lambda r: {"avg_kl": _u(r, 0.1, 5.0),
                                              "model": {"family": "sub_gaussian", "sigma": _u(r, 0.3, 2.0)}}),
    "xu-raginsky": ("n", lambda r: {"mi": _u(r, 0.1, 5.0), "sigma": _u(r, 0.3, 2.0)}),
    "subgamma-mi": ("n", lambda r: {"mi": _u(r, 0.1, 5.0), "sigma": _u(r, 0.3, 2.0), "c": _u(r, 0.0, 1.0)}),
    "subgamma": ("kl", lambda r: {**_risk_fields(r),
                                  "model": {"family": "sub_gamma", "sigma": _u(r, 0.3, 2.0), "c": _u(r, 0.0, 0.9)}}),
    "union-beta": ("kl", lambda r: {**_risk_fields(r), "alpha": _u(r, 1.2, 3.0), "v": _u(r, 0.5, 5.0),
                                    "model": {"family": "sub_gaussian", "sigma": _u(r, 0.3, 2.0)}}),
    "catoni": ("kl", lambda r: {**_risk_fields(r), "beta": _u(r, 0.5, 2.0)}),
    "catoni-linear": ("kl", lambda r: {**_risk_fields(r), "beta": _u(r, 0.5, 2.0)}),
    "mcallester-linear": ("kl", lambda r: {**_risk_fields(r), "beta": _u(r, 0.5, 1.9)}),
    "pac-bayes-kl": ("kl", lambda r: _risk_fields(r)),
    "delta": ("kl", lambda r: {**_risk_fields(r), "variant": ("kl", "quadratic", "normalized")[int(r.integers(3))],
                               "moment_bound": _u(r, 0.5, 4.0)}),
    "cmi": ("kl", lambda r: {**_risk_fields(r), "beta": _u(r, 0.1, 1.0)}),
    "cmi-expectation": ("n", lambda r: {"cmi": _u(r, 0.1, 5.0)}),
    "fano": ("n", lambda r: {"cmi": _u(r, 0.1, 5.0)}),
    "dp-prior": ("kl", lambda r: {**_risk_fields(r), "beta": _u(r, 0.5, 2.0), "epsilon": _u(r, 0.05, 1.0)}),
    "dp-prior-gen": ("kl", lambda r: {**_risk_fields(r), "beta": _u(r, 0.5, 2.0), "epsilon": _u(r, 0.05, 1.0)}),
    "max-info-dp": ("n", lambda r: {"epsilon": _u(r, 0.05, 1.0), "alpha": _u(r, 0.0, 0.5)}),
    "occam": ("delta", lambda r: _quadratic_fields(r)),
    "pac-bayes-sgd": ("kl", lambda r: {"n": int(r.integers(20, 500)), "beta": _u(r, 1.1, 4.0),
                                       "lam": _u(r, 0.01, 0.4), "alpha": _u(r, 1.2, 3.0),
                                       "b": int(r.integers(1, 20)), "c": _u(r, 0.5, 0.99),
                                       "m": int(r.integers(10, 1000)), "delta": _u(r, 0.01, 0.2),
                                       "delta_prime": _u(r, 0.01, 0.2),
                                       "mc_empirical_risk": _u(r, 0.02, 0.4)}),
}


def _grid(rng, parameter: str, points: int) -> list:
    if parameter == "kl":
        return sorted(float(x) for x in rng.uniform(0.0, 6.0, points))
    if parameter == "n":
        return sorted(int(x) for x in rng.integers(10, 5000, points))
    if parameter == "delta":
        return sorted(float(x) for x in rng.uniform(0.005, 0.5, points))
    raise ValueError(parameter)


def sweep_configs(rng: np.random.Generator, points: int) -> list[tuple[str, dict]]:
    """One YAML-ready `bound sweep` config per bound name, drawn from ``rng``."""
    configs = []
    for name, (parameter, draw) in SWEEPS.items():
        bound = {"name": name, **draw(rng)}
        sweep = {"parameter": parameter, "grid": _grid(rng, parameter, points)}
        configs.append((name, {"bound": bound, "sweep": sweep, "output": {"unit": "nats"}}))
    return configs


def _model(cfg):
    if cfg is None:
        return LossModel.bounded_unit()
    return LossModel(family=cfg["family"], sigma=cfg.get("sigma", 0.5), c=cfg.get("c", 0.0))


def _req(c) -> B.BoundRequest:
    return B.BoundRequest(
        n=c["n"], delta=c["delta"], empirical_risk=c.get("empirical_risk", 0.0),
        kl=c.get("kl", 0.0), beta=c.get("beta"), model=_model(c.get("model")),
    )


def _quadratic(c) -> P.QuadraticModel:
    return P.QuadraticModel(
        hessian_eigenvalues=np.asarray(c["hessian_eigenvalues"], float),
        w_p=np.asarray(c["w_p"], float), w_q=np.asarray(c["w_q"], float),
        lam=c["lam"], n=c["n"], beta=c["beta"],
    )


def _sgd(c) -> P.PacBayesSgdParams:
    keys = ("n", "beta", "lam", "alpha", "b", "c", "m", "delta", "delta_prime", "mc_empirical_risk")
    return P.PacBayesSgdParams(kl=c.get("kl", 0.0), **{k: c[k] for k in keys})


DIRECT = {
    "zhang": lambda c: B.zhang_high_prob(_req(c)).value,
    "zhang-gen": lambda c: B.zhang_gen_high_prob(_req(c)).value,
    "zhang-gen-expectation": lambda c: B.zhang_gen_expectation(c["avg_kl"], c["n"], _model(c.get("model"))),
    "xu-raginsky": lambda c: B.xu_raginsky(c["mi"], c["n"], c["sigma"]),
    "subgamma-mi": lambda c: B.subgamma_mi(c["mi"], c["n"], c["sigma"], c["c"]),
    "subgamma": lambda c: B.subgamma_pacbayes(_req(c)).value,
    "union-beta": lambda c: B.union_bound_beta(_req(c), c["alpha"], c["v"]).value,
    "catoni": lambda c: B.catoni_bound(_req(c)).value,
    "catoni-linear": lambda c: B.catoni_linear(_req(c)).value,
    "mcallester-linear": lambda c: B.mcallester_linear(_req(c)).value,
    "pac-bayes-kl": lambda c: B.pac_bayes_kl(_req(c)).value,
    "delta": lambda c: B.delta_bound(_req(c), c["variant"], c["moment_bound"]).value,
    "cmi": lambda c: B.cmi_pac_high_prob(_req(c)).value,
    "cmi-expectation": lambda c: B.cmi_expectation(c["cmi"], c["n"]),
    "fano": lambda c: B.fano_identification_lb(c["cmi"], c["n"]),
    "dp-prior": lambda c: B.dp_prior_high_prob(_req(c), c["epsilon"]).value,
    "dp-prior-gen": lambda c: B.dp_prior_gen_bound(_req(c), c["epsilon"]).value,
    "max-info-dp": lambda c: D.max_info_dp_bound(c["epsilon"], c["n"], c["alpha"]),
    "occam": lambda c: P.occam_bound(_quadratic(c), c["delta"], c["empirical_risk"]).value,
    "pac-bayes-sgd": lambda c: P.pacbayes_sgd_objective(_sgd(c)).value,
}


def direct_values(config: dict) -> list[float]:
    """The value of every grid row, from direct library calls."""
    bound = dict(config["bound"])
    parameter = config["sweep"]["parameter"]
    values = []
    for point in config["sweep"]["grid"]:
        bound[parameter] = int(point) if parameter == "n" else float(point)
        values.append(direct_value(bound))
    return values


def direct_value(bound: dict) -> float:
    """The value of one `bound compute` config, from a direct library call."""
    return float(DIRECT[bound["name"]](bound))
