"""The bound table: every named bound, described once.

Each entry of :data:`BOUNDS` says how to evaluate the bound from a flat
config mapping (the ``bound`` section of a CLI config) and, when the bound
takes a :class:`~genbounds.bounds.BoundRequest`, from a request and its extra
parameters.  Bounds the harness certifies also record which trial draws their
samples, which exact quantity they must dominate, and which loss values they
are stated for.  The CLI dispatch, the unit conversion on emission and the
harness's trials and bound calls are all read off this table.

Every call to a bound runs what the bound function's module holds under the
function's name at that time: an entry stores no function object, so a
replacement installed on the module, such as a tracing wrapper, is the one
that runs.  A config section that becomes a dataclass (the quadratic model of
``occam``, the parameters of ``pac-bayes-sgd``) is read by the dataclass's
field names, in field order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable

from . import bounds, divergences, posteriors
from .errors import ConfigurationError
from .losses import LossModel


def _require(section: dict, key: str, context: str):
    if key not in section:
        raise ConfigurationError(f"missing required field {context}.{key}")
    return section[key]


def _need(cfg: dict, key: str):
    return _require(cfg, key, "bound")


def _model_from(cfg: dict | None) -> LossModel:
    if cfg is None:
        return LossModel.bounded_unit()
    family = _require(cfg, "family", "bound.model")
    return LossModel(family=family, sigma=cfg.get("sigma", 0.5), c=cfg.get("c", 0.0))


def _request_from(cfg: dict) -> bounds.BoundRequest:
    return bounds.BoundRequest(
        n=_need(cfg, "n"),
        delta=_need(cfg, "delta"),
        empirical_risk=cfg.get("empirical_risk", 0.0),
        kl=cfg.get("kl", 0.0),
        beta=cfg.get("beta"),
        model=_model_from(cfg.get("model")),
    )


def _from_fields(cls, cfg: dict):
    """The dataclass ``cls`` from the config fields of its field names; only ``kl`` may be left out (0)."""
    return cls(**{key: cfg.get("kl", 0.0) if key == "kl" else _need(cfg, key) for key in cls.__dataclass_fields__})


@dataclass(frozen=True)
class BoundEntry:
    """One named bound.

    ``evaluate(cfg)`` computes it from a flat config mapping, looking the
    bound function up as the module docstring says.  ``rows`` names
    the config fields that ``evaluate`` also takes as 1-D rows, in one call
    giving one value per row, each the value a one-row config gives: ``kl``
    for every bound that takes a request and for ``pac-bayes-sgd``, ``delta``
    for ``occam``, and ``n`` for the six expectation bounds (a row of whole
    numbers).  A sweep over one of these fields is one call.  When the
    bound takes a request, ``request(req, *values)`` computes it from one and
    the values of the config fields ``fields`` names (``epsilon`` for
    ``dp-prior``), which a certification reads from ``BoundSpec.params``; a
    request of rows gives one value per row.  ``trial`` is the certification
    trial that checks it (``plain``, ``supersample`` or ``private-prior``),
    ``truth`` the exact quantity it must dominate there (``annealed``,
    ``true`` or ``gap``), and ``losses`` the loss values that trial requires
    (``unit`` for [0, 1], ``binary`` for {0, 1}; None when any loss will do).
    Information-valued bounds are converted to bits on emission.
    """

    evaluate: Callable[[dict], bounds.BoundResult]
    request: Callable[..., bounds.BoundResult] | None = None
    rows: tuple[str, ...] = ()
    fields: tuple[str, ...] = ()
    trial: str | None = None
    truth: str | None = None
    losses: str | None = None
    info_valued: bool = False


def _on_request(function: Callable[..., bounds.BoundResult], *params: str, **facts) -> BoundEntry:
    """An entry for ``function``, a bound taking a request followed by the config fields ``params``.

    ``function`` gives only its module and name; both ``evaluate`` and
    ``request`` look it up by them at each call.
    """
    module, name = sys.modules[function.__module__], function.__name__

    def request(req: bounds.BoundRequest, *values) -> bounds.BoundResult:
        return getattr(module, name)(req, *values)

    def evaluate(cfg: dict) -> bounds.BoundResult:
        return request(_request_from(cfg), *(_need(cfg, key) for key in params))

    return BoundEntry(evaluate, request, rows=("kl",), fields=params, **facts)


def _scalar(value_of: Callable[[dict], float], **facts) -> BoundEntry:
    """An entry for an expectation bound: a plain value, of one ``n`` or of a row of them."""
    return BoundEntry(lambda cfg: bounds._result({"value": value_of(cfg)}), rows=("n",), **facts)


def _cmi_expectation(cfg: dict) -> float:
    arg = cfg.get("cmi", cfg.get("avg_kl"))
    if arg is None:
        raise ConfigurationError("cmi-expectation needs a cmi or avg_kl field")
    return bounds.cmi_expectation(arg, _need(cfg, "n"))


#: Every bound the CLI can evaluate, by name.
BOUNDS: dict[str, BoundEntry] = {
    "zhang": _on_request(bounds.zhang_high_prob, trial="plain", truth="annealed"),
    "zhang-gen": _on_request(bounds.zhang_gen_high_prob),
    "zhang-gen-expectation": _scalar(
        lambda c: bounds.zhang_gen_expectation(
            _need(c, "avg_kl"), _need(c, "n"), _model_from(c.get("model"))
        )
    ),
    "xu-raginsky": _scalar(
        lambda c: bounds.xu_raginsky(_need(c, "mi"), _need(c, "n"), _need(c, "sigma"))
    ),
    "subgamma-mi": _scalar(
        lambda c: bounds.subgamma_mi(
            _need(c, "mi"), _need(c, "n"), _need(c, "sigma"), c.get("c", 0.0)
        )
    ),
    "subgamma": _on_request(bounds.subgamma_pacbayes),
    "union-beta": _on_request(bounds.union_bound_beta, "alpha", "v"),
    "catoni": _on_request(bounds.catoni_bound, trial="plain", truth="true", losses="binary"),
    "catoni-linear": _on_request(bounds.catoni_linear, trial="plain", truth="true", losses="binary"),
    "mcallester-linear": _on_request(
        bounds.mcallester_linear, trial="plain", truth="true", losses="binary"
    ),
    "pac-bayes-kl": _on_request(bounds.pac_bayes_kl, trial="plain", truth="true", losses="unit"),
    "delta": _on_request(bounds.delta_bound, "variant", "moment_bound"),
    "cmi": _on_request(bounds.cmi_pac_high_prob, trial="supersample", truth="gap", losses="unit"),
    "cmi-expectation": _scalar(_cmi_expectation),
    "fano": _scalar(lambda c: bounds.fano_identification_lb(_need(c, "cmi"), _need(c, "n"))),
    "dp-prior": _on_request(
        bounds.dp_prior_high_prob, "epsilon", trial="private-prior", truth="annealed", losses="unit"
    ),
    "dp-prior-gen": _on_request(bounds.dp_prior_gen_bound, "epsilon"),
    "max-info-dp": _scalar(
        lambda c: divergences.max_info_dp_bound(
            _need(c, "epsilon"), _need(c, "n"), c.get("alpha", 0.0)
        ),
        info_valued=True,
    ),
    "occam": BoundEntry(
        lambda c: posteriors.occam_bound(
            _from_fields(posteriors.QuadraticModel, c), _need(c, "delta"), c.get("empirical_risk", 0.0)
        ),
        rows=("delta",),
    ),
    "pac-bayes-sgd": BoundEntry(
        lambda c: posteriors.pacbayes_sgd_objective(_from_fields(posteriors.PacBayesSgdParams, c)),
        rows=("kl",),
    ),
}
