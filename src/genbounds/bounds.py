"""Closed-form generalization bounds, each written once over rows of (empirical risk, KL).

Every bound that takes a :class:`BoundRequest` is a closed form in the
posterior-averaged empirical risk and the KL at a fixed n, delta, beta and
loss model.  A request carries one value of each or rows of them, so a
caller with many (risk, KL) pairs makes one call.  The same numpy code
computes both: a float request is the one-row case, its result holds Python
floats, and each row of a row result equals to the bit what a one-row call
gives.  Arithmetic that overflows gives inf without a warning, as Python
float arithmetic does.

Every bound returns a :class:`BoundResult` carrying the value, a breakdown
into named components, and a vacuity flag.  Components compose into the raw
value either by summation in their stated order or through a recorded
monotone transform (``phi_beta_inverse`` or a binary-KL inversion), so each
result can be re-audited from its parts.

Vacuity policy, applied once by :func:`_result`: a raw value is *over* above
1, or for a distance inversion (which saturates at 1) at 1.  A result is
vacuous when its raw value is infinite, or when it is over and the bound
clamps or is stated for [0, 1]-valued losses; a clamping bound then reports 1.
Bounds only for [0, 1]-valued losses clamp, as do phi_beta^-1 and inversions.

The inverse temperature beta is always an input fixed before any data is
seen; :func:`union_bound_beta` is the only operation that optimizes beta, and
it pays the corresponding union-bound penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .divergences import kl_binary_inverse_upper
from .errors import DomainError, ParameterError, ShapeError, _is_count, _is_positive_integer
from .losses import LossModel, _sqrt, phi_beta_inverse, psi_of, psi_star_inverse

#: Tolerance within which components must recombine into the raw value.
COMPONENT_ATOL = 1e-12

_SUM = "sum"
_PHI_INVERSE = "phi_beta_inverse"
_KL_INVERSE = "kl_inverse"
_DELTA_INVERSE = "delta_inverse"

#: Row arithmetic runs as float arithmetic does, without numpy warnings: an overflow gives inf,
#: and a branch that a row does not take may divide by zero or give NaN.
_on_rows = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@dataclass(frozen=True, eq=False)
class BoundRequest:
    """The inputs shared by the bound computations: one (risk, KL) pair or rows of them.

    ``empirical_risk`` is the posterior-averaged empirical risk, ``kl`` the
    posterior-to-prior divergence (the +inf sentinel is allowed).  Each is a
    float, or 1-D rows; a float is broadcast against rows, and both are
    stored as float64 arrays of one length when either is rows, as Python
    floats otherwise.  n, delta, beta and the model are checked once, the
    rows by array checks.  ``n`` must be an integer (numpy integers included,
    bool not) and is stored as an int.  ``delta`` above 1 is tolerated as a
    degenerate confidence request; operations clamp it to 1 and flag the
    result.  ``beta``, when given, must be positive and finite.
    """

    n: int
    delta: float
    empirical_risk: float | np.ndarray = 0.0
    kl: float | np.ndarray = 0.0
    beta: float | None = None
    model: LossModel = field(default_factory=LossModel.bounded_unit)

    def __post_init__(self) -> None:
        if not _is_positive_integer(self.n):
            raise ParameterError("n must be a positive integer")
        # A numpy integer would turn the bound arithmetic into numpy scalar arithmetic.
        object.__setattr__(self, "n", int(self.n))
        if not self.delta > 0:
            raise ParameterError("delta must be positive")
        if self.beta is not None and not self.beta > 0:
            raise ParameterError("beta must be positive when given")
        if self.beta == math.inf:
            raise ParameterError("beta must be finite when given")
        risk, kl = np.asarray(self.empirical_risk, dtype=float), np.asarray(self.kl, dtype=float)
        if risk.shape != kl.shape and not (risk.ndim and kl.ndim):
            risk, kl = (np.full(kl.shape, risk), kl) if kl.ndim else (risk, np.full(risk.shape, kl))
        if risk.shape != kl.shape or risk.ndim > 1:
            raise ShapeError("empirical_risk and kl must be floats or 1-D rows of one length")
        # The ufuncs' own reductions: the array methods' wrappers cost more than short rows' checks.
        if np.logical_or.reduce(np.isnan(risk), axis=None):
            raise ParameterError("empirical_risk must not be NaN")
        if not np.logical_and.reduce(kl >= 0, axis=None):
            raise ParameterError("kl must be nonnegative (inf allowed)")
        object.__setattr__(self, "empirical_risk", risk if risk.ndim else float(risk))
        object.__setattr__(self, "kl", kl if kl.ndim else float(kl))


@dataclass(frozen=True, eq=False)
class BoundResult:
    """A computed upper bound with its component breakdown.

    ``raw_value`` composes exactly from ``components`` via ``transform``;
    ``value`` equals ``raw_value`` unless the bound clamped it to 1.  For a
    row request ``value``, ``raw_value``, ``vacuous`` and every component are
    arrays with one entry per row, and so is ``beta_used`` where the bound
    picks beta per row; otherwise they are Python scalars.
    """

    value: float | np.ndarray
    components: dict[str, float | np.ndarray]
    vacuous: bool | np.ndarray = False
    beta_used: float | np.ndarray | None = None
    raw_value: float | np.ndarray = math.nan
    transform: str = _SUM
    extras: dict[str, float] = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    @_on_rows
    def recompose(self) -> float | np.ndarray:
        """Recombine the components through the recorded transform."""
        raw = _compose(self.transform, self.components, self.beta_used)
        return raw if getattr(raw, "ndim", 0) else float(raw)

    def rows(self) -> list[BoundResult]:
        """The rows of a row result, each the result its one-row request gives."""
        size = len(self.value)
        fields = [
            values.tolist() if isinstance(values, np.ndarray) else [values] * size
            for values in (self.value, self.vacuous, self.beta_used, self.raw_value)
        ]
        columns = {name: values.tolist() for name, values in self.components.items()}
        return [
            BoundResult(value, {name: column[i] for name, column in columns.items()}, vacuous, beta,
                        raw, self.transform, dict(self.extras), self.flags)
            for i, (value, vacuous, beta, raw) in enumerate(zip(*fields))
        ]


def _compose(transform: str, components: dict, beta) -> float | np.ndarray:
    """The raw value: the components' sum in their stated order, phi_beta^-1 of it, or an inversion.

    An inversion is the largest x with Delta(empirical_risk, x) <= radius.
    Rows are composed under :data:`_on_rows`, which the callers enter.
    """
    if transform in (_SUM, _PHI_INVERSE):
        terms = iter(components.values())
        total = next(terms)
        for term in terms:
            total = total + term
        return total if transform == _SUM else phi_beta_inverse(beta, total)
    if transform != _KL_INVERSE and not transform.startswith(_DELTA_INVERSE):
        raise ParameterError(f"no recomposition rule for transform {transform!r}")
    variant = transform.partition(":")[2]
    risk = np.asarray(components["empirical_risk"], dtype=float)
    radius = np.asarray(components["radius"], dtype=float)
    if variant == "quadratic":
        return risk + np.sqrt(radius / 2.0)
    if variant == "normalized":
        square = radius * radius
        # Where the square overflows, an infinite radius included, the factored root does not.
        root = np.where(
            square < math.inf,
            np.sqrt(square + 2.0 * radius * risk),
            radius * np.sqrt(1.0 + 2.0 * risk / radius),
        )
        return risk + radius + root
    return kl_binary_inverse_upper(risk, radius)


def _result(
    components: dict,
    transform: str = _SUM,
    *,
    beta_used=None,
    clamp: bool = False,
    unit_range: bool = False,
    flags: tuple[str, ...] = (),
    extras: dict[str, float] | None = None,
) -> BoundResult:
    """The result composed from ``components`` under the module's vacuity policy.

    Rows in any component make a row result, every component broadcast to
    the rows; otherwise the result holds Python scalars.
    """
    raw = _compose(transform, components, beta_used)
    inversion = transform not in (_SUM, _PHI_INVERSE)
    clamp = clamp or transform != _SUM
    over = raw >= 1.0 if inversion else raw > 1.0
    vacuous = (abs(raw) == math.inf) | ((clamp or unit_range) & over)
    # The minimum with 1 is 1 exactly where the raw value is over.
    value = np.minimum(raw, 1.0) if clamp else raw
    if getattr(raw, "ndim", 0):
        components = {
            name: c if getattr(c, "ndim", 0) else np.full(raw.shape, c)
            for name, c in components.items()
        }
    else:
        raw, value, vacuous = float(raw), float(value), bool(vacuous)
        components = {name: _scalar(c) for name, c in components.items()}
        beta_used = _scalar(beta_used)
    return BoundResult(
        value=value,
        components=components,
        vacuous=vacuous,
        beta_used=beta_used,
        raw_value=raw,
        transform=transform,
        extras=extras or {},
        flags=flags,
    )


def _scalar(value):
    """A numpy scalar as the Python scalar it holds; anything else as it is."""
    return value.item() if isinstance(value, (np.generic, np.ndarray)) else value


def _effective_delta(req: BoundRequest) -> tuple[float, tuple[str, ...]]:
    if req.delta > 1.0:
        return 1.0, ("delta_clamped_to_1",)
    return req.delta, ()


def _require_nonnegative(name: str, value: float, n) -> None:
    """``value`` nonnegative (inf allowed) and ``n`` a positive integer or a row of them; NaN fails both."""
    if not value >= 0:
        raise DomainError(f"{name} must be nonnegative")
    if not _is_count(n):
        raise DomainError("n must be a positive integer")


def _require_beta(req: BoundRequest) -> float:
    if req.beta is None:
        raise ParameterError("this bound requires beta to be set on the request")
    return req.beta


def _require_unit_model(req: BoundRequest) -> None:
    if not req.model.is_unit_range:
        raise ParameterError("this bound applies only to [0, 1]-valued losses")
    risk = req.empirical_risk
    if not np.logical_and.reduce((0.0 <= risk) & (risk <= 1.0), axis=None):
        raise DomainError("empirical_risk must lie in [0, 1] for a [0, 1]-valued loss")


def _iei_terms(req: BoundRequest, beta: float) -> tuple[float, float, tuple[str, ...]]:
    """The IEI terms kl / (n beta) and log(1/delta) / (n beta), with the flags of delta."""
    delta, flags = _effective_delta(req)
    return req.kl / (req.n * beta), math.log(1.0 / delta) / (req.n * beta), flags


# ---------------------------------------------------------------------------
# Bounds on the annealed risk and the generalization gap
# ---------------------------------------------------------------------------


@_on_rows
def zhang_high_prob(req: BoundRequest) -> BoundResult:
    """High-probability bound on the posterior-averaged annealed risk.

    value = empirical_risk + (kl + log(1/delta)) / (n beta), split into the
    information complexity and the confidence penalty; a [0, 1] model needs a risk in [0, 1].
    """
    beta = _require_beta(req)
    if req.model.is_unit_range:
        _require_unit_model(req)
    complexity, confidence, flags = _iei_terms(req, beta)
    components = {
        "information_complexity": req.empirical_risk + complexity,
        "confidence": confidence,
    }
    return _result(components, beta_used=beta, unit_range=req.model.is_unit_range, flags=flags)


@_on_rows
def zhang_gen_high_prob(req: BoundRequest) -> BoundResult:
    """High-probability bound on the posterior-averaged generalization gap.

    value = (kl + log(1/delta)) / (n beta) + psi(beta) / beta for the
    request's loss model.
    """
    beta = _require_beta(req)
    slack = psi_of(req.model, beta) / beta
    complexity, confidence, flags = _iei_terms(req, beta)
    components = {"complexity": complexity, "confidence": confidence, "cgf_slack": slack}
    return _result(components, beta_used=beta, unit_range=req.model.is_unit_range, flags=flags)


@_on_rows
def zhang_gen_expectation(avg_kl: float, n, model: LossModel) -> float | np.ndarray:
    """Expected generalization gap bound psi*^-1(avg_kl / n).

    ``avg_kl`` is the sample-averaged posterior-to-prior KL, which equals the
    input-output mutual information under the oracle prior.  Like every
    expectation bound here, it takes ``n`` as a positive integer, giving a
    float, or as a 1-D row of them, giving a row whose entries equal the
    integer calls bit for bit.
    """
    _require_nonnegative("avg_kl", avg_kl, n)
    return psi_star_inverse(model, avg_kl / n)


@_on_rows
def xu_raginsky(mi: float, n, sigma: float) -> float | np.ndarray:
    """Expected-gap bound sqrt(2 sigma^2 mi / n) for sigma-sub-Gaussian losses; ``n`` may be a row."""
    _require_nonnegative("mi", mi, n)
    if not 0 < sigma < math.inf:
        raise DomainError("sigma must be a positive finite real")
    return _sqrt(2.0 * sigma**2 * mi / n)


@_on_rows
def subgamma_mi(mi: float, n, sigma: float, c: float) -> float | np.ndarray:
    """Expected-gap bound sqrt(2 sigma^2 mi / n) + c mi / n for sub-gamma losses; ``n`` may be a row."""
    if not 0 <= c < math.inf:  # c = inf would give inf * 0 = NaN at mi = 0
        raise DomainError("c must be a nonnegative finite real")
    return xu_raginsky(mi, n, sigma) + c * mi / n


@_on_rows
def subgamma_pacbayes(req: BoundRequest) -> BoundResult:
    """High-probability gap bound for sub-gamma losses with c < 1 at beta = 1.

    value = (kl + log(1/delta)) / n + sigma^2 / (2 (1 - c)).
    """
    if req.model.family != "sub_gamma":
        raise ParameterError("requires a sub-gamma loss model")
    if req.model.c >= 1.0:
        raise ParameterError("requires sub-gamma tail parameter c < 1")
    complexity, confidence, flags = _iei_terms(req, 1.0)
    components = {
        "complexity": complexity,
        "confidence": confidence,
        "variance_slack": req.model.sigma**2 / (2.0 * (1.0 - req.model.c)),
    }
    return _result(components, beta_used=1.0, flags=flags)


def _sub_gaussian_scale(model: LossModel) -> float:
    if model.family == "sub_gaussian":
        return model.sigma
    if model.is_unit_range:
        return 0.5
    raise ParameterError("requires a sub-Gaussian (or [0, 1]-valued) loss model")


@_on_rows
def union_bound_beta(req: BoundRequest, alpha: float, v: float) -> BoundResult:
    """Gap bound optimized over beta in (0, v] at a union-bound price.

    With K = max(log_alpha(v sigma / sqrt(2 alpha)), 0) + e and
    J = kl + log((log_alpha sqrt(n) + K) / delta), minimizes
    (alpha / (n beta)) J + beta sigma^2 / 2; the unconstrained minimizer
    sqrt(2 alpha J / (n sigma^2)) is clipped to v.
    """
    if not alpha > 1:
        raise ParameterError("alpha must exceed 1")
    if not v > 0:
        raise ParameterError("v must be positive")
    if math.inf in (alpha, v):
        raise ParameterError("alpha and v must be finite")
    sigma = _sub_gaussian_scale(req.model)
    delta, flags = _effective_delta(req)
    log_alpha = math.log(alpha)
    k_const = max(math.log(v * sigma / math.sqrt(2.0 * alpha)) / log_alpha, 0.0) + math.e
    grid_count = math.log(math.sqrt(req.n)) / log_alpha + k_const
    penalty = req.kl + math.log(grid_count / delta)
    beta = np.minimum(np.sqrt(2.0 * alpha * penalty / (req.n * sigma**2)), v)
    components = {
        "complexity": alpha * penalty / (req.n * beta),
        "cgf_slack": beta * sigma**2 / 2.0,
    }
    return _result(
        components,
        beta_used=beta,
        unit_range=req.model.is_unit_range,
        flags=flags,
        extras={"union_grid_allowance": grid_count},
    )


# ---------------------------------------------------------------------------
# Classical PAC-Bayesian bounds for [0, 1]-valued losses
# ---------------------------------------------------------------------------


@_on_rows
def catoni_bound(req: BoundRequest) -> BoundResult:
    """Risk bound phi_beta^-1(empirical_risk + (kl + log(1/delta)) / (n beta))."""
    beta = _require_beta(req)
    _require_unit_model(req)
    complexity, confidence, flags = _iei_terms(req, beta)
    components = {
        "empirical_risk": req.empirical_risk,
        "complexity": complexity,
        "confidence": confidence,
    }
    return _result(components, _PHI_INVERSE, beta_used=beta, flags=flags)


def _linearized(req: BoundRequest, beta: float, prefactor: float) -> BoundResult:
    """prefactor * (empirical_risk + (kl + log(1/delta)) / (n beta)), clamped to 1."""
    _require_unit_model(req)
    delta, flags = _effective_delta(req)
    components = {
        "empirical_risk": prefactor * req.empirical_risk,
        "complexity": prefactor * req.kl / (req.n * beta),
        "confidence": prefactor * math.log(1.0 / delta) / (req.n * beta),
    }
    return _result(
        components, beta_used=beta, clamp=True, flags=flags, extras={"prefactor": prefactor}
    )


@_on_rows
def catoni_linear(req: BoundRequest) -> BoundResult:
    """Linearized risk bound with prefactor beta / (1 - e^-beta)."""
    beta = _require_beta(req)
    return _linearized(req, beta, beta / -math.expm1(-beta))


@_on_rows
def mcallester_linear(req: BoundRequest) -> BoundResult:
    """Linearized risk bound with prefactor 1 / (1 - beta/2); needs beta < 2."""
    beta = _require_beta(req)
    if beta >= 2.0:
        raise ParameterError("the linearized prefactor requires beta < 2")
    return _linearized(req, beta, 1.0 / (1.0 - beta / 2.0))


@_on_rows
def pac_bayes_kl(req: BoundRequest) -> BoundResult:
    """Risk bound from inverting kl(empirical_risk || x) <= (kl + log(2 sqrt(n)/delta)) / n.

    Valid for n >= 8, where the 2 sqrt(n) moment constant applies.
    """
    if req.n < 8:
        raise ParameterError("the 2 sqrt(n) moment constant requires n >= 8")
    _require_unit_model(req)
    delta, flags = _effective_delta(req)
    radius = (req.kl + math.log(2.0 * math.sqrt(req.n) / delta)) / req.n
    components = {"empirical_risk": req.empirical_risk, "radius": radius}
    return _result(components, _KL_INVERSE, flags=flags)


_DELTA_VARIANTS = ("kl", "quadratic", "normalized")


@_on_rows
def delta_bound(req: BoundRequest, delta_fn: str, moment_bound: float) -> BoundResult:
    """Risk bound from inverting a convex distance Delta(empirical_risk, x) <= radius.

    ``moment_bound`` is the caller-supplied log exponential-moment constant
    (log(2 sqrt(n)) for the kl and quadratic variants, via Pinsker); the
    radius is (kl + log(1/delta) + moment_bound) / n and must be nonnegative.
    ``quadratic`` inverts 2 (y - x)^2, ``normalized`` inverts
    (y - x)^2 / (2x), and ``kl`` inverts the binary KL.
    """
    if delta_fn not in _DELTA_VARIANTS:
        raise ParameterError(f"unknown delta variant {delta_fn!r}; pick one of {_DELTA_VARIANTS}")
    _require_unit_model(req)
    delta, flags = _effective_delta(req)
    radius = (req.kl + math.log(1.0 / delta) + moment_bound) / req.n
    if not np.logical_and.reduce(radius >= 0.0, axis=None):
        smallest = np.min(radius)
        raise ParameterError(f"moment_bound {moment_bound} gives the negative radius {smallest}")
    components = {"empirical_risk": req.empirical_risk, "radius": radius}
    return _result(components, f"{_DELTA_INVERSE}:{delta_fn}", flags=flags)


# ---------------------------------------------------------------------------
# Supersample (CMI) bounds and identification limits
# ---------------------------------------------------------------------------


@_on_rows
def cmi_pac_high_prob(req: BoundRequest) -> BoundResult:
    """High-probability supersample gap bound (kl + log(1/delta)) / (n beta) + beta / 2."""
    beta = _require_beta(req)
    if not req.model.is_unit_range:
        raise ParameterError("the supersample bound applies only to [0, 1]-valued losses")
    complexity, confidence, flags = _iei_terms(req, beta)
    components = {"complexity": complexity, "confidence": confidence, "hoeffding_slack": beta / 2.0}
    return _result(components, beta_used=beta, clamp=True, flags=flags)


@_on_rows
def cmi_expectation(avg_kl_or_cmi: float, n) -> float | np.ndarray:
    """Expected supersample gap bound sqrt(2 avg_kl / n); ``n`` may be a row.

    Under the oracle prior the argument is the conditional mutual information
    between the output and the selector bits.
    """
    _require_nonnegative("avg_kl_or_cmi", avg_kl_or_cmi, n)
    return _sqrt(2.0 * avg_kl_or_cmi / n)


@_on_rows
def fano_identification_lb(cmi: float, n) -> float | np.ndarray:
    """Fano lower bound on the error of identifying the selector bits; ``n`` may be a row.

    value = max(0, 1 - (cmi + log 2) / (n log 2)).
    """
    _require_nonnegative("cmi", cmi, n)
    value = 1.0 - (cmi + math.log(2.0)) / (n * math.log(2.0))
    return np.maximum(value, 0.0) if isinstance(value, np.ndarray) else max(0.0, value)


# ---------------------------------------------------------------------------
# Bounds against differentially private data-dependent priors
# ---------------------------------------------------------------------------


@_on_rows
def dp_prior_penalty(n, delta: float, epsilon: float) -> float | np.ndarray:
    """Privacy-adjusted confidence penalty log(2/delta) + n eps^2/2 + eps sqrt(n/2 log(4/delta)).

    ``n`` may be a row, as for the expectation bounds.
    """
    _require_nonnegative("epsilon", epsilon, n)
    if not 0 < delta <= 1:
        raise DomainError("delta must lie in (0, 1]")
    return (
        math.log(2.0 / delta)
        + n * epsilon**2 / 2.0
        + epsilon * _sqrt(n / 2.0 * math.log(4.0 / delta))
    )


@_on_rows
def dp_prior_high_prob(req: BoundRequest, epsilon: float) -> BoundResult:
    """Annealed-risk bound against an epsilon-differentially-private prior.

    ``req.kl`` is the divergence to the data-dependent prior; the ordinary
    confidence term is replaced by :func:`dp_prior_penalty`; a [0, 1] model needs a risk in [0, 1].
    """
    beta = _require_beta(req)
    if req.model.is_unit_range:
        _require_unit_model(req)
    delta, flags = _effective_delta(req)
    penalty = dp_prior_penalty(req.n, delta, epsilon)
    components = {
        "empirical_risk": req.empirical_risk,
        "complexity": req.kl / (req.n * beta),
        "privacy_penalty": penalty / (req.n * beta),
    }
    return _result(components, beta_used=beta, unit_range=req.model.is_unit_range, flags=flags)


@_on_rows
def dp_prior_gen_bound(req: BoundRequest, epsilon: float) -> BoundResult:
    """Gap bound against a private prior: adds psi(beta)/beta to the penalty terms."""
    beta = _require_beta(req)
    delta, flags = _effective_delta(req)
    penalty = dp_prior_penalty(req.n, delta, epsilon)
    components = {
        "complexity": req.kl / (req.n * beta),
        "privacy_penalty": penalty / (req.n * beta),
        "cgf_slack": psi_of(req.model, beta) / beta,
    }
    return _result(components, beta_used=beta, unit_range=req.model.is_unit_range, flags=flags)
