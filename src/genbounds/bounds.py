"""Closed-form generalization bounds as pure scalar computations.

Every bound returns a :class:`BoundResult` carrying the value, a breakdown
into named components, and a vacuity flag.  Components compose into the raw
value either by plain summation or through a recorded monotone transform
(``phi_beta_inverse`` or a binary-KL inversion), so each result can be
re-audited from its parts.

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

from .divergences import kl_binary_inverse_upper
from .errors import DomainError, ParameterError, _is_positive_integer
from .losses import LossModel, phi_beta_inverse, psi_of, psi_star_inverse

#: Tolerance within which components must recombine into the raw value.
COMPONENT_ATOL = 1e-12

_SUM = "sum"
_PHI_INVERSE = "phi_beta_inverse"
_KL_INVERSE = "kl_inverse"
_DELTA_INVERSE = "delta_inverse"


@dataclass(frozen=True)
class BoundRequest:
    """Scalar inputs shared by the bound computations.

    ``empirical_risk`` is the posterior-averaged empirical risk, ``kl`` the
    posterior-to-prior divergence (the +inf sentinel is allowed).  ``n`` must
    be an integer (numpy integers included, bool not) and is stored as an
    int.  ``delta`` above 1 is tolerated as a degenerate confidence request;
    operations clamp it to 1 and flag the result.
    """

    n: int
    delta: float
    empirical_risk: float = 0.0
    kl: float = 0.0
    beta: float | None = None
    model: LossModel = field(default_factory=LossModel.bounded_unit)

    def __post_init__(self) -> None:
        if not _is_positive_integer(self.n):
            raise ParameterError("n must be a positive integer")
        # A numpy integer would turn the bound arithmetic into numpy scalar arithmetic.
        object.__setattr__(self, "n", int(self.n))
        if not self.delta > 0:
            raise ParameterError("delta must be positive")
        if math.isnan(self.empirical_risk):
            raise ParameterError("empirical_risk must not be NaN")
        if not self.kl >= 0:
            raise ParameterError("kl must be nonnegative (inf allowed)")
        if self.beta is not None and not self.beta > 0:
            raise ParameterError("beta must be positive when given")


@dataclass(frozen=True)
class BoundResult:
    """A computed upper bound with its component breakdown.

    ``raw_value`` composes exactly from ``components`` via ``transform``;
    ``value`` equals ``raw_value`` unless the bound clamped it to 1.
    """

    value: float
    components: dict[str, float]
    vacuous: bool = False
    beta_used: float | None = None
    raw_value: float = math.nan
    transform: str = _SUM
    extras: dict[str, float] = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def recompose(self) -> float:
        """Recombine the components through the recorded transform."""
        return _compose(self.transform, self.components, self.beta_used)


def _compose(transform: str, components: dict[str, float], beta: float | None) -> float:
    """The raw value: the components' sum, phi_beta^-1 of it, or an inversion.

    An inversion is the largest x with Delta(empirical_risk, x) <= radius.
    """
    if transform == _SUM:
        return math.fsum(components.values())
    if transform == _PHI_INVERSE:
        assert beta is not None
        return phi_beta_inverse(beta, math.fsum(components.values()))
    if transform != _KL_INVERSE and not transform.startswith(_DELTA_INVERSE):
        raise ParameterError(f"no recomposition rule for transform {transform!r}")
    variant = transform.partition(":")[2]
    risk, radius = components["empirical_risk"], components["radius"]
    if variant == "quadratic":
        return risk + math.sqrt(radius / 2.0)
    if variant == "normalized":
        try:
            root = math.sqrt(radius**2 + 2.0 * radius * risk)
        except OverflowError:  # radius**2 exceeds a float; the factored root does not
            root = radius * math.sqrt(1.0 + 2.0 * risk / radius)
        return risk + radius + root
    return kl_binary_inverse_upper(risk, radius)


def _result(
    components: dict[str, float],
    transform: str = _SUM,
    *,
    beta_used: float | None = None,
    clamp: bool = False,
    unit_range: bool = False,
    flags: tuple[str, ...] = (),
    extras: dict[str, float] | None = None,
) -> BoundResult:
    """The result composed from ``components`` under the module's vacuity policy."""
    raw = _compose(transform, components, beta_used)
    inversion = transform not in (_SUM, _PHI_INVERSE)
    clamp = clamp or transform != _SUM
    over = raw >= 1.0 if inversion else raw > 1.0
    return BoundResult(
        value=1.0 if clamp and over else raw,
        components=components,
        vacuous=math.isinf(raw) or ((clamp or unit_range) and over),
        beta_used=beta_used,
        raw_value=raw,
        transform=transform,
        extras=extras or {},
        flags=flags,
    )


def _effective_delta(req: BoundRequest) -> tuple[float, tuple[str, ...]]:
    if req.delta > 1.0:
        return 1.0, ("delta_clamped_to_1",)
    return req.delta, ()


def _require_nonnegative(name: str, value: float, n: int) -> None:
    """``value`` nonnegative (inf allowed) and ``n`` a positive integer; NaN fails both."""
    if not value >= 0:
        raise DomainError(f"{name} must be nonnegative")
    if not _is_positive_integer(n):
        raise DomainError("n must be a positive integer")


def _require_beta(req: BoundRequest) -> float:
    if req.beta is None:
        raise ParameterError("this bound requires beta to be set on the request")
    return req.beta


def _require_unit_model(req: BoundRequest) -> None:
    if not req.model.is_unit_range:
        raise ParameterError("this bound applies only to [0, 1]-valued losses")
    if not 0.0 <= req.empirical_risk <= 1.0:
        raise DomainError("empirical_risk must lie in [0, 1] for a [0, 1]-valued loss")


def _iei_terms(req: BoundRequest, beta: float) -> tuple[float, float, tuple[str, ...]]:
    """The IEI terms kl / (n beta) and log(1/delta) / (n beta), with the flags of delta."""
    delta, flags = _effective_delta(req)
    return req.kl / (req.n * beta), math.log(1.0 / delta) / (req.n * beta), flags


# ---------------------------------------------------------------------------
# Bounds on the annealed risk and the generalization gap
# ---------------------------------------------------------------------------


def zhang_high_prob(req: BoundRequest) -> BoundResult:
    """High-probability bound on the posterior-averaged annealed risk.

    value = empirical_risk + (kl + log(1/delta)) / (n beta), split into the
    information complexity and the confidence penalty.
    """
    beta = _require_beta(req)
    complexity, confidence, flags = _iei_terms(req, beta)
    components = {
        "information_complexity": req.empirical_risk + complexity,
        "confidence": confidence,
    }
    return _result(components, beta_used=beta, unit_range=req.model.is_unit_range, flags=flags)


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


def zhang_gen_expectation(avg_kl: float, n: int, model: LossModel) -> float:
    """Expected generalization gap bound psi*^-1(avg_kl / n).

    ``avg_kl`` is the sample-averaged posterior-to-prior KL, which equals the
    input-output mutual information under the oracle prior.
    """
    _require_nonnegative("avg_kl", avg_kl, n)
    return psi_star_inverse(model, avg_kl / n)


def xu_raginsky(mi: float, n: int, sigma: float) -> float:
    """Expected-gap bound sqrt(2 sigma^2 mi / n) for sigma-sub-Gaussian losses."""
    _require_nonnegative("mi", mi, n)
    if not sigma > 0:
        raise DomainError("sigma must be positive")
    return math.sqrt(2.0 * sigma**2 * mi / n)


def subgamma_mi(mi: float, n: int, sigma: float, c: float) -> float:
    """Expected-gap bound sqrt(2 sigma^2 mi / n) + c mi / n for sub-gamma losses."""
    if not c >= 0:
        raise DomainError("c must be nonnegative")
    return xu_raginsky(mi, n, sigma) + c * mi / n


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
    sigma = _sub_gaussian_scale(req.model)
    delta, flags = _effective_delta(req)
    log_alpha = math.log(alpha)
    k_const = max(math.log(v * sigma / math.sqrt(2.0 * alpha)) / log_alpha, 0.0) + math.e
    grid_count = math.log(math.sqrt(req.n)) / log_alpha + k_const
    penalty = req.kl + math.log(grid_count / delta)
    if math.isinf(penalty):
        beta = v
    else:
        beta = min(math.sqrt(2.0 * alpha * penalty / (req.n * sigma**2)), v)
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


def catoni_linear(req: BoundRequest) -> BoundResult:
    """Linearized risk bound with prefactor beta / (1 - e^-beta)."""
    beta = _require_beta(req)
    return _linearized(req, beta, beta / -math.expm1(-beta))


def mcallester_linear(req: BoundRequest) -> BoundResult:
    """Linearized risk bound with prefactor 1 / (1 - beta/2); needs beta < 2."""
    beta = _require_beta(req)
    if beta >= 2.0:
        raise ParameterError("the linearized prefactor requires beta < 2")
    return _linearized(req, beta, 1.0 / (1.0 - beta / 2.0))


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
    if not radius >= 0.0:
        raise ParameterError(f"moment_bound {moment_bound} gives the negative radius {radius}")
    components = {"empirical_risk": req.empirical_risk, "radius": radius}
    return _result(components, f"{_DELTA_INVERSE}:{delta_fn}", flags=flags)


# ---------------------------------------------------------------------------
# Supersample (CMI) bounds and identification limits
# ---------------------------------------------------------------------------


def cmi_pac_high_prob(req: BoundRequest) -> BoundResult:
    """High-probability supersample gap bound (kl + log(1/delta)) / (n beta) + beta / 2."""
    beta = _require_beta(req)
    if not req.model.is_unit_range:
        raise ParameterError("the supersample bound applies only to [0, 1]-valued losses")
    complexity, confidence, flags = _iei_terms(req, beta)
    components = {"complexity": complexity, "confidence": confidence, "hoeffding_slack": beta / 2.0}
    return _result(components, beta_used=beta, clamp=True, flags=flags)


def cmi_expectation(avg_kl_or_cmi: float, n: int) -> float:
    """Expected supersample gap bound sqrt(2 avg_kl / n).

    Under the oracle prior the argument is the conditional mutual information
    between the output and the selector bits.
    """
    _require_nonnegative("avg_kl_or_cmi", avg_kl_or_cmi, n)
    return math.sqrt(2.0 * avg_kl_or_cmi / n)


def fano_identification_lb(cmi: float, n: int) -> float:
    """Fano lower bound on the error of identifying the selector bits.

    value = max(0, 1 - (cmi + log 2) / (n log 2)).
    """
    _require_nonnegative("cmi", cmi, n)
    return max(0.0, 1.0 - (cmi + math.log(2.0)) / (n * math.log(2.0)))


# ---------------------------------------------------------------------------
# Bounds against differentially private data-dependent priors
# ---------------------------------------------------------------------------


def dp_prior_penalty(n: int, delta: float, epsilon: float) -> float:
    """Privacy-adjusted confidence penalty log(2/delta) + n eps^2/2 + eps sqrt(n/2 log(4/delta))."""
    _require_nonnegative("epsilon", epsilon, n)
    if not 0 < delta <= 1:
        raise DomainError("delta must lie in (0, 1]")
    return (
        math.log(2.0 / delta)
        + n * epsilon**2 / 2.0
        + epsilon * math.sqrt(n / 2.0 * math.log(4.0 / delta))
    )


def dp_prior_high_prob(req: BoundRequest, epsilon: float) -> BoundResult:
    """Annealed-risk bound against an epsilon-differentially-private prior.

    ``req.kl`` is the divergence to the data-dependent prior; the ordinary
    confidence term is replaced by :func:`dp_prior_penalty`.
    """
    beta = _require_beta(req)
    delta, flags = _effective_delta(req)
    penalty = dp_prior_penalty(req.n, delta, epsilon)
    components = {
        "empirical_risk": req.empirical_risk,
        "complexity": req.kl / (req.n * beta),
        "privacy_penalty": penalty / (req.n * beta),
    }
    return _result(components, beta_used=beta, unit_range=req.model.is_unit_range, flags=flags)


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
