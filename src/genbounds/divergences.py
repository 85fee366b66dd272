"""Exact divergences and information measures on finite distributions and Gaussians.

Absolute-continuity failures are data, not crashes: every divergence returns
``math.inf`` when the reference measure misses mass, and the sentinel
propagates through downstream bound arithmetic, rendering the bound vacuous.
All quantities are in nats.

Every KL here, and every information measure as a mass-weighted sum of row
KLs to a reference row, runs on one row kernel.  In a row, a zero entry adds
exactly 0 and a positive entry against a zero of the reference gives ``inf``.

Every probability table, and every row of a block of distributions, passes
one check, once: its smallest entry must be >= 0, which refuses negative
entries, NaN and -inf; its largest must not be +inf; and its total must be 1
within ``PROB_MASS_ATOL``.  Finite entries whose total overflows, such as
[1e308, 1e308], are refused as summing to inf, without a floating-point
warning.  A 1-D row of at most ``_SHORT_ROW`` (64) entries, such as one
posterior or a small table read flat, is first read as Python floats, since
a call per sample pays about 1 µs for each numpy reduction: it passes if its
smallest entry is >= 0 and its Python total is within a slightly tighter
bound of 1, which makes any row it passes one that the numpy check passes
too.  Every other row, and every row the Python read does not pass, takes
the numpy check, so each verdict and each refusal's message is the numpy
check's.  A rule called once per sample builds one :class:`DiscreteDist` per
call, in one constructor frame that copies the probabilities, checks their
shape and runs this check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, _is_count, _is_positive_integer

#: Tolerance on total probability mass for distribution-like inputs.
PROB_MASS_ATOL = 1e-12

#: The longest 1-D row that the one-sample primitives read as Python floats.
#: Up to it ``tolist`` with ``min``, ``max`` or ``sum`` costs less than numpy's
#: reductions, about 1 µs each; the two cross between about 64 and 128 entries.
_SHORT_ROW = 64

#: The mass bound on a short row's Python total.  Python's ``sum`` adds in
#: its own order (one after another to 3.11, compensated from 3.12), and from
#: 8 entries up numpy adds pairwise, but any order of at most 64 nonnegative
#: values errs by less than 64 * 2^-53 of the total, so the two totals differ
#: by under 1.5e-14.  A Python total this close to 1 therefore has a numpy
#: total within PROB_MASS_ATOL, and the verdict is numpy's on every row.
_SHORT_ROW_ATOL = PROB_MASS_ATOL - 1e-13


def _probabilities(values, ndim: int) -> np.ndarray:
    """``values`` as a float array, checked to be a nonempty ``ndim``-D probability table."""
    table = np.asarray(values, dtype=float)
    if table.ndim != ndim or table.size == 0:
        raise ShapeError(f"expected a nonempty {ndim}-D probability table; got shape {table.shape}")
    _check_rows(table if ndim == 1 else table.reshape(-1))
    return table


def _check_rows(rows: np.ndarray) -> None:
    """Check that each row (along the last axis) of a float array is a probability vector."""
    # A short row is read as Python floats, which cost less than three numpy
    # reductions.  A NaN or an infinite entry, or a finite total that
    # overflows, makes the Python total NaN or inf, and a row it does not
    # accept goes on to the numpy check, which decides and words the refusal.
    if rows.ndim == 1 and 0 < rows.size <= _SHORT_ROW:
        values = rows.tolist()
        if min(values) >= 0 and abs(sum(values) - 1.0) <= _SHORT_ROW_ATOL:
            return
    # The ufuncs' own reductions: the array methods' wrappers cost more than the work on short rows.
    peak = np.maximum.reduce(rows, axis=None)
    if not np.minimum.reduce(rows, axis=None) >= 0 or peak == math.inf:
        raise DomainError("probabilities must be finite and nonnegative")
    # An entry above 1 already makes the mass wrong, and only such entries can
    # overflow a total, so the valid path sums without an errstate block.
    if peak <= 1.0 + PROB_MASS_ATOL:
        deviation = abs(np.add.reduce(rows, axis=-1) - 1.0)  # a scalar for one row
        if (deviation if rows.ndim == 1 else deviation.max()) <= PROB_MASS_ATOL:
            return
    with np.errstate(over="ignore"):
        totals = np.atleast_1d(rows.sum(axis=-1))
    total = totals[np.argmax(np.abs(totals - 1.0) > PROB_MASS_ATOL)]
    raise DomainError(f"probabilities sum to {total}, not 1")


def _normalized(weights) -> np.ndarray:
    """Nonnegative weights divided by their total, which must be positive.

    Finite weights whose total overflows, such as [1e308, 1e308], are first
    divided by the largest; a finite total divides the weights as they are.
    """
    w = np.asarray(weights, dtype=float)
    with np.errstate(over="ignore"):
        total = w.sum()
    if total == math.inf:
        if not np.isfinite(w).all():
            raise DomainError("weights must be finite")
        w = w / w.max()
        total = w.sum()
    if not total > 0:
        raise DomainError("weights must have positive total mass")
    return w / total


def _floored_log(q: np.ndarray) -> np.ndarray:
    """log(max(q, 1e-300)) of each entry, and -inf where q is 0: the prior's log in a Gibbs logit."""
    log_q = np.log(np.maximum(q, 1e-300))
    log_q[q == 0] = -np.inf
    return log_q


@dataclass(frozen=True, eq=False, init=False)
class DiscreteDist:
    """A probability vector over a finite index set, immutable.

    ``probs`` is a read-only copy of the given probabilities, so the caller's
    array stays writable and unchanged, and two distributions with equal
    probabilities are equal and hash alike.  The constructor is one frame:
    it copies, checks the shape and runs :func:`_check_rows` once, with the
    refusals of :func:`_probabilities`; a rule called once per sample builds
    one distribution per call.  The floored log of :func:`_floored_log`,
    which every Gibbs measure against this distribution reads, is computed
    on first use and kept.
    """

    probs: np.ndarray

    def __init__(self, probs) -> None:
        table = np.array(probs, dtype=float)
        if table.ndim != 1 or table.size == 0:
            raise ShapeError(f"expected a nonempty 1-D probability table; got shape {table.shape}")
        _check_rows(table)
        table.setflags(write=False)
        object.__setattr__(self, "probs", table)

    def __len__(self) -> int:
        return self.probs.size

    def __eq__(self, other):
        if not isinstance(other, DiscreteDist):
            return NotImplemented
        return np.array_equal(self.probs, other.probs)

    def __hash__(self) -> int:
        # Adding 0.0 turns a -0.0 entry into 0.0, which it equals.
        return hash((self.probs + 0.0).tobytes())

    def __reduce__(self):
        # Pickling and copying rebuild through the constructor, so a copy's probs are read-only too.
        return DiscreteDist, (self.probs,)

    @functools.cached_property
    def _log_probs(self) -> np.ndarray:
        log_q = _floored_log(self.probs)
        log_q.setflags(write=False)
        return log_q

    @classmethod
    def uniform(cls, size: int) -> "DiscreteDist":
        if not _is_positive_integer(size):
            raise DomainError("size must be a positive integer")
        return cls(np.full(size, 1.0 / size))

    @classmethod
    def from_weights(cls, weights) -> "DiscreteDist":
        return cls(_normalized(weights))


@dataclass(frozen=True, eq=False)
class JointTable:
    """A joint probability table p(s, w) over finite sample and hypothesis indices.

    ``probs`` is the caller's array, which stays writable, so a table equals
    and hashes as itself only.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _probabilities(self.probs, 2))

    @classmethod
    def from_weights(cls, weights) -> "JointTable":
        return cls(_normalized(weights))

    @property
    def num_hypotheses(self) -> int:
        return self.probs.shape[1]

    def sample_marginal(self) -> DiscreteDist:
        return DiscreteDist.from_weights(self.probs.sum(axis=1))

    def hypothesis_marginal(self) -> DiscreteDist:
        return DiscreteDist.from_weights(self.probs.sum(axis=0))


@dataclass(frozen=True, eq=False)
class GaussianKLInputs:
    """Spectral description of KL(N(w_P, H^-1) || N(w_Q, I/lam)).

    ``eigenvalues`` is the spectrum of the posterior precision (each entry
    the inverse of a posterior variance along a principal axis); ``lam`` is
    the spherical prior precision; ``mean_diff_norm_sq`` is ||w_Q - w_P||^2.
    """

    mean_diff_norm_sq: float
    eigenvalues: np.ndarray
    lam: float

    def __post_init__(self) -> None:
        eig = np.asarray(self.eigenvalues, dtype=float)
        if eig.ndim != 1 or eig.size == 0:
            raise ShapeError("eigenvalues must be a nonempty 1-D vector")
        if np.any(eig <= 0) or not np.all(np.isfinite(eig)):
            raise DomainError("eigenvalues must be positive and finite")
        if not 0 < self.lam < math.inf:
            raise DomainError("lam must be positive and finite")
        if not self.mean_diff_norm_sq >= 0:
            raise DomainError("mean_diff_norm_sq must be nonnegative")
        object.__setattr__(self, "eigenvalues", eig)


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL of each row of ``p`` to ``q``, which is one row or one row per row of ``p``.

    A row near ``q`` can sum its terms to a few ulps below 0; KL is nonnegative, so that reads 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * (np.log(p) - np.log(q)), 0.0)
    return np.maximum(terms.sum(axis=-1), 0.0)


def _mixture_kl(p: np.ndarray, q: np.ndarray) -> float:
    """sum_i m_i D(p_i / m_i || q_i) over the rows p_i of ``p`` with mass m_i > 0."""
    mass = p.sum(axis=1)
    kept = mass > 0
    if q.ndim == 2:
        q = q[kept]
    return float(mass[kept] @ _kl_rows(p[kept] / mass[kept, None], q))


def kl_discrete(p: DiscreteDist, q: DiscreteDist) -> float:
    """KL divergence between finite distributions; inf if q misses p's support."""
    if len(p) != len(q):
        raise ShapeError(f"support sizes differ: {len(p)} vs {len(q)}")
    return float(_kl_rows(p.probs, q.probs))


def kl_binary(y, x):
    """Binary KL divergence kl(y || x), for floats or rows, with the endpoint limit conventions.

    kl(0 || x) = -log(1 - x) and kl(1 || x) = -log(x); an endpoint x with
    mismatched y gives the +inf sentinel.  Floats give a float, computed as
    one-row arrays are.
    """
    y, x = np.asarray(y, dtype=float), np.asarray(x, dtype=float)
    if not np.logical_and.reduce((0.0 <= y) & (y <= 1.0), axis=None):
        raise DomainError("y must lie in [0, 1]")
    if not np.logical_and.reduce((0.0 <= x) & (x <= 1.0), axis=None):
        raise DomainError("x must lie in [0, 1]")
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = np.where(y == 1.0, -np.log(x), _kl_binary_from(y)(x))
    kl = np.where((x == 0.0) | (x == 1.0), np.where(y == x, 0.0, math.inf), kl)
    return kl if kl.ndim else float(kl)


def _kl_binary_from(y: np.ndarray):
    """x -> kl(y || x) elementwise for y in [0, 1) and x in (0, 1), the terms in y computed once.

    kl(0 || x) is -log(1 - x).  Where y has zeros both branches are
    evaluated, so the caller silences the divide and invalid warnings of the
    one a row does not take.
    """
    complement, positive = 1.0 - y, y > 0.0
    mixed = not np.logical_and.reduce(positive, axis=None)

    def kl(x: np.ndarray) -> np.ndarray:
        interior = y * np.log(y / x) + complement * np.log(complement / (1.0 - x))
        return np.where(positive, interior, -np.log1p(-x)) if mixed else interior

    return kl


def kl_binary_inverse_upper(y, c):
    """Largest x in [y, 1] with kl(y || x) <= c, by bisection, for floats or rows of (y, c).

    Each row bisects [y, 1] until its midpoint no longer falls strictly
    between the bracket's ends, and keeps the lower end it had then, so every
    row gets the value a one-row call gives.  A root near 0 takes up to about
    1075 halvings to reach adjacent doubles, so the cap of 1100 steps never
    stops a row first.
    The returned x satisfies kl(y || x) = c to within 1e-9 unless it
    saturates at 1 (which requires y = 1 or an astronomically large c).

    The kl computed in doubles is not monotone in x from one double to the
    next, so which of the adjacent doubles near the root a row ends on
    depends on the bisection's path; a faster root finder would end on
    others.  Up to ``_SHORT_INVERSE`` rows therefore take the same path in
    Python floats (:func:`_inverse_of`), and more rows take it as arrays
    (:func:`_bisect_rows`), which cost about 14 numpy calls a step.
    """
    y, c = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(c, dtype=float))
    if not np.logical_and.reduce((0.0 <= y) & (y <= 1.0), axis=None):
        raise DomainError("y must lie in [0, 1]")
    if not np.logical_and.reduce(c >= 0, axis=None):
        raise DomainError("c must be nonnegative")
    if y.size <= _SHORT_INVERSE:
        x = np.array([_inverse_of(*row) for row in zip(y.ravel().tolist(), c.ravel().tolist())]).reshape(y.shape)
    else:
        x = _bisect_rows(y.ravel(), c.ravel()).reshape(y.shape)
    return x if x.ndim else float(x)


#: The most rows that :func:`kl_binary_inverse_upper` bisects one at a time in Python floats.  A row
#: takes 30-40 µs there, and any number up to about a hundred take about 0.4 ms as arrays.
_SHORT_INVERSE = 8

#: How far, relative to the size of its two terms, a kl computed with ``math``'s logs may lie from c and
#: still be too close to call.  ``math.log`` and numpy's log each round within an ulp (2^-52) of the exact
#: log, and measured they differ by at most one; so the two kls differ by a few 2^-52 of the terms' size,
#: and 2^-46 allows each log four ulps of error with room to spare.
_CLOSE_TO_C = 2.0**-46


def _inverse_of(y: float, c: float) -> float:
    """One row of :func:`_bisect_rows`, with its steps in Python floats: the same steps, so the same double.

    The midpoints, quotients, products and sums are the same IEEE double
    arithmetic in Python and numpy.  Only the logs differ: each step first
    compares with c a kl computed with ``math``'s logs, and where that lies
    within :data:`_CLOSE_TO_C` of its terms' size (or 2^-1070, for subnormal
    terms) of c, it takes the logs from numpy instead, whose entries do not
    depend on the array they sit in, and so compares the kl of the row kernel
    (:func:`_kl_binary_from`).
    """
    if not (c > 0.0 and y < 1.0):
        return y
    lo, hi, complement = y, 1.0, 1.0 - y
    for _ in range(1100):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if y > 0.0:
            first, second = y * math.log(y / mid), complement * math.log(complement / (1.0 - mid))
        else:
            first, second = 0.0, -math.log1p(-mid)
        divergence = first + second
        if abs(divergence - c) <= _CLOSE_TO_C * (abs(first) + abs(second)) + 2.0**-1070:
            if y > 0.0:
                logs = np.log(np.array([y / mid, complement / (1.0 - mid)])).tolist()
                divergence = y * logs[0] + complement * logs[1]
            else:
                divergence = -np.log1p(np.array([-mid])).tolist()[0]
        if divergence <= c:
            lo = mid
        else:
            hi = mid
    return 1.0 if 1.0 - lo <= 1e-12 else lo


def _bisect_rows(y: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The bisection of :func:`kl_binary_inverse_upper` on 1-D rows of checked (y, c), as array steps."""
    bisected = (c > 0.0) & (y < 1.0)
    # A row that does not bisect starts with lo = hi, so no midpoint falls inside its bracket.
    lo, hi = y.copy(), np.where(bisected, 1.0, y)
    kl = _kl_binary_from(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(1100):
            mid = 0.5 * (lo + hi)
            # Where the scalar loop breaks, at the first midpoint not strictly inside the
            # bracket, these updates leave lo as it is: a midpoint at lo can only pull hi down
            # to lo, and one at hi has kl > c, as it had when hi was set (hi = 1 with c = inf
            # is the exception, and its lo snaps to 1 below either way).  So checking for the
            # break only every 8th step just repeats updates that change no lower end.
            if step % 8 == 0 and not np.logical_or.reduce((lo < mid) & (mid < hi)):
                break
            divergence = kl(mid)
            np.copyto(lo, mid, where=divergence <= c)
            np.copyto(hi, mid, where=divergence > c)
    return np.where(bisected & (1.0 - lo <= 1e-12), 1.0, lo)


def kl_gaussian_spectral(inputs: GaussianKLInputs) -> float:
    """Exact KL between the spectrally described Gaussian posterior and prior."""
    lam = inputs.lam
    eig = inputs.eigenvalues
    return 0.5 * float(
        lam * inputs.mean_diff_norm_sq
        + np.sum(np.log(eig / lam))
        + np.sum(lam / eig - 1.0)
    )


def kl_gaussian_diag(p_mean, p_var, q_mean, q_var) -> float:
    """KL divergence between diagonal Gaussians given as mean/variance vectors."""
    pm, pv = np.asarray(p_mean, float), np.asarray(p_var, float)
    qm, qv = np.asarray(q_mean, float), np.asarray(q_var, float)
    if not pm.shape == pv.shape == qm.shape == qv.shape:
        raise ShapeError("mean and variance vectors must share one shape")
    if not (np.all(np.isfinite(pm)) and np.all(np.isfinite(qm))):
        raise DomainError("means must be finite")
    if not (np.all(pv > 0) and np.all(qv > 0)):
        raise DomainError("variances must be positive")
    if not np.all(np.isfinite(pv)):
        raise DomainError("posterior variances must be finite")
    return 0.5 * float(
        np.sum(np.log(qv / pv) + pv / qv - 1.0 + (pm - qm) ** 2 / qv)
    )


def mutual_info(joint: JointTable) -> float:
    """Exact mutual information I(S;W) = D(P_{W|S} || P_W | P_S) of a joint table, in nats."""
    p = joint.probs
    return _mixture_kl(p, p.sum(axis=0))


def conditional_kl(joint: JointTable, q: DiscreteDist) -> float:
    """D(P_{W|S} || q | P_S): the sample-averaged KL of the conditionals to q."""
    if joint.num_hypotheses != len(q):
        raise ShapeError("q must match the hypothesis axis of the joint")
    return _mixture_kl(joint.probs, q.probs)


def golden_formula_residual(joint: JointTable, q: DiscreteDist) -> float:
    """I(S;W) minus [D(P_{W|S} || q | P_S) - D(P_W || q)]; zero for any valid q.

    Both sides are computed independently, so a nonzero residual indicates a
    defect in one of the two computations.  Absolute-continuity failures
    propagate as the +inf sentinel.
    """
    marginal_term = kl_discrete(joint.hypothesis_marginal(), q)
    if math.isinf(marginal_term):
        return math.inf
    cond_term = conditional_kl(joint, q)
    if math.isinf(cond_term):
        return math.inf
    return float(mutual_info(joint) - (cond_term - marginal_term))


def conditional_mutual_info(joint3) -> float:
    """Exact I(W;U | Z) = sum_{z,u} P(z, u) D(P_{W|z,u} || P_{W|z}) for a (z, u, w) table."""
    table = _probabilities(joint3, 3)
    sheets = table.sum(axis=1)
    with np.errstate(invalid="ignore"):  # a zero-mass z has only zero-mass rows
        given_z = sheets / sheets.sum(axis=1, keepdims=True)
    rows = np.repeat(given_z, table.shape[1], axis=0)
    return _mixture_kl(table.reshape(-1, table.shape[2]), rows)


def max_info_exact(joint: JointTable, alpha: float = 0.0) -> float:
    """alpha-approximate max-information between the axes of a finite joint, in closed form.

    The smallest t with P(O) <= e^t Q(O) + alpha for every event O, where Q is
    the product of the marginals.  Order the cells with p > 0 by the density
    ratio p/q, largest first, and let P_j and Q_j be the masses of the first j.
    For any event, P(O) - e^t Q(O) is at most the largest P_j - e^t Q_j, the
    superlevel sets of the ratio being these prefixes, so the value is the
    largest log((P_j - alpha)/Q_j) over the prefixes with P_j > alpha.  For
    alpha = 0 that is the log of the largest density ratio.
    """
    if not 0.0 <= alpha < 1.0:
        raise DomainError("alpha must lie in [0, 1)")
    p = joint.probs
    q = p.sum(axis=1, keepdims=True) * p.sum(axis=0, keepdims=True)
    mask = p > 0
    p, q = p[mask], q[mask]
    with np.errstate(divide="ignore"):  # a q that underflows to 0 gives the ratio inf
        order = np.argsort(np.log(q) - np.log(p), kind="stable")
        prefix_p, prefix_q = np.cumsum(p[order]), np.cumsum(q[order])
        above = prefix_p > alpha
        levels = np.log(prefix_p[above] - alpha) - np.log(prefix_q[above])
    return float(np.max(levels, initial=-math.inf))


def max_info_dp_bound(epsilon: float, n, alpha: float = 0.0) -> float | np.ndarray:
    """Max-information ceiling implied by pure epsilon-differential privacy.

    ``n * epsilon`` for alpha = 0, and
    ``n eps^2 / 2 + eps sqrt(n log(2/alpha) / 2)`` for alpha > 0; either is a
    float, also for an integer epsilon.  ``n`` is a positive integer or a 1-D
    row of them; a row's entries equal the integer calls bit for bit.
    """
    if not epsilon >= 0:
        raise DomainError("epsilon must be nonnegative")
    if not _is_count(n):
        raise DomainError("n must be a positive integer")
    if not 0.0 <= alpha <= 1.0:
        raise DomainError("alpha must lie in [0, 1]")
    with np.errstate(over="ignore"):
        if alpha == 0.0:
            return n * float(epsilon)
        root = n * math.log(2.0 / alpha) / 2.0
        return n * epsilon**2 / 2.0 + epsilon * (np.sqrt(root) if isinstance(root, np.ndarray) else math.sqrt(root))
