import decimal
import math

import numpy as np
import pytest

from genbounds import DiscreteDist, FiniteProblem


def random_problem(
    rng: np.random.Generator,
    num_hypotheses: int,
    num_outcomes: int,
    n: int,
    binary: bool = False,
) -> FiniteProblem:
    """A random finite problem with [0, 1] (or {0, 1}) losses and interior mu."""
    if binary:
        losses = rng.integers(0, 2, size=(num_hypotheses, num_outcomes)).astype(float)
    else:
        losses = rng.random((num_hypotheses, num_outcomes))
    mu = DiscreteDist.from_weights(rng.random(num_outcomes) + 0.2)
    return FiniteProblem(losses=losses, mu=mu, n=n)


def random_dist(rng: np.random.Generator, size: int) -> DiscreteDist:
    return DiscreteDist.from_weights(rng.random(size) + 0.05)


#: Inverse temperatures from 1e-300, where every e^{-beta v} rounds to 1, to 1e8, where all but the largest underflow.
ANNEALING_BETAS = [1e-300, 1e-30, 1e-16, 1e-12, 1e-8, 1e-4, 1e-2, 1.0, 10.0, 100.0, 1e4, 1e8]


def annealed_reference(values, weights, beta: float) -> float:
    """-log(sum(w e^{-beta v}) / sum(w)) / beta in decimal, over the entries with w > 0.

    The binary inputs are taken exactly and the weights normalized in
    decimal.  Each e^{-beta (v - low)} keeps 50 digits of its distance from 1,
    which at beta = 1e-300 takes about 350 digits.
    """
    kept = [(decimal.Decimal(float(w)), decimal.Decimal(float(v))) for w, v in zip(weights, values) if w > 0]
    low = min(v for _, v in kept)
    span = max(float(v - low) for _, v in kept)
    with decimal.localcontext() as context:
        context.prec = 50 + (max(0, -math.floor(math.log10(beta * span))) if span else 0)
        context.Emax, context.Emin = decimal.MAX_EMAX, decimal.MIN_EMIN
        b, total = decimal.Decimal(float(beta)), sum(w for w, _ in kept)
        mean = sum(w / total * (-b * (v - low)).exp() for w, v in kept)
        return float(low - mean.ln() / b)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
