"""A fixed reference computation that gauges how fast the CPU runs right now.

On the two-vCPU development host the speed of a core changes within a second,
by up to 2x, with load from outside the machine, and it does so for CPU time
as well as wall time.  Timing this fixed mix of small NumPy calls and
interpreter work right before and after every operation lets the benchmark
state each operation's time at one reference speed.  The reference uses
nothing from genbounds, so a change to the package moves the normalized times
as much as the raw ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

#: Seconds one :func:`reference` call takes on an uncontended core of the
#: development host (Intel Xeon, 2 vCPUs at 2.0 GHz, Python 3.11, NumPy 2.4).
REFERENCE_S = 0.0022

_LOSSES = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
_MU = np.array([0.5, 0.5])


@dataclass(frozen=True)
class _Point:
    x: float
    y: float


def _numpy_part(rounds: int) -> float:
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(rounds):
        sample = rng.choice(2, size=50, p=_MU)
        risks = _LOSSES[:, sample].mean(axis=1)
        weights = np.exp(-5.0 * (risks - risks.min()))
        weights /= weights.sum()
        acc += float(weights @ risks) + float(np.sum(weights * np.log(weights * 4.0)))
    return acc


def _python_part(steps: int) -> float:
    table: dict[int, _Point] = {}
    acc = 0.0
    for i in range(steps):
        point = _Point(i * 0.5, math.sqrt(i))
        table[i % 97] = point
        acc += point.x - point.y
    return acc + len(table)


def reference() -> float:
    """Seconds taken by the fixed reference work, timed now."""
    start = perf_counter()
    _numpy_part(16)
    _python_part(900)
    return perf_counter() - start
