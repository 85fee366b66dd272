"""The benchmark's certifications, run through the package API the benchmark calls.

perfbench/workloads.py calls the entry points of each trial kind, ``BoundSpec(name, params)`` and the
dp-prior ``epsilon`` arguments.  Running its own checks here shows a break in that API in the test suite,
before it can fail a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
# The module's dataclasses look their module up in sys.modules while they are built.
sys.modules[_SPEC.name] = workloads
_SPEC.loader.exec_module(workloads)

PROBLEMS = {
    "coin": lambda: workloads.coin_problem(50),
    "wide": lambda: workloads.wide_problem(np.random.default_rng([1, 0]), 200),
}


@pytest.mark.parametrize("problem", PROBLEMS.values(), ids=PROBLEMS.keys())
@pytest.mark.parametrize("name, beta", workloads.CERTIFICATIONS, ids=[name for name, _ in workloads.CERTIFICATIONS])
def test_a_benchmark_certification_passes_its_own_check(problem, name, beta):
    config = workloads.trial_config(problem(), name, beta, seed=3, trials=40)
    assert workloads.check_certification(config, workloads.run_certification(config)) == []
