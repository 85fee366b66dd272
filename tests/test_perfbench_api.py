"""The benchmark's certifications, exact checks and sweep rounds, run through the package API the benchmark calls.

perfbench/workloads.py calls the entry points of each trial kind, ``BoundSpec(name, params)``, the
dp-prior ``epsilon`` arguments and the exact checks: ``iei_exact`` with a closure and
``cmi_exact_quantities`` with a ``GibbsAlgorithm``.  perfbench/sweeps.py draws a ``bound sweep`` config
for every bound name, which perfbench/run.py runs through ``cli.main`` and merges with ``report``.
perfbench/run.py traces package functions by their ``module.name``.  Running the benchmark's own checks
here, resolving every name it traces, and counting the traced calls of the iei check's rule shows a break
in that API in the test suite, before it can fail or silently zero a benchmark run.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import genbounds.cli as cli

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
# The module's dataclasses look their module up in sys.modules while they are built.
sys.modules[_SPEC.name] = workloads
_SPEC.loader.exec_module(workloads)
_SPANS_SPEC = importlib.util.spec_from_file_location("perfbench_spans", _PATH.parent / "spans.py")
spans = importlib.util.module_from_spec(_SPANS_SPEC)
_SPANS_SPEC.loader.exec_module(spans)
_SWEEPS_SPEC = importlib.util.spec_from_file_location("perfbench_sweeps", _PATH.parent / "sweeps.py")
sweeps = importlib.util.module_from_spec(_SWEEPS_SPEC)
_SWEEPS_SPEC.loader.exec_module(sweeps)

PROBLEMS = {
    "coin": lambda: workloads.coin_problem(50),
    "wide": lambda: workloads.wide_problem(np.random.default_rng([1, 0]), 200),
}


@pytest.mark.parametrize("problem", PROBLEMS.values(), ids=PROBLEMS.keys())
@pytest.mark.parametrize("name, beta", workloads.CERTIFICATIONS, ids=[name for name, _ in workloads.CERTIFICATIONS])
def test_a_benchmark_certification_passes_its_own_check(problem, name, beta):
    config = workloads.trial_config(problem(), name, beta, seed=3, trials=40)
    assert workloads.check_certification(config, workloads.run_certification(config)) == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS.values(), ids=workloads.WORKLOADS.keys())
def test_a_benchmark_exact_check_passes_its_own_check(workload):
    for item in workloads.exact_inputs(workload, np.random.default_rng([3, 0, 1])):
        assert workloads.check_exact(item, workloads.run_exact(item)) == [], item.kind


def traced_names() -> set[str]:
    """The ``module.name`` strings perfbench/run.py reports: its three name tuples and its ``get`` lookups."""
    tree = ast.parse((_PATH.parent / "run.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) in ("_CALLS_AND_S", "_WITH_SELF", "_US_PER_CALL") for target in node.targets
        ):
            names.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "get" and node.args:
            if isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str):
                names.add(node.args[0].value)
    return names


def test_every_traced_name_resolves_in_the_package():
    names = traced_names()
    assert {"problems.iter_samples", "divergences.DiscreteDist", "harness.cmi_exact_quantities"} <= names
    for name in sorted(names):
        module, attribute = name.split(".")
        assert callable(getattr(importlib.import_module(f"genbounds.{module}"), attribute, None)), name


@pytest.mark.parametrize("workload", workloads.WORKLOADS.values(), ids=workloads.WORKLOADS.keys())
def test_the_trace_counts_one_call_of_each_rule_primitive_per_sequence(workload):
    # The iei check's callable rule runs once per sequence.  A moved name, or a constructor the tracer no longer
    # wraps, fails here instead of silently zeroing a per-layer metric.
    inputs = workloads.exact_inputs(workload, np.random.default_rng([3, 0, 1]))
    item = next(item for item in inputs if item.kind == "iei")
    sequences = item.problem.num_outcomes ** item.problem.n
    tracer = spans.Tracer()
    tracer.install()
    try:
        workloads.run_exact(item)
    finally:
        tracer.uninstall()
    summary = spans.summarize(tracer.take())
    for name in ("divergences.DiscreteDist", "posteriors.gibbs_posterior", "problems.empirical_risks"):
        assert summary.get(name, {"calls": 0})["calls"] == sequences, name
    assert summary["posteriors.iei_exact"]["calls"] == 1


@pytest.mark.parametrize("points", [5, 100])
@pytest.mark.parametrize("seed", [1, 2])
def test_a_benchmark_sweep_round_passes_its_own_checks(tmp_path, seed, points):
    # As perfbench/run.py runs a round: every bound name swept, CSV and JSON lines alternating, then merged.
    outputs = []
    for i, (name, config) in enumerate(sweeps.sweep_configs(np.random.default_rng([seed, 0, 2]), points)):
        path, out = tmp_path / f"{i:02d}-{name}.yaml", str(tmp_path / f"{i:02d}-{name}.out")
        path.write_text(yaml.safe_dump(config))
        fmt = "csv" if i % 2 == 0 else "json-lines"
        assert cli.main(["bound", "sweep", "--config", str(path), "--out", out, "--format", fmt]) == 0, name
        assert [row["value"] for row in cli.read_records(out)[1]] == sweeps.direct_values(config), name
        outputs.append(out)
    merged = str(tmp_path / "merged.csv")
    assert cli.main(["report", *outputs, "--out", merged]) == 0
    assert len(cli.read_records(merged)[1]) == len(sweeps.SWEEPS) * points
