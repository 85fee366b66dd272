"""The package never imports scipy: scipy is a test oracle, not a runtime dependency.

Each case runs in a fresh interpreter, so modules the test process already
holds cannot hide an import.  The check is module membership, not time.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import yaml

import genbounds
from genbounds.cli import read_records
from genbounds.harness import clopper_pearson_upper

PACKAGE = Path(genbounds.__file__).resolve().parent
SOURCE = str(PACKAGE.parent)

#: Prints whether any scipy module is loaded.
SCIPY_LOADED = "print(any(name == 'scipy' or name.startswith('scipy.') for name in sys.modules))\n"


def run_fresh(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SOURCE, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, check=True, capture_output=True, text=True, timeout=120
    )
    return done.stdout


def test_a_clopper_pearson_call_leaves_scipy_out():
    out = run_fresh(
        "import sys\n"
        "import genbounds, genbounds.cli\n"
        "from genbounds.harness import clopper_pearson_upper\n"
        "value = clopper_pearson_upper(3, 10**4)\n"
        "print(value.hex())\n" + SCIPY_LOADED
    )
    assert out.split() == [clopper_pearson_upper(3, 10**4).hex(), "False"]


def test_an_experiment_run_leaves_scipy_out(tmp_path):
    config = tmp_path / "experiment.yaml"
    experiment = {"bound": "zhang", "beta": 1.0, "delta": 0.05, "trials": 200, "seed": 7,
                  "algorithm": {"kind": "gibbs", "beta_alg": 5.0}}
    problem = {"losses": [[0, 1], [1, 0], [0, 1], [1, 0]], "mu": [0.5, 0.5], "n": 50}
    config.write_text(yaml.safe_dump({"experiment": experiment, "problem": problem}))
    out = run_fresh(
        "import sys\n"
        "import genbounds.cli\n"
        "code = genbounds.cli.main(['experiment', 'run', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code)\n" + SCIPY_LOADED,
        str(config),
        str(tmp_path / "out.csv"),
    )
    assert out.split() == ["0", "False"]
    _, rows = read_records(str(tmp_path / "out.csv"))
    assert [row["bound"] for row in rows] == ["zhang"]


def test_no_module_of_the_package_imports_scipy():
    imports = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.append((path.name, node.module))
    assert imports, "the scan found no import at all"
    assert [(name, module) for name, module in imports if module.split(".")[0] == "scipy"] == []


def test_bound_compute_runs_without_scipy_special(tmp_path):
    config = tmp_path / "compute.yaml"
    bound = {"name": "catoni", "n": 50, "beta": 1.0, "delta": 0.1, "kl": 0.5, "empirical_risk": 0.1}
    config.write_text(yaml.safe_dump({"bound": bound}))
    out = run_fresh(
        "import sys\n"
        "import genbounds.cli\n"
        "code = genbounds.cli.main(['bound', 'compute', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(code, 'scipy.special' in sys.modules)\n",
        str(config),
        str(tmp_path / "out.csv"),
    )
    assert out.split() == ["0", "False"]
    _, rows = read_records(str(tmp_path / "out.csv"))
    assert [row["bound"] for row in rows] == ["catoni"]
