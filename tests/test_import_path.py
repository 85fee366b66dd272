"""Which commands import ``scipy.special``: only the Clopper-Pearson quantile needs it.

Each case runs in a fresh interpreter, so modules the test process already
holds cannot hide an import.  The check is module membership, not time.
"""

import os
import subprocess
import sys
from pathlib import Path

import yaml
from scipy.special import betaincinv

import genbounds
from genbounds.cli import read_records

SOURCE = str(Path(genbounds.__file__).resolve().parents[1])


def run_fresh(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SOURCE, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, check=True, capture_output=True, text=True, timeout=120
    )
    return done.stdout


def test_importing_the_package_leaves_scipy_special_out_until_a_clopper_pearson_call():
    out = run_fresh(
        "import sys\n"
        "import genbounds, genbounds.cli\n"
        "print('scipy.special' in sys.modules)\n"
        "from genbounds.harness import clopper_pearson_upper\n"
        "value = clopper_pearson_upper(3, 10**4)\n"
        "print('scipy.special' in sys.modules, value.hex())\n"
    )
    assert out.split() == ["False", "True", float(betaincinv(4, 10**4 - 3, 0.95)).hex()]


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
