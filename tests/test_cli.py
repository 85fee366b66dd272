"""End-to-end tests of the command-line interface and its report formats."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import genbounds
import genbounds.cli as cli
from genbounds.cli import load_config, main, read_records
from genbounds.errors import ConfigurationError

STANDARD_PROBLEM = {
    "losses": [[0, 1], [1, 0], [0, 1], [1, 0]],
    "mu": [0.5, 0.5],
    "n": 50,
}


def write_yaml(path, payload):
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def compute_config(tmp_path, name="catoni", **bound_fields):
    bound = {"name": name, "n": 50, "beta": 1.0, "delta": 0.1, "kl": 0.0, "empirical_risk": 0.0}
    bound.update(bound_fields)
    return write_yaml(tmp_path / "compute.yaml", {"bound": bound})


def experiment_config(tmp_path, filename="exp.yaml", **overrides):
    experiment = {
        "bound": "catoni",
        "beta": 1.0,
        "delta": 0.05,
        "trials": 300,
        "seed": 7,
        "algorithm": {"kind": "gibbs", "beta_alg": 5.0},
    }
    experiment.update(overrides)
    return write_yaml(
        tmp_path / filename, {"experiment": experiment, "problem": dict(STANDARD_PROBLEM)}
    )


class TestBoundCompute:
    def test_catoni_riskless_case(self, tmp_path, capsys):
        cfg = compute_config(tmp_path, delta=1.0)
        assert main(["bound", "compute", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "catoni" in out
        row = out.strip().splitlines()[-1].split(",")
        assert float(row[6]) == 0.0

    def test_xu_raginsky_value(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "xu.yaml", {"bound": {"name": "xu-raginsky", "mi": 1.0, "n": 2, "sigma": 1.0}}
        )
        out_path = tmp_path / "xu.csv"
        assert main(["bound", "compute", "--config", cfg, "--out", str(out_path)]) == 0
        _, rows = read_records(str(out_path))
        assert rows[0]["value"] == pytest.approx(1.0)

    def test_unknown_bound_name_exits_2(self, tmp_path):
        cfg = compute_config(tmp_path, name="oracle")
        assert main(["bound", "compute", "--config", cfg]) == 2

    def test_nan_empirical_risk_exits_2(self, tmp_path):
        cfg = compute_config(tmp_path, name="zhang", empirical_risk=float("nan"))
        assert ".nan" in (tmp_path / "compute.yaml").read_text()
        assert main(["bound", "compute", "--config", cfg]) == 2

    def test_nan_epsilon_exits_2(self, tmp_path):
        cfg = compute_config(tmp_path, name="dp-prior", epsilon=float("nan"))
        assert main(["bound", "compute", "--config", cfg]) == 2

    def test_negative_delta_radius_exits_2(self, tmp_path):
        cfg = compute_config(
            tmp_path, name="delta", delta=0.5, variant="quadratic", moment_bound=-5.0
        )
        assert main(["bound", "compute", "--config", cfg]) == 2

    def test_a_radius_whose_square_overflows_exits_0_vacuous(self, tmp_path):
        bound = {"name": "delta", "n": 1, "delta": 0.5, "kl": 1e300, "empirical_risk": 0.1,
                 "variant": "normalized", "moment_bound": 1.0}
        cfg = write_yaml(tmp_path / "overflow.yaml", {"bound": bound})
        out_path = tmp_path / "overflow.csv"
        assert main(["bound", "compute", "--config", cfg, "--out", str(out_path)]) == 0
        _, rows = read_records(str(out_path))
        assert (float(rows[0]["value"]), rows[0]["vacuous"]) == (1.0, "True")

    def test_unknown_config_field_exits_2(self, tmp_path):
        cfg = write_yaml(tmp_path / "bad.yaml", {"bound": {"name": "catoni", "banana": 1}})
        assert main(["bound", "compute", "--config", cfg]) == 2

    def test_vacuous_result_still_exits_0(self, tmp_path):
        cfg = compute_config(tmp_path, kl=float("inf"), model={"family": "bernoulli01"})
        out_path = tmp_path / "vac.csv"
        assert main(["bound", "compute", "--config", cfg, "--out", str(out_path)]) == 0
        _, rows = read_records(str(out_path))
        assert rows[0]["vacuous"] == "True"

    def test_bits_conversion_applies_to_kl_column(self, tmp_path):
        cfg = compute_config(tmp_path, kl=2.0)
        nats_path, bits_path = tmp_path / "n.csv", tmp_path / "b.csv"
        assert main(["bound", "compute", "--config", cfg, "--out", str(nats_path)]) == 0
        assert (
            main(
                ["bound", "compute", "--config", cfg, "--out", str(bits_path), "--unit", "bits"]
            )
            == 0
        )
        _, nats_rows = read_records(str(nats_path))
        _, bits_rows = read_records(str(bits_path))
        assert bits_rows[0]["kl"] == pytest.approx(nats_rows[0]["kl"] / math.log(2.0))
        # the value is a risk, not an information quantity: unchanged
        assert bits_rows[0]["value"] == pytest.approx(nats_rows[0]["value"])


    def test_an_output_directory_exits_2_naming_it(self, tmp_path, capsys):
        cfg = compute_config(tmp_path)
        assert main(["bound", "compute", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"cannot write {tmp_path}" in capsys.readouterr().err

    def test_an_output_in_a_missing_directory_exits_2_naming_it(self, tmp_path, capsys):
        cfg = compute_config(tmp_path)
        out_path = tmp_path / "missing" / "x.csv"
        assert main(["bound", "compute", "--config", cfg, "--out", str(out_path)]) == 2
        assert f"cannot write {out_path}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["bound", "compute"], ["bound", "sweep"]])
    def test_trials_is_an_experiment_option_only(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as info:
            main([*command, "--config", compute_config(tmp_path), "--trials", "5"])
        assert info.value.code == 2
        assert "unrecognized arguments: --trials 5" in capsys.readouterr().err


class TestBoundSweep:
    def test_beta_sweep_minimum_near_optimum(self, tmp_path):
        kl, delta, n = 2.0, 0.05, 50
        cfg = write_yaml(
            tmp_path / "sweep.yaml",
            {
                "bound": {"name": "cmi", "n": n, "delta": delta, "kl": kl},
                "sweep": {"parameter": "beta", "start": 0.05, "stop": 2.0, "points": 200},
            },
        )
        out_path = tmp_path / "sweep.csv"
        assert main(["bound", "sweep", "--config", cfg, "--out", str(out_path)]) == 0
        _, rows = read_records(str(out_path))
        betas = np.array([r["beta"] for r in rows])
        values = np.array([r["value"] for r in rows])
        best_beta = betas[np.argmin(values)]
        optimum = math.sqrt(2.0 * (kl + math.log(1.0 / delta)) / n)
        step = betas[1] - betas[0]
        assert abs(best_beta - optimum) <= step

    def test_n_sweep_is_nonincreasing(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "nsweep.yaml",
            {
                "bound": {
                    "name": "catoni",
                    "beta": 1.0,
                    "delta": 0.1,
                    "kl": 1.0,
                    "empirical_risk": 0.2,
                },
                "sweep": {"parameter": "n", "grid": [10, 20, 50, 100, 500]},
            },
        )
        out_path = tmp_path / "nsweep.jsonl"
        code = main(
            ["bound", "sweep", "--config", cfg, "--out", str(out_path), "--format", "json-lines"]
        )
        assert code == 0
        _, rows = read_records(str(out_path))
        values = [r["value"] for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_non_integral_n_point_exits_2(self, tmp_path):
        bound = {"name": "catoni", "beta": 1.0, "delta": 0.1, "kl": 1.0, "empirical_risk": 0.2}
        bad = {"parameter": "n", "start": 10, "stop": 11, "points": 3}
        cfg = write_yaml(tmp_path / "bad.yaml", {"bound": bound, "sweep": bad})
        assert main(["bound", "sweep", "--config", cfg]) == 2
        good = {"parameter": "n", "start": 10.0, "stop": 12.0, "points": 3}
        cfg = write_yaml(tmp_path / "good.yaml", {"bound": bound, "sweep": good})
        out_path = tmp_path / "good.csv"
        assert main(["bound", "sweep", "--config", cfg, "--out", str(out_path)]) == 0
        _, rows = read_records(str(out_path))
        assert [r["n"] for r in rows] == [10, 11, 12]

    def test_empty_grid_exits_2(self, tmp_path):
        cfg = write_yaml(
            tmp_path / "empty.yaml",
            {
                "bound": {"name": "catoni", "beta": 1.0, "delta": 0.1, "n": 10},
                "sweep": {"parameter": "beta", "grid": []},
            },
        )
        assert main(["bound", "sweep", "--config", cfg]) == 2


class TestExperimentCommands:
    def test_catoni_certification_passes(self, tmp_path):
        cfg = experiment_config(tmp_path)
        out_path = tmp_path / "run.jsonl"
        code = main(
            ["experiment", "run", "--config", cfg, "--out", str(out_path), "--format", "json-lines"]
        )
        assert code == 0
        header, rows = read_records(str(out_path))
        assert rows[0]["rate"] <= 0.05
        assert header["config"]["experiment"]["bound"] == "catoni"

    def test_vacuous_bound_certifies_trivially(self, tmp_path):
        # With a tiny beta the clamped bound is 1, hence never violated.
        cfg = experiment_config(tmp_path, filename="vac.yaml", beta=0.001, trials=100)
        out_path = tmp_path / "vac.jsonl"
        code = main(
            ["experiment", "run", "--config", cfg, "--out", str(out_path), "--format", "json-lines"]
        )
        assert code == 0
        _, rows = read_records(str(out_path))
        assert rows[0]["rate"] == 0.0

    def test_sabotaged_bound_exits_1(self, tmp_path):
        cfg = experiment_config(tmp_path, filename="bad.yaml", bound_offset=-1.0, trials=100)
        out_path = tmp_path / "bad.jsonl"
        code = main(
            ["experiment", "run", "--config", cfg, "--out", str(out_path), "--format", "json-lines"]
        )
        assert code == 1
        _, rows = read_records(str(out_path))
        assert rows[0]["rate"] > 0.95

    def test_cmi_experiment(self, tmp_path):
        cfg = experiment_config(tmp_path, filename="cmi.yaml", bound="cmi", beta=0.3, trials=300)
        assert main(["experiment", "cmi", "--config", cfg, "--out", str(tmp_path / "c.csv")]) == 0

    def test_dp_prior_experiment(self, tmp_path):
        cfg = experiment_config(
            tmp_path, filename="dp.yaml", bound="dp-prior", delta=0.1, epsilon=0.2, trials=300
        )
        assert main(["experiment", "dp-prior", "--config", cfg, "--out", str(tmp_path / "d.csv")]) == 0

    def test_cmi_rejects_a_bound_of_another_trial(self, tmp_path):
        cfg = experiment_config(tmp_path, filename="zhang.yaml", bound="zhang", trials=10)
        assert main(["experiment", "cmi", "--config", cfg]) == 2

    def test_dp_prior_needs_epsilon(self, tmp_path):
        cfg = experiment_config(tmp_path, filename="noeps.yaml", bound="dp-prior", trials=10)
        assert main(["experiment", "dp-prior", "--config", cfg]) == 2

    def test_negative_seed_exits_2(self, tmp_path):
        cfg = experiment_config(tmp_path, filename="neg.yaml", seed=-1, trials=10)
        assert main(["experiment", "run", "--config", cfg]) == 2
        cfg = experiment_config(tmp_path, trials=10)
        assert main(["experiment", "run", "--config", cfg, "--seed", "-1"]) == 2

    def test_seed_flag_overrides_and_reproduces_bit_exactly(self, tmp_path):
        cfg = experiment_config(tmp_path, trials=100)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            code = main(
                [
                    "experiment",
                    "run",
                    "--config",
                    cfg,
                    "--seed",
                    "123",
                    "--out",
                    str(path),
                    "--format",
                    "json-lines",
                ]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        header, _ = read_records(str(a))
        assert header["seed"] == 123


class TestReport:
    def make_runs(self, tmp_path, unit="nats"):
        paths = []
        for i, (name, beta) in enumerate([("catoni", 1.0), ("catoni", 0.5), ("cmi", 0.3)]):
            cfg = compute_config(tmp_path, name=name, beta=beta, kl=float(i))
            out = tmp_path / f"run{i}.csv"
            assert main(["bound", "compute", "--config", cfg, "--out", str(out), "--unit", unit]) == 0
            paths.append(str(out))
        return paths

    def test_identity_on_single_input(self, tmp_path):
        (path, *_) = self.make_runs(tmp_path)
        merged = tmp_path / "merged.csv"
        assert main(["report", path, "--out", str(merged)]) == 0
        _, original = read_records(path)
        _, rows = read_records(str(merged))
        assert rows == original

    def test_stable_ordering_on_shuffled_inputs(self, tmp_path):
        paths = self.make_runs(tmp_path)
        merged_a, merged_b = tmp_path / "ma.csv", tmp_path / "mb.csv"
        assert main(["report", *paths, "--out", str(merged_a)]) == 0
        assert main(["report", *reversed(paths), "--out", str(merged_b)]) == 0
        _, rows_a = read_records(str(merged_a))
        _, rows_b = read_records(str(merged_b))
        assert rows_a == rows_b
        keys = [(r["bound"], r["n"], r["beta"]) for r in rows_a]
        assert keys == sorted(keys)

    def test_rejects_mixed_units(self, tmp_path):
        nats_paths = self.make_runs(tmp_path, unit="nats")
        cfg = compute_config(tmp_path, name="zhang", kl=1.0, model={"family": "sub_gaussian", "sigma": 1.0})
        bits_path = tmp_path / "bits.csv"
        assert main(["bound", "compute", "--config", cfg, "--out", str(bits_path), "--unit", "bits"]) == 0
        assert main(["report", nats_paths[0], str(bits_path)]) == 2

    def test_merges_json_lines_with_csv(self, tmp_path):
        csv_path = self.make_runs(tmp_path)[0]
        cfg = experiment_config(tmp_path, trials=50)
        jsonl_path = tmp_path / "exp.jsonl"
        main(["experiment", "run", "--config", cfg, "--out", str(jsonl_path), "--format", "json-lines"])
        merged = tmp_path / "all.jsonl"
        assert main(["report", csv_path, str(jsonl_path), "--out", str(merged), "--format", "json-lines"]) == 0
        header, rows = read_records(str(merged))
        assert len(rows) == 2
        assert header["unit"] == "nats"

    def test_directory_input_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert f"cannot read {tmp_path}" in capsys.readouterr().err

    def test_non_utf8_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes('# genbounds {"label": "caf\u00e9"}\n'.encode("latin-1"))
        assert main(["report", str(path)]) == 2
        assert f"{path} is not UTF-8 text" in capsys.readouterr().err

    def test_truncated_json_header_exits_2(self, tmp_path, capsys):
        path = tmp_path / "truncated.jsonl"
        path.write_text('{"record_type": "header"')
        assert main(["report", str(path)]) == 2
        assert f"{path} line 1: malformed JSON" in capsys.readouterr().err

    def test_malformed_json_row_names_its_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"record_type": "header"}\n\n{"record_type": "row"}\n{"record_type": "row", \n')
        with pytest.raises(ConfigurationError, match=r"rows\.jsonl line 4: malformed JSON"):
            read_records(str(path))

    def test_malformed_csv_header_names_its_line(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text("\n# genbounds {unit: nats}\nbound,name\n")
        with pytest.raises(ConfigurationError, match=r"run\.csv line 2: malformed JSON"):
            read_records(str(path))

    @pytest.mark.parametrize("unit", [["a"], 5, "furlongs"], ids=["list", "int", "unknown"])
    def test_a_header_unit_other_than_nats_or_bits_exits_2(self, tmp_path, capsys, unit):
        (good, *_) = self.make_runs(tmp_path)
        path = tmp_path / "odd-unit.csv"
        path.write_text(f"# genbounds {json.dumps({'unit': unit})}\nbound,name\ncatoni,catoni\n")
        merged = tmp_path / "merged.csv"
        assert main(["report", good, str(path), "--out", str(merged)]) == 2
        assert f"{path}: header unit must be 'nats' or 'bits'; got {unit!r}" in capsys.readouterr().err
        assert not merged.exists()

    def test_json_row_that_is_not_an_object_is_refused(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"record_type": "header"}\n[1, 2]\n')
        with pytest.raises(ConfigurationError, match=r"rows\.jsonl line 2: expected a JSON object"):
            read_records(str(path))


def _same_value(a, b) -> bool:
    """Equal values of equal types; NaN equals NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_value(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(_same_value(x, y) for x, y in zip(a, b))
    return a == b


README_CONFIGS = re.findall(
    r"```yaml\n(.*?)```", (Path(__file__).resolve().parents[1] / "README.md").read_text(), re.S
)

EXPONENTS = "exponents: [1e-3, -2E+5, 1e3, 1_0e2, '1e-3']\nints: [10, 0x1F, 1_000]\n"

FIXED_CONFIGS = [
    "ints: [0, -7, 1_000, 0x1F, 017, +3]\n",
    "floats: [1.5, -0.25, 1e-3, 1.0e-3, 6.02e+23, .5, .inf, -.Inf, .nan, .NaN]\n",
    "bools: [true, false, True, FALSE, yes, no, on, off]\nnulls: [~, null, Null]\nempty:\n",
    "bound:\n  name: zhang\n  n: 50\n  model: {family: sub_gaussian, sigma: 0.5}\n"
    "  hessian_eigenvalues:\n    - 1.0\n    - [2, [3.5, {a: b}]]\n",
    "flow: {a: 1, b: [x, 'y', \"z\\tq\"], c: {d: ~, e: .inf}}\n",
    EXPONENTS,
]


class TestConfigLoader:
    """Configs load through PyYAML's safe loader; an unreadable config exits 2."""

    def test_readme_has_example_configs(self):
        assert len(README_CONFIGS) >= 2

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
    @pytest.mark.parametrize("text", README_CONFIGS + FIXED_CONFIGS)
    def test_libyaml_and_python_loaders_agree(self, text):
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        slow = yaml.load(text, Loader=yaml.SafeLoader)
        assert _same_value(fast, slow), (fast, slow)

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
    @pytest.mark.parametrize("text", README_CONFIGS + FIXED_CONFIGS)
    def test_config_loaders_agree_over_libyaml_and_python(self, text):
        fast = yaml.load(text, Loader=cli._config_loader(yaml.CSafeLoader))
        slow = yaml.load(text, Loader=cli._config_loader(yaml.SafeLoader))
        assert _same_value(fast, slow), (fast, slow)

    @pytest.mark.parametrize("base", [yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)])
    def test_dotless_exponents_load_as_floats_and_ints_stay_ints(self, base):
        data = yaml.load(EXPONENTS, Loader=cli._config_loader(base))
        assert _same_value(data, {"exponents": [0.001, -200000.0, 1000.0, 1000.0, "1e-3"], "ints": [10, 31, 1000]})
        assert yaml.load("1e-3", Loader=base) == "1e-3"  # the stock loader keeps YAML 1.1's reading

    def test_dotless_exponent_delta_is_accepted(self, tmp_path):
        path = tmp_path / "exponent.yaml"
        path.write_text("bound: {name: zhang, delta: 1e-3, kl: 2E-1}\n")
        bound = load_config(str(path), "compute")["bound"]
        assert bound["delta"] == 0.001 and bound["kl"] == 0.2

    def test_nan_and_inf_load_as_floats(self, tmp_path):
        path = tmp_path / "special.yaml"
        path.write_text("bound: {name: pac-bayes-kl, kl: .inf, delta: .nan}\n")
        bound = load_config(str(path), "compute")["bound"]
        assert bound["kl"] == math.inf and math.isnan(bound["delta"])

    def test_malformed_yaml_exits_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "malformed.yaml"
        path.write_text("bound: {name: zhang, n: [1\n")
        assert main(["bound", "compute", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "line" in err and "column" in err

    def test_parse_error_names_its_line_and_column(self, tmp_path):
        path = tmp_path / "malformed.yaml"
        path.write_text("bound:\n  name: zhang\n  n: [1, 2\nsweep: x\n")
        with pytest.raises(ConfigurationError, match=r"line 4, column 6"):
            load_config(str(path), "sweep")

    def test_directory_config_exits_2(self, tmp_path, capsys):
        assert main(["bound", "sweep", "--config", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes("bound: {name: zhang, label: caf\u00e9}\n".encode("latin-1"))
        assert main(["experiment", "run", "--config", str(path)]) == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "absent.yaml"
        assert main(["bound", "compute", "--config", str(path)]) == 2
        assert str(path) in capsys.readouterr().err


class TestParserReuse:
    """``main`` builds its parser once per process and finds handlers when a command runs."""

    def test_sweeps_in_one_process_match_a_fresh_process(self, tmp_path):
        bound = {"name": "zhang", "n": 80, "beta": 1.0, "delta": 0.05, "empirical_risk": 0.1}
        kl_sweep = {"parameter": "kl", "start": 0.0, "stop": 3.0, "points": 7}
        n_sweep = {"parameter": "n", "grid": [10, 40, 90]}
        jobs = [
            ("kl.yaml", {"bound": bound, "sweep": kl_sweep}, "csv"),
            ("n.yaml", {"bound": {**bound, "kl": 1.5}, "sweep": n_sweep}, "json-lines"),
        ]
        argvs = [
            ["bound", "sweep", "--config", write_yaml(tmp_path / name, payload), "--format", fmt, "--out"]
            for name, payload, fmt in jobs
        ]
        for i, argv in enumerate(argvs):
            assert main([*argv, str(tmp_path / f"in-process-{i}")]) == 0
        source = str(Path(genbounds.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        for i, argv in enumerate(argvs):
            fresh = tmp_path / f"fresh-{i}"
            subprocess.run(
                [sys.executable, "-m", "genbounds.cli", *argv, str(fresh)],
                env=env, check=True, timeout=120,
            )
            assert (tmp_path / f"in-process-{i}").read_bytes() == fresh.read_bytes()

    def test_a_handler_patched_after_first_use_is_the_one_run(self, tmp_path, monkeypatch):
        cfg = compute_config(tmp_path)
        assert main(["bound", "compute", "--config", cfg, "--out", str(tmp_path / "first.csv")]) == 0
        seen = []

        def patched(args):
            seen.append(args.config)
            return 0

        monkeypatch.setattr(cli, "cmd_bound_compute", patched)
        assert main(["bound", "compute", "--config", cfg]) == 0
        assert seen == [cfg]
