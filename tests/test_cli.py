"""End-to-end tests of the command-line interface and its report formats."""

import json
import math

import numpy as np
import pytest
import yaml

from genbounds.cli import main, read_records

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
