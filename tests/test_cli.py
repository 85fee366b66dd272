"""End-to-end tests of the command-line interface and its report formats."""

import codecs
import csv
import io
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
from genbounds.registry import BOUNDS

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

    @pytest.mark.parametrize("name", ["catoni", "catoni-linear"])
    def test_an_infinite_beta_exits_2(self, tmp_path, capsys, name):
        cfg = compute_config(tmp_path, name=name, beta=float("inf"))
        assert ".inf" in (tmp_path / "compute.yaml").read_text()
        assert main(["bound", "compute", "--config", cfg]) == 2
        assert "beta must be finite" in capsys.readouterr().err

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
        assert (float(rows[0]["value"]), rows[0]["vacuous"]) == (1.0, True)

    def test_unknown_config_field_exits_2(self, tmp_path):
        cfg = write_yaml(tmp_path / "bad.yaml", {"bound": {"name": "catoni", "banana": 1}})
        assert main(["bound", "compute", "--config", cfg]) == 2

    def test_vacuous_result_still_exits_0(self, tmp_path):
        cfg = compute_config(tmp_path, kl=float("inf"), model={"family": "bernoulli01"})
        out_path = tmp_path / "vac.csv"
        assert main(["bound", "compute", "--config", cfg, "--out", str(out_path)]) == 0
        _, rows = read_records(str(out_path))
        assert rows[0]["vacuous"] is True

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

    def test_an_information_valued_row_in_bits_converts_its_value_and_components(self, tmp_path):
        cfg = write_yaml(tmp_path / "mi.yaml", {"bound": {"name": "max-info-dp", "n": 100, "epsilon": 0.1}})
        rows = {}
        for unit in ("nats", "bits"):
            out_path = tmp_path / f"{unit}.jsonl"
            argv = ["bound", "compute", "--config", cfg, "--out", str(out_path), "--format", "json-lines"]
            assert main([*argv, "--unit", unit]) == 0
            header, (rows[unit],) = read_records(str(out_path))
            assert header["unit"] == unit
        nats, bits = rows["nats"], rows["bits"]
        assert nats["value"] == pytest.approx(10.0) and nats["components"] == {"value": nats["value"]}
        assert bits["value"] == nats["value"] / math.log(2.0)
        assert bits["components"] == {"value": nats["value"] / math.log(2.0)}


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


#: The bounds that sweep n in one call, with the rest of a valid config.
N_SWEEPS = {
    "zhang-gen-expectation": {"avg_kl": 1.3, "model": {"family": "sub_gamma", "sigma": 0.7, "c": 0.4}},
    "xu-raginsky": {"mi": 0.8, "sigma": 1.1},
    "subgamma-mi": {"mi": 0.8, "sigma": 1.1, "c": 0.3},
    "cmi-expectation": {"cmi": 2.0},
    "fano": {"cmi": 40.0},
    "max-info-dp": {"epsilon": 0.2, "alpha": 0.05},
}


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

    def test_a_beta_sweep_records_each_grid_point_as_beta(self, tmp_path):
        # union-beta picks its own beta; a record of a beta sweep still shows the grid point.
        bound = {"name": "union-beta", "n": 50, "delta": 0.1, "kl": 1.0, "empirical_risk": 0.2, "alpha": 2.0, "v": 5.0}
        grid = [0.1, 0.5, 2.0]
        cfg = write_yaml(tmp_path / "sweep.yaml", {"bound": bound, "sweep": {"parameter": "beta", "grid": grid}})
        out_path = tmp_path / "sweep.csv"
        assert main(["bound", "sweep", "--config", cfg, "--out", str(out_path)]) == 0
        _, rows = read_records(str(out_path))
        assert [r["beta"] for r in rows] == grid
        computed = tmp_path / "point.csv"
        assert main(["bound", "compute", "--config", write_yaml(tmp_path / "point.yaml", {"bound": bound}),
                     "--out", str(computed)]) == 0
        assert read_records(str(computed))[1][0]["beta"] not in grid

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

    @pytest.mark.parametrize("name", ["pac-bayes-kl", "union-beta", "catoni"])
    def test_a_kl_sweep_emits_what_each_point_computes(self, tmp_path, name):
        # The kl grid goes to the bound as rows in one call; each record must be the one-point record.
        extras = {"catoni": {"beta": 0.8}, "union-beta": {"alpha": 2.0, "v": 5.0}}.get(name, {})
        bound = {"name": name, "n": 50, "delta": 0.1, "empirical_risk": 0.2, **extras}
        grid = [0.0, 0.7, 3.0, 1e300, math.inf]
        cfg = write_yaml(tmp_path / "sweep.yaml", {"bound": bound, "sweep": {"parameter": "kl", "grid": grid}})
        swept = tmp_path / "sweep.csv"
        assert main(["bound", "sweep", "--config", cfg, "--out", str(swept)]) == 0
        lines = swept.read_text().splitlines()
        assert "np." not in swept.read_text()
        for i, kl in enumerate(grid):
            point = write_yaml(tmp_path / "point.yaml", {"bound": {**bound, "kl": kl}})
            computed = tmp_path / "point.csv"
            assert main(["bound", "compute", "--config", point, "--out", str(computed)]) == 0
            assert lines[-len(grid) + i] == computed.read_text().splitlines()[-1]

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize(
        "bound, parameter, grid",
        [
            ({"name": "occam", "n": 40, "beta": 0.7, "lam": 1.2, "hessian_eigenvalues": [0.0, 0.5, 2.0],
              "w_p": [0.1, -0.4, 0.9], "w_q": [0.0, 0.2, -0.3], "empirical_risk": 0.25},
             "delta", [1e-300, 0.005, 0.05, 0.3, 1.0]),
            ({"name": "pac-bayes-sgd", "n": 40, "beta": 2.5, "lam": 0.1, "alpha": 1.5, "b": 3, "c": 0.9,
              "m": 200, "delta": 0.05, "delta_prime": 0.05, "mc_empirical_risk": 0.2},
             "kl", [0.0, 0.7, 3.0, 1e300, math.inf]),
            *[({"name": name, **fields}, "n", [10, 57, 4999, 10**6, 2**60]) for name, fields in N_SWEEPS.items()],
        ],
        ids=["occam-delta", "pac-bayes-sgd-kl", *[f"{name}-n" for name in N_SWEEPS]],
    )
    def test_a_one_call_sweep_emits_what_each_point_computes(
        self, tmp_path, monkeypatch, bound, parameter, grid, fmt
    ):
        calls = []
        compute = cli.compute_named_bound
        monkeypatch.setattr(cli, "compute_named_bound", lambda cfg: calls.append(cfg) or compute(cfg))
        cfg = write_yaml(tmp_path / "sweep.yaml", {"bound": bound, "sweep": {"parameter": parameter, "grid": grid}})
        swept = tmp_path / "sweep.out"
        assert main(["bound", "sweep", "--config", cfg, "--out", str(swept), "--format", fmt]) == 0
        assert len(calls) == 1
        assert "np." not in swept.read_text()
        assert [row[parameter] for row in read_records(str(swept))[1]] == grid
        lines = swept.read_text().splitlines()
        for i, point in enumerate(grid):
            one = write_yaml(tmp_path / "point.yaml", {"bound": {**bound, parameter: point}})
            computed = tmp_path / "point.out"
            assert main(["bound", "compute", "--config", one, "--out", str(computed), "--format", fmt]) == 0
            assert lines[-len(grid) + i] == computed.read_text().splitlines()[-1]

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


OCCAM = {"name": "occam", "n": 50, "beta": 1.0, "delta": 0.1, "empirical_risk": 0.1,
         "hessian_eigenvalues": [1.0, 2.0], "w_p": [0.0, 0.0], "w_q": [0.1, 0.1], "lam": 1.0}
GRID_SWEEP = {"bound": {"name": "catoni", "n": 50, "delta": 0.1, "kl": 1.0, "empirical_risk": 0.2},
              "sweep": {"parameter": "beta", "grid": [0.5, 1.0]}}
EXPERIMENT = {"experiment": {"bound": "catoni", "beta": 1.0, "delta": 0.05, "trials": 100,
                             "algorithm": {"kind": "gibbs", "beta_alg": 5.0}, "prior": [0.25] * 4},
              "problem": STANDARD_PROBLEM}


def _with(config, section, field, value):
    """``config`` with ``section.field`` set to ``value``."""
    return {**config, section: {**config[section], field: value}}


class TestMalformedListFields:
    """A list-valued field with a non-numeric or ragged entry exits 2 naming the field, not 1 with a traceback."""

    @pytest.mark.parametrize(
        "command, config, section, field, value, message",
        [
            ("experiment", EXPERIMENT, "problem", "losses", [[0, 1], [1, 0], [0, 1], [1]],
             "a list of equally long lists of numbers"),
            ("experiment", EXPERIMENT, "problem", "mu", [0.5, "half"], "a list of numbers"),
            ("experiment", EXPERIMENT, "experiment", "prior", [0.25, 0.25, [0.25], 0.25], "a list of numbers"),
            ("sweep", GRID_SWEEP, "sweep", "grid", [0.5, "one"], "a list of numbers"),
            ("compute", {"bound": OCCAM}, "bound", "hessian_eigenvalues", [1.0, "two"], "a list of numbers"),
            ("compute", {"bound": OCCAM}, "bound", "w_p", [0.0, None], "a list of numbers"),
            ("compute", {"bound": OCCAM}, "bound", "w_q", [[0.1, 0.1], [0.1]], "a list of numbers"),
        ],
        ids=["losses", "mu", "prior", "grid", "hessian_eigenvalues", "w_p", "w_q"],
    )
    def test_a_malformed_list_exits_2_naming_the_field(
        self, tmp_path, capsys, command, config, section, field, value, message
    ):
        argv = {"experiment": ["experiment", "run"], "sweep": ["bound", "sweep"], "compute": ["bound", "compute"]}
        good = write_yaml(tmp_path / "good.yaml", config)
        assert main([*argv[command], "--config", good, "--out", str(tmp_path / "out.csv")]) == 0
        bad = write_yaml(tmp_path / "bad.yaml", _with(config, section, field, value))
        assert main([*argv[command], "--config", bad]) == 2
        assert f"error: {section}.{field} must be {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sweep, message",
        [
            ({"parameter": "beta", "start": 0.5, "stop": 1.0, "points": -1}, "sweep.points must be nonnegative"),
            ({"parameter": "beta", "start": 0, "stop": 1.0, "points": 3, "spacing": "log"},
             "sweep.start and sweep.stop must be positive for log spacing"),
        ],
        ids=["negative-points", "log-from-zero"],
    )
    def test_a_sweep_numpy_cannot_space_exits_2(self, tmp_path, capsys, sweep, message):
        cfg = write_yaml(tmp_path / "bad.yaml", {"bound": GRID_SWEEP["bound"], "sweep": sweep})
        assert main(["bound", "sweep", "--config", cfg]) == 2
        assert f"error: {message}" in capsys.readouterr().err


#: A value of each bound-field type, and a value of another type.
_TYPED_VALUES = {cli._NUM: (0.2, "text"), str: ("text", 0.2)}


class TestExperimentBoundFields:
    """An experiment config takes the table's fields of each certifiable bound, typed as in a bound section."""

    @pytest.mark.parametrize(
        "bound, field",
        [(name, field) for name, entry in BOUNDS.items() if entry.trial for field in entry.fields],
    )
    def test_a_bound_field_is_read_and_type_checked(self, tmp_path, capsys, bound, field):
        good, bad = _TYPED_VALUES[cli._BOUND_SCHEMA[field]]
        cfg = experiment_config(tmp_path, filename="good.yaml", bound=bound, **{field: good})
        assert load_config(cfg, "experiment")["experiment"][field] == good
        cfg = experiment_config(tmp_path, filename="bad.yaml", bound=bound, **{field: bad})
        assert main(["experiment", "run", "--config", cfg]) == 2
        assert f"error: experiment.{field} must be" in capsys.readouterr().err


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

    @pytest.mark.parametrize("offset", [math.nan, math.inf])
    def test_a_bound_offset_that_is_not_finite_exits_2(self, tmp_path, capsys, offset):
        # No truth exceeds a NaN bound: such a run used to pass with rate 0 and exit 0.
        cfg = experiment_config(tmp_path, filename="nan.yaml", bound="zhang", trials=200, bound_offset=offset)
        assert main(["experiment", "run", "--config", cfg]) == 2
        assert "bound_offset must be a finite number" in capsys.readouterr().err

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

    def test_dp_prior_needs_epsilon(self, tmp_path, capsys):
        cfg = experiment_config(tmp_path, filename="noeps.yaml", bound="dp-prior", trials=10)
        assert main(["experiment", "dp-prior", "--config", cfg]) == 2
        assert "experiment.epsilon" in capsys.readouterr().err

    def test_a_prior_for_the_private_prior_exits_2(self, tmp_path, capsys):
        # The bound is measured against the mechanism's prior: a configured prior used to be dropped.
        cfg = experiment_config(
            tmp_path, filename="prior.yaml", bound="dp-prior", epsilon=0.2, trials=10, prior=[0.97, 0.01, 0.01, 0.01]
        )
        assert main(["experiment", "dp-prior", "--config", cfg]) == 2
        assert "'dp-prior' measures against the private prior and does not read a prior" in capsys.readouterr().err

    def test_a_parameter_the_bound_does_not_read_exits_2(self, tmp_path, capsys):
        # zhang has no epsilon: the run used to certify zhang and drop the field.
        cfg = experiment_config(tmp_path, filename="eps.yaml", bound="zhang", epsilon=0.2, trials=10)
        assert main(["experiment", "run", "--config", cfg]) == 2
        assert "'zhang' does not read the parameter(s) epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, bound",
        [("run", "cmi"), ("run", "dp-prior"), ("cmi", "dp-prior"), ("dp-prior", "zhang"), ("run", "union-beta")],
    )
    def test_the_subcommand_must_match_the_bounds_trial(self, tmp_path, capsys, subcommand, bound):
        cfg = experiment_config(tmp_path, filename="other.yaml", bound=bound, epsilon=0.2, trials=10)
        assert main(["experiment", subcommand, "--config", cfg]) == 2
        assert "is not certified by the" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, fields",
        [("run", {"bound": "zhang"}), ("cmi", {"bound": "cmi", "beta": 0.3}),
         ("dp-prior", {"bound": "dp-prior", "epsilon": 0.2})],
    )
    def test_a_run_reports_what_certify_gives(self, tmp_path, subcommand, fields):
        cfg = experiment_config(tmp_path, filename="same.yaml", trials=200, **fields)
        out = tmp_path / "same.jsonl"
        assert main(["experiment", subcommand, "--config", cfg, "--out", str(out), "--format", "json-lines"]) == 0
        _, (row,) = read_records(str(out))
        params = {"beta": 1.0, **fields}
        bound = genbounds.BoundSpec(params.pop("bound"), params)
        problem = genbounds.FiniteProblem(
            losses=STANDARD_PROBLEM["losses"], mu=genbounds.DiscreteDist(STANDARD_PROBLEM["mu"]), n=50
        )
        config = genbounds.TrialConfig(
            seed=7, trials=200, problem=problem, algorithm=genbounds.GibbsAlgorithm(5.0), bound=bound, delta=0.05
        )
        report = genbounds.certify(config)
        assert {key: row[key] for key in ("violations", "rate", "bound_mean")} == {
            "violations": report.violations, "rate": report.rate, "bound_mean": report.bound_mean
        }

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

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_an_input_saved_with_a_bom_reads_past_it(self, tmp_path, capsys, fmt):
        path, bom = tmp_path / f"run.{fmt}", tmp_path / f"bom.{fmt}"
        cli.write_records(ODD_RECORDS, {"seed": 3}, str(path), fmt, "nats")
        bom.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        (header, rows), (bom_header, bom_rows) = read_records(str(path)), read_records(str(bom))
        assert bom_header == header and _same_value(bom_rows, rows)
        reported = []
        for source in (path, bom):
            merged = tmp_path / "merged.csv"
            assert main(["report", str(source), "--out", str(merged)]) == 0
            reported.append(merged.read_bytes().split(b"\n", 1)[1])
        assert reported[0] == reported[1]
        # A byte that is not UTF-8 is counted from the start of the file, the BOM included.
        bom.write_bytes(codecs.BOM_UTF8 + b"# genbounds {}\n\xff\n")
        assert main(["report", str(bom)]) == 2
        assert f"{bom} is not UTF-8 text (byte 18)" in capsys.readouterr().err

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

    def test_a_nan_beta_sorts_last_whatever_the_input_order(self, tmp_path):
        row = {"bound": "fano", "name": "fano", "n": 10, "delta": "", "kl": "", "value": 0.5, "vacuous": False}
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        cli.write_records([{**row, "beta": math.nan}, {**row, "beta": 2.0}], {}, a, "csv", "nats")
        cli.write_records([{**row, "beta": 1.0}], {}, b, "csv", "nats")
        merged = []
        for inputs in ([a, b], [b, a]):
            out = tmp_path / "merged.csv"
            assert main(["report", *inputs, "--out", str(out)]) == 0
            merged.append(out.read_bytes().split(b"\n", 1)[1])  # the header line names the inputs in order
        assert merged[0] == merged[1]
        assert [line.split(",")[3] for line in merged[0].decode().splitlines()[1:]] == ["1.0", "2.0", "nan"]

    def test_a_json_lines_report_writes_a_record_alike_from_a_csv_and_a_json_lines_input(self, tmp_path):
        # A CSV seed is an int, exact at 64 bits, and a CSV vacuous a bool, as a JSON-lines input holds them.
        records = [
            {"bound": "catoni", "name": "c", "n": 50, "beta": 0.5, "delta": 0.1, "kl": 1.0, "value": 0.25,
             "vacuous": False, "seed": 7},
            {"bound": "zhang", "name": "z", "n": 10, "beta": 2.0, "delta": "", "kl": "", "value": 1.0,
             "vacuous": True, "seed": 2**64 - 1},
        ]
        merged = []
        for fmt in ("csv", "json-lines"):
            path, out = str(tmp_path / f"in.{fmt}"), tmp_path / f"out.{fmt}"
            cli.write_records(records, {}, path, fmt, "nats")
            assert main(["report", path, "--format", "json-lines", "--out", str(out)]) == 0
            merged.append(out.read_text().splitlines()[1:])  # the header line names the input
        assert merged[0] == merged[1]
        assert [json.loads(line)["seed"] for line in merged[0]] == [7, 2**64 - 1]
        assert [json.loads(line)["vacuous"] for line in merged[0]] == [False, True]

    def emitted(self, tmp_path) -> list[str]:
        """CLI-emitted CSV and JSON-lines files holding -0.0, 5e-324, 1e-05, 1e+16, inf, nan and large n."""
        kl_sweep = {"bound": {"name": "catoni", "n": 50, "beta": 0.8, "delta": 0.1, "empirical_risk": 0.2},
                    "sweep": {"parameter": "kl", "grid": [-0.0, 5e-324, 1e-05, 1e16, math.inf]}}
        n_sweep = {"bound": {"name": "fano", "cmi": 1e-05, "beta": math.nan},
                   "sweep": {"parameter": "n", "grid": [10, 2**60, 10**15, 3]}}
        paths = []
        for i, config in enumerate((kl_sweep, n_sweep)):
            cfg = write_yaml(tmp_path / f"sweep{i}.yaml", config)
            for fmt in ("csv", "json-lines"):
                out = str(tmp_path / f"sweep{i}.{fmt}")
                assert main(["bound", "sweep", "--config", cfg, "--out", out, "--format", fmt]) == 0
                paths.append(out)
        return paths

    def test_a_csv_report_is_the_float_round_trip_of_its_inputs(self, tmp_path):
        # Read back as numbers, sorted and written again, every cell the CLI emits gives the text it had.
        odd = str(tmp_path / "odd.csv")  # quoted cells and missing columns: read through csv, not as lines
        cli.write_records(ODD_RECORDS, {}, odd, "csv", "nats")
        paths = [*self.emitted(tmp_path), odd]
        merged, reference = tmp_path / "merged.csv", tmp_path / "reference.csv"
        assert main(["report", *paths, "--out", str(merged)]) == 0
        rows = [row for path in paths for row in read_records(path)[1]]
        rows.sort(key=lambda row: (str(row.get("bound", "")), _key_number(row.get("n")), _key_number(row.get("beta"))))
        header = {"command": "report", "config": {"inputs": paths}, "seed": ""}
        cli.write_records(rows, header, str(reference), "csv", "nats")
        assert merged.read_bytes() == reference.read_bytes()
        for cell in (b",-0.0,", b",5e-324,", b",1e-05,", b",1e+16,", b",inf,", b",nan,", b",1152921504606846976,"):
            assert cell in merged.read_bytes()

    def test_a_hand_written_cell_passes_through_as_written(self, tmp_path):
        # Cells are not normalized: 0.10 stays 0.10 and 1e-3 stays 1e-3, from CSV, from quoted CSV and from JSON.
        head = '# genbounds {"unit": "nats"}\n' + ",".join(cli.CSV_HEADER) + "\n"
        lines = (tmp_path / "lines.csv", head + "catoni,catoni,50,1e-3,0.10,1.50,0.10,False,\n")
        quoted = (tmp_path / "quoted.csv", head + 'mcallester,"a, b",7,1,0.050,2.0E0,1e-3,False,\n')
        row = '{"bound": "zhang", "name": "z", "n": 5, "beta": 1e-3, "delta": 0.10, "kl": NaN, "value": 1E2}'
        json_lines = (tmp_path / "rows.jsonl", '{"record_type": "header", "unit": "nats"}\n' + row + "\n")
        for path, text in (lines, quoted, json_lines):
            path.write_text(text)
        out = tmp_path / "merged.csv"
        assert main(["report", str(lines[0]), str(quoted[0]), str(json_lines[0]), "--out", str(out)]) == 0
        assert out.read_text().splitlines()[2:] == [
            "catoni,catoni,50,1e-3,0.10,1.50,0.10,False,",
            'mcallester,"a, b",7,1,0.050,2.0E0,1e-3,False,',
            "zhang,z,5,1e-3,0.10,nan,1E2,,",
        ]

    def test_an_experiment_row_without_beta_writes_none(self, tmp_path):
        # CSV writes the beta as None and JSON lines as null; either reads back, and reports into JSON lines, as None.
        experiment = {"bound": "pac-bayes-kl", "delta": 0.05, "trials": 20, "seed": 7}
        cfg = write_yaml(tmp_path / "exp.yaml", {"experiment": experiment, "problem": dict(STANDARD_PROBLEM)})
        rows, reported = [], []
        for fmt in ("csv", "json-lines"):
            out, merged = tmp_path / f"exp.{fmt}", tmp_path / f"merged-{fmt}.jsonl"
            assert main(["experiment", "run", "--config", cfg, "--out", str(out), "--format", fmt]) in (0, 1)
            rows.append(read_records(str(out))[1][0])
            assert main(["report", str(out), "--out", str(merged), "--format", "json-lines"]) == 0
            reported.append(merged.read_text().splitlines()[-1])
        assert (tmp_path / "exp.csv").read_text().splitlines()[-1].startswith("pac-bayes-kl,pac-bayes-kl,50,None,0.05,,")
        from_csv, from_json = rows
        assert from_csv["beta"] is None and from_csv == {field: from_json[field] for field in cli.CSV_HEADER}
        assert all('"beta": null' in line for line in reported)
        from_csv, from_json = map(json.loads, reported)
        assert from_csv == {field: from_json[field] for field in from_csv}


def _key_number(value) -> float:
    """A sort-key number as ``report`` takes it: inf for a cell that is not a number or is NaN."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        return math.inf
    return math.inf if math.isnan(number) else number


def _reference_cell(value) -> str:
    """A CSV cell as it is written: ``repr`` for a float, ``str`` for anything else."""
    return repr(value) if isinstance(value, float) else str(value)


def _reference_text(rows: list[dict], header: dict, fmt: str) -> bytes:
    """The bytes of an emitted file, one ``_reference_cell`` or ``json.dumps`` call per cell or row."""
    if fmt == "json-lines":
        lines = [json.dumps({"record_type": "header", **header}, sort_keys=True)]
        lines += [json.dumps({"record_type": "row", **row}, sort_keys=True, default=str) for row in rows]
        return ("\n".join(lines) + "\n").encode()
    buf = io.StringIO()
    buf.write("# genbounds " + json.dumps(header, sort_keys=True) + "\n")
    writer = csv.writer(buf)
    writer.writerow(cli.CSV_HEADER)
    for row in rows:
        writer.writerow([_reference_cell(row.get(column, "")) for column in cli.CSV_HEADER])
    return buf.getvalue().encode()


#: Records with every kind of cell: labels with a comma, a quote and a newline, ints,
#: floats (+-inf, nan, -0.0, the smallest subnormal), bools, empty and None cells, and missing cells.
ODD_RECORDS = [
    {"bound": "catoni", "name": 'a, "quoted"\nlabel', "n": 50, "beta": 0.5, "delta": 0.1, "kl": 1e-300,
     "value": math.inf, "vacuous": True, "seed": 7, "components": {"x": -math.inf, "y": 0.1}},
    {"bound": "zhang", "name": "", "n": 3, "beta": None, "delta": "", "kl": math.nan, "value": -math.inf,
     "vacuous": False, "seed": "", "components": {}},
    {"bound": "delta", "name": "plain", "n": 12, "beta": 2.0, "delta": 0.30000000000000004, "kl": -0.0,
     "value": 5e-324, "vacuous": False, "seed": 0},
    {"bound": "fano", "name": "tail,", "value": 1e300, "n": 7},
]


#: The header line of a JSON-lines file.
JSON_HEADER = '{"record_type": "header"}\n'

#: A bound record whose cells the CSV writer leaves unquoted.
PLAIN_RECORD = {"bound": "catoni", "name": "plain", "n": 5, "beta": 1.0, "delta": 0.1, "kl": 0.0, "value": 0.5,
                "vacuous": False, "seed": ""}


class TestEmission:
    """Emitted bytes are the reference formatter's, and read back to what was written."""

    HEADER = {"command": "test", "config": {"label": "a,b"}, "seed": 1}

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_every_cell_is_written_as_the_reference_writes_it(self, tmp_path, fmt):
        path = tmp_path / "odd.out"
        cli.write_records(ODD_RECORDS, self.HEADER, str(path), fmt, "nats")
        assert path.read_bytes() == _reference_text(ODD_RECORDS, {**self.HEADER, "unit": "nats"}, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    def test_a_written_file_reads_back_and_rewrites_to_the_same_bytes(self, tmp_path, fmt):
        path, again = tmp_path / "odd.out", tmp_path / "again.out"
        cli.write_records(ODD_RECORDS, self.HEADER, str(path), fmt, "nats")
        header, rows = read_records(str(path))
        assert header == ({"record_type": "header"} if fmt == "json-lines" else {}) | self.HEADER | {"unit": "nats"}
        cli.write_records(rows, header, str(again), fmt, header["unit"])
        assert again.read_bytes() == path.read_bytes()
        if fmt == "json-lines":
            assert _same_value(rows, [{"record_type": "row", **record} for record in ODD_RECORDS])
            return
        first, second, third, fourth = rows
        assert first["name"] == ODD_RECORDS[0]["name"] and first["value"] == math.inf and first["n"] == 50
        assert (first["vacuous"], first["seed"]) == (True, 7)
        assert second["beta"] is None and second["delta"] == "" and math.isnan(second["kl"])
        assert third["delta"] == 0.30000000000000004 and third["value"] == 5e-324
        assert math.copysign(1.0, third["kl"]) == -1.0
        assert (fourth["name"], fourth["beta"], fourth["value"]) == ("tail,", "", 1e300)

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize(
        "name",
        ["a\x0bb\x0cc\x1cd\x1de\x1ef\x85g\u2028h\u2029i", "a\rb", "a\r\nb", "a\n\nb", "a\n \t\nb"],
        ids=["unicode", "cr", "crlf", "blank-line", "blanks-line"],
    )
    def test_a_cell_holding_a_unicode_line_break_reads_back_whole(self, tmp_path, fmt, name):
        # The CSV writer quotes \r and \n only; str.splitlines also breaks at the others.  A quoted cell's
        # \r, \r\n and blank lines are its own, as csv reads them.
        record = {**PLAIN_RECORD, "name": name}
        path = tmp_path / "one.out"
        cli.write_records([record], {}, str(path), fmt, "nats")
        assert [row["name"] for row in read_records(str(path))[1]] == [name]
        for out_fmt in ("csv", "json-lines"):
            merged = tmp_path / f"merged.{out_fmt}"
            assert main(["report", str(path), "--out", str(merged), "--format", out_fmt]) == 0
            assert [row["name"] for row in read_records(str(merged))[1]] == [name]

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize(
        "records", [ODD_RECORDS[1:3], [{**ODD_RECORDS[0], "name": 'a, "quoted" label'}, *ODD_RECORDS[1:]]],
        ids=["unquoted", "quoted"],
    )
    def test_crlf_and_lone_cr_line_ends_read_as_lf(self, tmp_path, fmt, records):
        # Unquoted CSV rows are kept as lines by a CSV report; quoted ones are read by csv.
        path = tmp_path / "lf.out"
        cli.write_records(records, self.HEADER, str(path), fmt, "nats")
        lf = path.read_bytes().replace(b"\r\n", b"\n")
        path.write_bytes(lf)
        header, rows = read_records(str(path))
        reported = []
        for eol in (b"\n", b"\r\n", b"\r"):
            other, merged = tmp_path / "other.out", tmp_path / "merged.csv"
            other.write_bytes(lf.replace(b"\n", eol))
            other_header, other_rows = read_records(str(other))
            assert other_header == header and _same_value(other_rows, rows)
            assert main(["report", str(other), "--out", str(merged)]) == 0
            reported.append(merged.read_bytes().split(b"\n", 1)[1])
        assert reported[0] == reported[1] == reported[2]

    @pytest.mark.parametrize("label", ["plain", '"a, b"'], ids=["unquoted", "quoted"])
    def test_a_line_of_blanks_is_skipped_and_a_row_of_empty_cells_kept(self, tmp_path, label):
        path, merged = tmp_path / "rows.csv", tmp_path / "merged.csv"
        catoni, zhang = f"catoni,{label},50,1.0,0.1,,0.5,False,", "zhang,z,5,,,,1.0,True,7"
        lines = [",".join(cli.CSV_HEADER), catoni, " \t", ",,,,,,,,", "", zhang, "\x0c"]
        path.write_bytes(('# genbounds {"unit": "nats"}\n' + "\r\n".join(lines) + "\r\n").encode())
        rows = read_records(str(path))[1]
        assert [row["bound"] for row in rows] == ["catoni", "", "zhang"]
        assert rows[1] == dict.fromkeys(cli.CSV_HEADER, "")
        assert main(["report", str(path), "--out", str(merged)]) == 0
        assert merged.read_text().splitlines()[2:] == [",,,,,,,,", catoni, zhang]

    @pytest.mark.parametrize(
        "text, options, message",
        [
            (JSON_HEADER + '{"a": 1}\n{"b": 2} {"c": 3}\n{"d": 4}\n', [], " line 3: malformed JSON (Extra data)"),
            (JSON_HEADER + '{"a": 1}\n{"b": 2},{"c": 3}\n', [], " line 3: malformed JSON (Extra data)"),
            (JSON_HEADER + '{"a": 1,\n"b": 2}\n', [],
             " line 2: malformed JSON (Expecting property name enclosed in double quotes)"),
            (JSON_HEADER + '{"a": 1}\n[1]\n', [], " line 3: expected a JSON object"),
            (JSON_HEADER + '{"a": 1}\n3\n{"b": 2}\n', [], " line 3: expected a JSON object"),
            (JSON_HEADER + '{"a": 1}\n\n{"b": }\n{"c": 3}\n', [], " line 4: malformed JSON (Expecting value)"),
            # A split object and a line of two objects would decode, joined, to one object per line.
            (JSON_HEADER + '{"a": [{"x": 1}\n{"y": 2}]}\n{"p": 1}, {"q": 2}\n', [],
             " line 2: malformed JSON (Expecting ',' delimiter)"),
            (JSON_HEADER + '{"a": 1}, {"b": 2\n"c": 3}\n', [], " line 2: malformed JSON (Extra data)"),
            # csv reads no cell past its field size limit: an emitted label that long (which a CSV report passes
            # through unread, as a line it would write the same), or the rest of a file after a quote left open.
            (_reference_text([{**PLAIN_RECORD, "name": "x" * 200_000}], {"unit": "nats"}, "csv").decode(),
             ["--format", "json-lines"], ": unreadable CSV (field larger than field limit (131072))"),
            ('# genbounds {}\n' + ",".join(cli.CSV_HEADER) + '\ncatoni,"open,5,1.0,0.1,0.0,0.5,False,\n'
             + "catoni,x,5,1.0,0.1,0.0,0.5,False,\n" * 20_000,
             [], ": unreadable CSV (field larger than field limit (131072))"),
        ],
        ids=["two-objects", "two-objects-comma", "split-object", "array", "number", "malformed-middle",
             "split-and-two", "two-and-split", "csv-label-past-the-limit", "csv-quote-left-open"],
    )
    def test_a_bad_row_is_refused_naming_its_file(self, tmp_path, capsys, text, options, message):
        path = tmp_path / "rows.out"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(f'{path}{message}')}$"):
            read_records(str(path))
        assert main(["report", str(path), *options]) == 2
        assert capsys.readouterr().err == f"error: {path}{message}\n"

    def test_json_rows_decode_as_each_line_alone_decodes(self, tmp_path):
        rows = ['{"a": 1}', '  {"b": "[x]", "c": [1, 2]}  ', '{"d": {"e": "},{"}}', '{"f": NaN}']
        path = tmp_path / "rows.jsonl"
        # All four lines decode one by one (a line holds a "["); the last two are decoded joined.
        for lines in (rows, rows[2:]):
            path.write_text('{"record_type": "header"}\n' + "\n".join(lines) + "\n")
            assert _same_value(read_records(str(path))[1], [json.loads(line) for line in lines])


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

    @pytest.mark.parametrize("eol, bom", [("\r\n", ""), ("\r", ""), ("\n", "\ufeff")], ids=["crlf", "cr", "bom"])
    def test_a_config_with_crlf_or_cr_line_ends_or_a_bom_loads_as_with_lf(self, tmp_path, eol, bom):
        text = (
            "bound:\n  name: zhang\n  label: |\n    x\n    y\n  variant: \"a\n    b\"\n"
            "  model: {family: sub_gaussian,\n    sigma: 0.5}\n  hessian_eigenvalues:\n    - 1.0\n    - 2\n"
        )
        lf, other = tmp_path / "lf.yaml", tmp_path / "other.yaml"
        lf.write_bytes(text.encode())
        other.write_bytes((bom + text.replace("\n", eol)).encode())
        expected = {"name": "zhang", "label": "x\ny\n", "variant": "a b",
                    "model": {"family": "sub_gaussian", "sigma": 0.5}, "hessian_eigenvalues": [1.0, 2]}
        assert load_config(str(lf), "compute") == load_config(str(other), "compute") == {"bound": expected}

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
