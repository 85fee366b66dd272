"""Command-line front end: bound evaluation, sweeps, certification runs, reports.

Configuration comes from a YAML file, read with PyYAML's safe loader (through
libyaml when PyYAML has it) and validated against the schemas below; unknown
keys are rejected, and a config that cannot be read or parsed is a
configuration error, as is a ``report`` input that cannot be read.  Output rows carry the fixed columns
``bound,name,n,beta,delta,kl,value,vacuous,seed`` as CSV or JSON lines, and
every emitted file embeds its configuration and seed so reports are
reproducible.  Exit codes: 0 success, 1 certification failure, 2 usage or
configuration error.

``bound sweep`` and ``report`` work a column at a time.  A sweep over a
field that the bound's table entry evaluates as rows is one bound call (``kl``
for the bounds that take a request, ``n`` for the six expectation bounds),
and the records of any sweep are read off its results' columns.  CSV is
written from zipped columns and read back a numeric column at a time, and
the rows of a JSON-lines file are decoded with one ``json.loads`` when that
is safe.  A CSV ``report`` writes every cell as the text it read, parsing
only its (bound, n, beta) sort key: a CSV input that the writer would write
back line for line is kept as lines, and JSON float tokens are read as their
text.  So a cell passes through as written, ``0.10`` included.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import itertools
import json
import math
import re
import sys

import numpy as np
import yaml

from . import bounds as bound_ops
from .divergences import DiscreteDist
from .errors import ConfigurationError, GenBoundsError, _is_real
from .harness import (
    BoundSpec,
    ErmAlgorithm,
    GibbsAlgorithm,
    TrialConfig,
    _of_trial,
    certify,
)
from .problems import FiniteProblem
from .registry import BOUNDS, _require

CSV_HEADER = ("bound", "name", "n", "beta", "delta", "kl", "value", "vacuous", "seed")

_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# Config schema validation
# ---------------------------------------------------------------------------

_NUM = (int, float)
#: List-valued fields, named by what they must hold.
_VECTOR = "a list of numbers"
_MATRIX = "a list of equally long lists of numbers"

_MODEL_SCHEMA = {"family": str, "sigma": _NUM, "c": _NUM}

_BOUND_SCHEMA = {
    "name": str,
    "label": str,
    "n": int,
    "beta": _NUM,
    "delta": _NUM,
    "kl": _NUM,
    "empirical_risk": _NUM,
    "model": _MODEL_SCHEMA,
    "epsilon": _NUM,
    "alpha": _NUM,
    "v": _NUM,
    "mi": _NUM,
    "cmi": _NUM,
    "avg_kl": _NUM,
    "sigma": _NUM,
    "c": _NUM,
    "variant": str,
    "moment_bound": _NUM,
    "hessian_eigenvalues": _VECTOR,
    "w_p": _VECTOR,
    "w_q": _VECTOR,
    "lam": _NUM,
    "b": int,
    "m": int,
    "delta_prime": _NUM,
    "mc_empirical_risk": _NUM,
}

_SWEEP_SCHEMA = {
    "parameter": str,
    "grid": _VECTOR,
    "start": _NUM,
    "stop": _NUM,
    "points": int,
    "spacing": str,
}

_ALGORITHM_SCHEMA = {"kind": str, "beta_alg": _NUM, "tie_break": str}

_PROBLEM_SCHEMA = {"losses": _MATRIX, "mu": _VECTOR, "n": int}

_EXPERIMENT_SCHEMA = {
    "bound": str,
    "label": str,
    "beta": _NUM,
    "delta": _NUM,
    "trials": int,
    "seed": int,
    "epsilon": _NUM,
    "bound_offset": _NUM,
    "algorithm": _ALGORITHM_SCHEMA,
    "prior": _VECTOR,
}

#: The experiment fields that set up the run; every other one is a bound parameter, for ``BoundSpec.params``.
_RUN_FIELDS = ("bound", "label", "delta", "trials", "seed", "bound_offset", "algorithm", "prior")

_OUTPUT_SCHEMA = {"unit": str, "path": str, "format": str}

_TOP_SCHEMAS = {
    "compute": {"bound": _BOUND_SCHEMA, "output": _OUTPUT_SCHEMA},
    "sweep": {"bound": _BOUND_SCHEMA, "sweep": _SWEEP_SCHEMA, "output": _OUTPUT_SCHEMA},
    "experiment": {
        "experiment": _EXPERIMENT_SCHEMA,
        "problem": _PROBLEM_SCHEMA,
        "output": _OUTPUT_SCHEMA,
    },
}


def _validate(data, schema, path: str) -> None:
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path or 'config'} must be a mapping")
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigurationError(f"unknown config field: {where}")
        expected = schema[key]
        if isinstance(expected, dict):
            _validate(value, expected, where)
        elif expected is _NUM or expected == _NUM:
            if not _is_real(value):
                raise ConfigurationError(f"{where} must be a number")
        elif expected is _VECTOR or expected is _MATRIX:
            rows = value if expected is _MATRIX and isinstance(value, list) else [value]
            numeric = all(isinstance(row, list) and all(map(_is_real, row)) for row in rows)
            if not numeric or len({len(row) for row in rows}) > 1:
                raise ConfigurationError(f"{where} must be {expected}")
        elif not isinstance(value, expected) or isinstance(value, bool) and expected is int:
            raise ConfigurationError(f"{where} must be of type {getattr(expected, '__name__', expected)}")


def _config_loader(base: type) -> type:
    """``base`` reading a dotless exponent such as ``1e-3`` as a float, as YAML 1.2 does.

    YAML 1.1's float pattern needs a dot, so PyYAML reads ``1e-3`` as a
    string.  The extra resolver comes after the stock ones, so every scalar
    they resolve, integers included, keeps its type.
    """
    loader = type(f"Config{base.__name__}", (base,), {})
    loader.add_implicit_resolver(
        "tag:yaml.org,2002:float", re.compile(r"^[-+]?[0-9][0-9_]*[eE][-+]?[0-9]+$"), list("-+0123456789")
    )
    return loader


#: PyYAML's safe loader, through libyaml when PyYAML was built with it.  Both
#: loaders share ``SafeConstructor`` and ``Resolver``, so a config loads to
#: the same values either way.
_YAML_LOADER = _config_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of ``path``; a file that cannot be read or decoded is a ``ConfigurationError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{what} is not UTF-8 text (byte {exc.start})") from exc


def load_config(path: str, kind: str) -> dict:
    """Read and validate a YAML config; any failure to read or parse it is a ``ConfigurationError``."""
    text = _read_text(path, f"config {path}")
    try:
        data = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = " ".join(filter(None, (getattr(exc, "context", None), getattr(exc, "problem", None))))
        raise ConfigurationError(f"cannot parse config {path}: {problem or exc}{where}") from exc
    if data is None:
        data = {}
    _validate(data, _TOP_SCHEMAS[kind], "")
    return data


# ---------------------------------------------------------------------------
# Bound dispatch
# ---------------------------------------------------------------------------


def compute_named_bound(cfg: dict) -> bound_ops.BoundResult:
    """Evaluate one named bound from a flat config mapping."""
    name = _require(cfg, "name", "bound")
    if name not in BOUNDS:
        raise ConfigurationError(f"unknown bound name: {name!r}")
    return BOUNDS[name].evaluate(cfg)


# ---------------------------------------------------------------------------
# Records and emission
# ---------------------------------------------------------------------------


#: The fields of a bound record: the CSV columns, then the components JSON lines also carry.
_RECORD_FIELDS = (*CSV_HEADER, "components")


def _result_columns(results: list[bound_ops.BoundResult]) -> tuple[list, list, list, list]:
    """The values, vacuity flags, betas used and components of every row of ``results``.

    ``results`` is one row result, or one-row results in row order.
    """
    if len(results) == 1 and isinstance(results[0].value, np.ndarray):
        (result,) = results
        size, names = len(result.value), list(result.components)
        rows = zip(*(column.tolist() for column in result.components.values()))
        beta = result.beta_used
        betas = beta.tolist() if isinstance(beta, np.ndarray) else [beta] * size
        return result.value.tolist(), result.vacuous.tolist(), betas, [dict(zip(names, row)) for row in rows]
    return (
        [result.value for result in results],
        [result.vacuous for result in results],
        [result.beta_used for result in results],
        [dict(result.components) for result in results],
    )


def _records(
    cfg: dict, results: list[bound_ops.BoundResult], seed=None, parameter: str | None = None, unit: str = "nats"
) -> list[dict]:
    """The records of ``results``, one per row, read off its columns (see :func:`_result_columns`).

    ``parameter`` is the field a sweep set; ``cfg`` holds its points as a
    list, one per row, and each record shows its own point, even where the
    bound reports the beta it used.  Any other field is the same in
    every record.  In ``bits`` the ``kl`` column is converted, and so are the
    values and every component of an information-valued bound.
    """
    values, vacuous, betas, components = _result_columns(results)
    size = len(values)

    def column(field: str, default="") -> list:
        value = cfg.get(field, default)
        if field == parameter:
            return value
        if field == "kl" and value != "":
            value = float(value)
        return [value] * size

    if parameter == "beta":
        betas = column("beta")
    else:
        fallback = cfg.get("beta", "")
        betas = [fallback if beta is None else beta for beta in betas]
    name = cfg.get("name", "")
    kl = column("kl")
    if unit == "bits":
        kl = [cell / _LN2 if isinstance(cell, float) else cell for cell in kl]
        if name in BOUNDS and BOUNDS[name].info_valued:
            values = [value / _LN2 for value in values]
            components = [{key: part / _LN2 for key, part in parts.items()} for parts in components]
    columns = [
        [name] * size,
        column("label", name),
        column("n"),
        betas,
        column("delta"),
        kl,
        values,
        vacuous,
        [seed if seed is not None else ""] * size,
        components,
    ]
    return [dict(zip(_RECORD_FIELDS, row)) for row in zip(*columns)]


def _csv_column(rows: list[dict], name: str) -> list:
    """The cells of column ``name``; a missing cell is ``''``.

    The CSV writer writes a float as its ``repr`` and anything else as its
    ``str``, except ``None``, which it writes as ``''``: a ``None`` cell is
    written as ``None`` here, as ``str`` gives it.
    """
    cells = [row.get(name, "") for row in rows]
    return ["None" if cell is None else cell for cell in cells] if None in cells else cells


#: One encoder for every JSON-lines row; ``json.dumps`` with options builds a new one per call.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, default=str)


def write_records(records: list[dict | str], header: dict, path, fmt: str, unit: str) -> None:
    """Emit rows, already in ``unit``, with the embedded configuration header in CSV or JSON lines.

    The header records the unit.  The CSV writer gets each run of records
    as zipped columns; a CSV record may also be a line that ``report`` kept
    whole, which is its cells as the writer writes them, and is written as
    it is.  An output file that cannot be written is a
    ``ConfigurationError`` naming the path.
    """
    header = dict(header, unit=unit)
    if fmt == "json-lines":
        lines = [json.dumps({"record_type": "header", **header}, sort_keys=True)]
        lines += [_ROW_ENCODER.encode({"record_type": "row", **row}) for row in records]
        text = "\n".join(lines) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        buf.write("# genbounds " + json.dumps(header, sort_keys=True) + "\n")
        writer = csv.writer(buf)
        writer.writerow(CSV_HEADER)
        for whole, run in itertools.groupby(records, key=lambda record: isinstance(record, str)):
            if whole:
                buf.write("\r\n".join(run) + "\r\n")
            else:
                run = list(run)
                writer.writerows(zip(*(_csv_column(run, name) for name in CSV_HEADER)))
        text = buf.getvalue()
    else:
        raise ConfigurationError(f"unknown format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from exc


#: ``json.loads`` keeping each float token as its text, and NaN and the infinities as CSV writes them.
_TEXT_LOADS = functools.partial(
    json.loads, parse_float=str, parse_constant={"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}.__getitem__
)


def _json_record(path: str, number: int, text: str, loads=json.loads) -> dict:
    """The JSON object on line ``number`` of ``path``, by ``loads``; anything else is a ``ConfigurationError``."""
    try:
        record = loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} line {number}: malformed JSON ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise ConfigurationError(f"{path} line {number}: expected a JSON object")
    return record


def _json_rows(path: str, numbered: list[tuple[int, str]], loads=json.loads) -> list[dict]:
    """The JSON object of each numbered line, decoded by ``loads``, with one call where that is safe.

    The lines are decoded as one array, joined by a comma and a newline, when
    every line starts with ``{`` and none holds a ``[``.  A string cannot
    span a raw newline, and with no nested array a line left open ends inside
    an object, where the next line's ``{`` cannot follow a comma; so an array
    of exactly one element per line holds each line's own object.  Anything
    else is decoded line by line, so an error names its line.
    """
    text = ",\n".join(line for _, line in numbered)
    if text.startswith("{") and "[" not in text and text.count(",\n{") == len(numbered) - 1:
        try:
            records = loads("[" + text + "]")
        except json.JSONDecodeError:
            pass
        else:
            if len(records) == len(numbered):
                return records
    return [_json_record(path, number, line, loads) for number, line in numbered]


#: CSV columns read back as numbers; an ``n`` or ``seed`` that is a whole number is read as an int.
_NUMERIC_COLUMNS = ("n", "beta", "delta", "kl", "value", "seed")
#: The ``vacuous`` cells read back as bools; any other cell stays as it is.
_BOOLS = {"True": True, "False": False}


def _number(cell, integral: bool):
    """``cell`` as a number; an empty cell, or one that is not a number, as it is."""
    if not cell:
        return cell
    try:
        number = float(cell)
    except ValueError:
        return cell
    if integral and number.is_integer():
        return int(cell) if cell.isdecimal() else int(number)  # digits read exactly, as a 64-bit seed needs
    return number


def _csv_rows(lines: list[str], text: bool = False) -> list[dict]:
    """The rows under the CSV header line, as ``csv.DictReader`` gives them.

    Unless ``text``, cells are read as :func:`read_records` reads them.  A
    short row is padded with ``None``; a long row keeps its extra cells
    under the key ``None``.
    """
    table = [row for row in csv.reader(io.StringIO("\n".join(lines))) if row]
    if not table:
        return []
    fields, *table = table
    width = len(fields)
    padded = [row if len(row) == width else (row + [None] * width)[:width] for row in table]
    if not text:
        columns = [
            [_number(cell, field in ("n", "seed")) for cell in column] if field in _NUMERIC_COLUMNS
            else [_BOOLS.get(cell, cell) for cell in column] if field == "vacuous"
            else column
            for field, column in zip(fields, zip(*padded))
        ]
        padded = zip(*columns)
    rows = [dict(zip(fields, values)) for values in padded]
    for row, cells in zip(rows, table):
        if len(cells) > width:
            row[None] = cells[width:]
    return rows


#: The header line of every CSV file that :func:`write_records` writes.
_CSV_HEADER_LINE = ",".join(CSV_HEADER)


def read_records(path: str) -> tuple[dict, list[dict]]:
    """Read back an emitted file; returns (header, rows).

    Cells are read as JSON lines hold them: a CSV ``n`` or ``seed`` that is
    a whole number as an int, the other numeric CSV columns and every JSON
    float as floats, and a CSV ``vacuous`` of ``True`` or ``False`` as a
    bool, so a record reads the same from either format.  A
    file that cannot be read, is not UTF-8 or holds a malformed JSON header
    or row is a ``ConfigurationError`` naming the path (and the line).
    """
    return _read(path, text=False)


def _read(path: str, text: bool) -> tuple[dict, list]:
    """:func:`read_records`, or with ``text`` every cell as the text it was read as.

    As text, a CSV cell is what ``csv`` gives, a JSON float token is as
    written, and JSON's NaN and infinities are as CSV writes them (``nan``,
    ``inf``, ``-inf``).  A CSV file that the writer would write back line for
    line, its header ``CSV_HEADER`` and no line holding a quote or other than
    one cell per column, gives its lines instead of records, each kept whole.
    """
    # The text is read with universal newlines, so every line ends in "\n"; str.splitlines would also break
    # at characters such as \x0c and \u2028, which the CSV writer leaves unquoted inside a cell.
    numbered = [(i, line) for i, line in enumerate(_read_text(path, path).split("\n"), 1) if line.strip()]
    if not numbered:
        raise ConfigurationError(f"{path} is empty")
    number, first = numbered[0]
    if first.startswith("{"):
        header = _json_record(path, number, first)
        if header.get("record_type") != "header":
            raise ConfigurationError(f"{path} lacks a header record")
        return header, _json_rows(path, numbered[1:], _TEXT_LOADS if text else json.loads)
    if first.startswith("# genbounds "):
        header = _json_record(path, number, first[len("# genbounds "):])
        lines = [line for _, line in numbered[1:]]
        # Unquoted, each line is its cells joined by commas, which is how the writer writes them.
        commas = len(CSV_HEADER) - 1
        if text and lines[:1] == [_CSV_HEADER_LINE] and all('"' not in x and x.count(",") == commas for x in lines):
            return header, lines[1:]
        return header, _csv_rows(lines, text)
    raise ConfigurationError(f"{path} does not look like an emitted report")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _output_options(config: dict, args) -> tuple[str | None, str, str]:
    out_cfg = config.get("output", {})
    path = args.out or out_cfg.get("path")
    unit = args.unit or out_cfg.get("unit", "nats")
    fmt = args.format or out_cfg.get("format", "csv")
    if unit not in ("nats", "bits"):
        raise ConfigurationError("unit must be 'nats' or 'bits'")
    if fmt not in ("csv", "json-lines"):
        raise ConfigurationError("format must be 'csv' or 'json-lines'")
    return path, unit, fmt


def cmd_bound_compute(args) -> int:
    config = load_config(args.config, "compute")
    cfg = _require(config, "bound", "config")
    path, unit, fmt = _output_options(config, args)
    records = _records(cfg, [compute_named_bound(cfg)], args.seed, unit=unit)
    write_records(records, {"command": "bound compute", "config": config, "seed": args.seed}, path, fmt, unit)
    return 0


_SWEEPABLE = ("beta", "n", "kl", "delta")


def _sweep_grid(sweep: dict) -> list[float]:
    """The sweep's points as Python floats."""
    if "grid" in sweep:
        return [float(g) for g in sweep["grid"]]
    for key in ("start", "stop", "points"):
        if key not in sweep:
            raise ConfigurationError("sweep needs either a grid or start/stop/points")
    if sweep["points"] < 0:
        raise ConfigurationError("sweep.points must be nonnegative")
    spacing = sweep.get("spacing", "linear")
    if spacing == "log" and not (sweep["start"] > 0 and sweep["stop"] > 0):
        raise ConfigurationError("sweep.start and sweep.stop must be positive for log spacing")
    if spacing == "linear":
        return np.linspace(sweep["start"], sweep["stop"], sweep["points"]).tolist()
    if spacing == "log":
        return np.geomspace(sweep["start"], sweep["stop"], sweep["points"]).tolist()
    raise ConfigurationError("spacing must be 'linear' or 'log'")


def cmd_bound_sweep(args) -> int:
    """Evaluate one bound at every point of a grid over one parameter, a record per point.

    A parameter that the bound's table entry lists in ``rows`` is swept in
    one call, on the grid as rows of it: ``kl`` for every bound that takes a
    request and for ``pac-bayes-sgd``, ``delta`` for ``occam``, ``n`` for the
    six expectation bounds.  Each row is the value a one-point call gives.
    Any other sweep calls the bound once per point.  Either way the records
    are read off the results' columns, and an ``n`` point, which must be a
    whole number, is recorded as an integer.
    """
    config = load_config(args.config, "sweep")
    cfg = dict(_require(config, "bound", "config"))
    sweep = _require(config, "sweep", "config")
    parameter = _require(sweep, "parameter", "sweep")
    if parameter not in _SWEEPABLE:
        raise ConfigurationError(f"sweep parameter must be one of {_SWEEPABLE}")
    grid = _sweep_grid(sweep)
    if not grid:
        raise ConfigurationError("sweep grid is empty")
    if parameter == "n":
        for point in grid:
            if not point.is_integer():
                raise ConfigurationError(f"sweep points for n must be integers; got {point}")
        grid = [int(point) for point in grid]
    entry = BOUNDS.get(cfg.get("name"))
    if entry is not None and parameter in entry.rows:
        # A float row holds each n exactly: every n is the int of a whole float.
        cfg[parameter] = np.array(grid, dtype=float)
        results = [compute_named_bound(cfg)]
    else:
        results = []
        for point in grid:
            cfg[parameter] = point
            results.append(compute_named_bound(cfg))
    cfg[parameter] = grid
    path, unit, fmt = _output_options(config, args)
    records = _records(cfg, results, args.seed, parameter, unit)
    write_records(records, {"command": "bound sweep", "config": config, "seed": args.seed}, path, fmt, unit)
    return 0


def _problem_from(config: dict) -> FiniteProblem:
    section = _require(config, "problem", "config")
    return FiniteProblem(
        losses=np.asarray(_require(section, "losses", "problem"), float),
        mu=DiscreteDist(np.asarray(_require(section, "mu", "problem"), float)),
        n=_require(section, "n", "problem"),
    )


def _algorithm_from(cfg: dict | None):
    if cfg is None:
        return ErmAlgorithm()
    kind = _require(cfg, "kind", "experiment.algorithm")
    if kind == "erm":
        return ErmAlgorithm(tie_break=cfg.get("tie_break", "lowest"))
    if kind == "gibbs":
        return GibbsAlgorithm(beta_alg=_require(cfg, "beta_alg", "experiment.algorithm"))
    raise ConfigurationError("algorithm kind must be 'erm' or 'gibbs'")


def _trial_config(config: dict, args) -> tuple[TrialConfig, dict]:
    section = _require(config, "experiment", "config")
    problem = _problem_from(config)
    seed = args.seed if args.seed is not None else section.get("seed", 0)
    trials = args.trials if args.trials is not None else section.get("trials", 1000)
    prior = section.get("prior")
    trial_config = TrialConfig(
        seed=seed,
        trials=trials,
        problem=problem,
        algorithm=_algorithm_from(section.get("algorithm")),
        bound=BoundSpec(
            name=_require(section, "bound", "experiment"),
            params={"beta": None, **{k: v for k, v in section.items() if k not in _RUN_FIELDS}},
        ),
        delta=_require(section, "delta", "experiment"),
        prior=DiscreteDist(np.asarray(prior, float)) if prior is not None else None,
        bound_offset=section.get("bound_offset", 0.0),
    )
    return trial_config, section


def cmd_experiment(args) -> int:
    """Certify the configured bound; the harness refuses a bound that the subcommand's trial does not check."""
    config = load_config(args.config, "experiment")
    trial_config, section = _trial_config(config, args)
    report = certify(_of_trial(trial_config, args.trial_kind))
    path, unit, fmt = _output_options(config, args)
    record = {
        "bound": trial_config.bound.name,
        "name": section.get("label", trial_config.bound.name),
        "n": trial_config.problem.n,
        "beta": trial_config.bound.params.get("beta", ""),
        "delta": trial_config.delta,
        "kl": "",
        "value": report.clopper_pearson_upper_95,
        "vacuous": False,
        "seed": trial_config.seed,
        **{k: v for k, v in dataclasses.asdict(report).items()},
    }
    header = {"command": "experiment", "config": config, "seed": trial_config.seed}
    write_records([record], header, path, fmt, unit)
    certified = report.certified(trial_config.delta)
    status = "PASS" if certified else "FAIL"
    print(
        f"[{status}] {trial_config.bound.name}: rate={report.rate:.6f} "
        f"cp95={report.clopper_pearson_upper_95:.6f} delta={trial_config.delta}",
        file=sys.stderr,
    )
    return 0 if certified else 1


def _sort_number(value) -> float:
    """``value`` as a number for a sort key; one that is not a number, or is NaN, as inf, which sorts last."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        return math.inf
    return math.inf if math.isnan(number) else number


def _sort_key(row: dict | str) -> tuple[str, float, float]:
    """(bound, n, beta) of a record, or of a CSV line kept whole; n and beta as :func:`_sort_number` gives them."""
    if isinstance(row, str):
        bound, _, n, beta, _ = row.split(",", 4)
        return bound, _sort_number(n), _sort_number(beta)
    return str(row.get("bound", "")), _sort_number(row.get("n")), _sort_number(row.get("beta"))


def cmd_report(args) -> int:
    """Merge emitted files, of one unit, into one sorted by (bound, n, beta).

    A CSV report writes every cell as the text it read, and parses only the
    sort key; JSON lines are written from numbers, so for them the inputs
    are read as numbers.
    """
    fmt = args.format or "csv"
    units, rows = set(), []
    for path in args.inputs:
        header, file_rows = _read(path, text=fmt == "csv")
        unit = header.get("unit", "nats")
        if unit not in ("nats", "bits"):
            raise ConfigurationError(f"{path}: header unit must be 'nats' or 'bits'; got {unit!r}")
        units.add(unit)
        rows.extend(file_rows)
    if len(units) > 1:
        raise ConfigurationError(f"refusing to merge mixed units: {sorted(units)}")
    rows.sort(key=_sort_key)
    merged_header = {"command": "report", "config": {"inputs": list(args.inputs)}, "seed": ""}
    write_records(rows, merged_header, args.out, fmt, units.pop())
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="genbounds", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="YAML configuration file")
        p.add_argument("--seed", type=int, default=None, help="64-bit experiment seed")
        p.add_argument("--out", default=None, help="output path (stdout when omitted)")
        p.add_argument("--unit", choices=("nats", "bits"), default=None)
        p.add_argument("--format", choices=("csv", "json-lines"), default=None)

    bound = sub.add_parser("bound", help="evaluate closed-form bounds").add_subparsers(
        dest="subcommand", required=True
    )
    compute = bound.add_parser("compute", help="evaluate one named bound")
    add_common(compute)
    compute.set_defaults(handler="cmd_bound_compute")
    sweep = bound.add_parser("sweep", help="evaluate a bound over a parameter grid")
    add_common(sweep)
    sweep.set_defaults(handler="cmd_bound_sweep")

    experiment = sub.add_parser("experiment", help="run certification experiments").add_subparsers(
        dest="subcommand", required=True
    )
    for name, trial_kind in (("run", "plain"), ("cmi", "supersample"), ("dp-prior", "private-prior")):
        p = experiment.add_parser(name)
        add_common(p)
        p.add_argument("--trials", type=int, default=None, help="number of trials")
        p.set_defaults(handler="cmd_experiment", trial_kind=trial_kind)

    report = sub.add_parser("report", help="merge emitted report files")
    report.add_argument("inputs", nargs="+", help="previously emitted report files")
    report.add_argument("--out", default=None)
    report.add_argument("--format", choices=("csv", "json-lines"), default=None)
    report.set_defaults(handler="cmd_report")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # The parser names its handler; looking the name up when the command runs
    # finds the module attribute as it is now, wrapped or patched.
    handler = globals()[args.handler]
    try:
        return handler(args)
    except GenBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
