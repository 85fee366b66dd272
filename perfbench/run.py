"""genbounds benchmark: certification throughput, exact-check time, bound sweeps, set-up.

Run from the repository root:

    python3 perfbench/run.py --workload certify-coin --seed 1 --seconds 16 --trace 0

A run repeats rounds until ``--seconds`` have passed.  Each round runs the
workload's certifications, exact checks and bound sweeps on inputs drawn from
(seed, round), times every operation, and checks the outputs afterwards.
Every operation is timed between two runs of the fixed reference work in
``reference.py`` and its seconds are stated at the reference speed, because
the cores of the two-vCPU development host change speed by up to 2x within a
second.  An end-to-end metric sums, over the workload's fixed set of
operations, each operation's median over the rounds.  With ``--trace 1``
rounds alternate between untraced and traced, and the last line reports
per-layer metrics (per traced round) and the tracing overhead instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; provenance comes first.
``--acceptance`` instead reruns the acceptance configuration (seed 20240817,
10^4 trials) and checks its violation counts.
"""

from __future__ import annotations

import os

# One BLAS thread: every timed operation is single-threaded Python and NumPy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "genbounds" / "__init__.py").is_file():
    _fail(f"no genbounds sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np
import scipy
import yaml

_IMPORT_START = time.perf_counter()
import genbounds
import genbounds.cli as cli
IMPORT_S = time.perf_counter() - _IMPORT_START

if Path(genbounds.__file__).resolve().parent != (SRC / "genbounds").resolve():
    _fail(f"imported genbounds from {genbounds.__file__}, not from {SRC}")

import reference
import spans
import sweeps
import workloads as wl

SETUP_REPEATS = 5
#: Reference timings whose median gauges the core's speed around a set-up.
GAUGE_REPEATS = 9
IMPORT_SNIPPET = "import genbounds, genbounds.cli"


class Ledger:
    """Attempted operations and the reasons any of them failed."""

    def __init__(self) -> None:
        self.ops: dict[str, list[str]] = {}

    def attempt(self, label: str) -> None:
        self.ops.setdefault(label, [])

    def fail(self, label: str, reason: str) -> None:
        self.ops.setdefault(label, []).append(reason)

    def call(self, label: str, fn, *args):
        """Run one operation; returns (result or None if it raised, seconds)."""
        self.attempt(label)
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # every failure is counted, none ends the run
            result = None
            self.fail(label, f"raised {exc!r}")
        return result, time.perf_counter() - start

    @property
    def failed(self) -> list[str]:
        return [f"{label}: {'; '.join(reasons)}" for label, reasons in self.ops.items() if reasons]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _fresh(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run a fresh interpreter to completion; a timeout is reported as exit code -1."""
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=60
        )
    except subprocess.TimeoutExpired:
        done = subprocess.CompletedProcess(argv, -1, "", "timed out after 60 s")
    return time.perf_counter() - start, done


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def _gauge() -> float:
    return statistics.median(reference.reference() for _ in range(GAUGE_REPEATS))


def measure_setup(workload: wl.Workload, ledger: Ledger, work: Path, rng) -> tuple[float, float]:
    """Fresh interpreters up to their first operation: (median at reference speed, raw median)."""
    if workload.cli_setup:
        name, config = sweeps.sweep_configs(rng, 1)[0]
        bound = dict(config["bound"], **{config["sweep"]["parameter"]: config["sweep"]["grid"][0]})
        path = work / "setup.yaml"
        path.write_text(yaml.safe_dump({"bound": bound}))
        want = [sweeps.direct_value(bound)]
    raw, scaled = [], []
    for i in range(SETUP_REPEATS):
        before = _gauge()
        if workload.cli_setup:
            label, out = f"setup:cli:{i}", work / f"setup-{i}.csv"
            elapsed, done = _fresh(["-m", "genbounds.cli", "bound", "compute", "--config", str(path), "--out", str(out)])
        else:
            label = f"setup:import:{i}"
            elapsed, done = _fresh(["-c", IMPORT_SNIPPET])
        raw.append(elapsed)
        scaled.append(elapsed * 2.0 * reference.REFERENCE_S / (before + _gauge()))
        ledger.attempt(label)
        if done.returncode != 0:
            ledger.fail(label, f"exit {done.returncode}: {done.stderr.strip()[-200:]}")
        elif workload.cli_setup:
            _, rows = cli.read_records(str(out))
            if [row["value"] for row in rows] != want:
                ledger.fail(label, f"{name} value {rows} differs from the library's {want}")
    return statistics.median(scaled), statistics.median(raw)


def import_breakdown(ledger: Ledger) -> dict[str, float]:
    """Fresh-interpreter import time of the package and of scipy.stats (-X importtime)."""
    ledger.attempt("trace:importtime")
    _, done = _fresh(["-X", "importtime", "-c", IMPORT_SNIPPET])
    if done.returncode != 0:
        ledger.fail("trace:importtime", f"exit {done.returncode}")
        return {"import.s": 0.0, "import.scipy_stats.s": 0.0}
    cumulative = {}
    for line in done.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _self, cum, module = (part.strip() for part in line[len("import time:"):].split("|"))
            if cum.isdigit():
                cumulative[module] = int(cum) * 1e-6
    return {
        "import.s": cumulative.get("genbounds", 0.0) + cumulative.get("genbounds.cli", 0.0),
        "import.scipy_stats.s": cumulative.get("scipy.stats", 0.0),
    }


# ---------------------------------------------------------------------------
# One round
# ---------------------------------------------------------------------------


def cert_seed(seed: int, round_index: int) -> int:
    return seed * 1000 + round_index


def run_round(workload, problem, seed, r, ledger, work, tracer=None) -> dict:
    """Run and time every operation of one round; outputs are checked after the timed part.

    Returns each operation's seconds, keyed by kind and name, as measured
    (``raw``) and at the reference speed (``scaled``).
    """
    configs = [
        wl.trial_config(problem, name, beta, cert_seed(seed, r), workload.trials)
        for name, beta in wl.CERTIFICATIONS
    ]
    exact = wl.exact_inputs(workload, np.random.default_rng([seed, r, 1]))
    sweep_dir = work / f"round-{r}"
    sweep_dir.mkdir()
    sweep_jobs = []
    for i, (name, config) in enumerate(sweeps.sweep_configs(np.random.default_rng([seed, r, 2]), workload.sweep_points)):
        path = sweep_dir / f"{i:02d}-{name}.yaml"
        path.write_text(yaml.safe_dump(config))
        fmt = "csv" if i % 2 == 0 else "json-lines"
        sweep_jobs.append((name, config, ["bound", "sweep", "--config", str(path),
                                          "--out", str(sweep_dir / f"{i:02d}-{name}.out"), "--format", fmt]))
    merged = sweep_dir / "merged.csv"
    report_argv = ["report", *(job[2][5] for job in sweep_jobs), "--out", str(merged)]

    raw, scaled = {}, {}
    gauge = [reference.reference()]

    def timed(key, label, fn, *args):
        """One operation, with the reference timed after it; the one before is shared."""
        result, seconds = ledger.call(label, fn, *args)
        gauge.append(reference.reference())
        raw[key] = seconds
        scaled[key] = seconds * 2.0 * reference.REFERENCE_S / (gauge[-2] + gauge[-1])
        return result

    if tracer is not None:
        tracer.install()
    try:
        reports = [timed(f"certify:{c.bound.name}", f"r{r}:certify:{c.bound.name}", wl.run_certification, c)
                   for c in configs]
        results = [timed(f"exact:{item.kind}", f"r{r}:exact:{item.kind}", wl.run_exact, item)
                   for item in exact]
        codes = [timed(f"sweep:{name}", f"r{r}:sweep:{name}", cli.main, argv) for name, _config, argv in sweep_jobs]
        report_code = timed("sweep:report", f"r{r}:report", cli.main, report_argv)
    finally:
        if tracer is not None:
            tracer.uninstall()

    for config, report in zip(configs, reports):
        label = f"r{r}:certify:{config.bound.name}"
        if report is None:
            continue
        errors = wl.check_certification(config, report) if r == 0 else (
            [] if report.trials == config.trials else [f"report covers {report.trials} trials"])
        for error in errors:
            ledger.fail(label, error)
    for item, result in zip(exact, results):
        if result is not None:
            for error in wl.check_exact(item, result):
                ledger.fail(f"r{r}:exact:{item.kind}", error)
    for (name, config, argv), code in zip(sweep_jobs, codes):
        if code not in (0, None):
            ledger.fail(f"r{r}:sweep:{name}", f"exit {code}")
        elif code == 0 and r == 0:
            _, got = cli.read_records(argv[5])
            if [row["value"] for row in got] != sweeps.direct_values(config):
                ledger.fail(f"r{r}:sweep:{name}", "emitted values differ from the direct library calls")
    rows = len(sweep_jobs) * workload.sweep_points
    if report_code == 0:
        _, got = cli.read_records(str(merged))
        if len(got) != rows:
            ledger.fail(f"r{r}:report", f"merged {len(got)} rows, expected {rows}")
    elif report_code is not None:
        ledger.fail(f"r{r}:report", f"exit {report_code}")
    shutil.rmtree(sweep_dir)
    return {"raw": raw, "scaled": scaled, "reports": reports, "configs": configs}


# ---------------------------------------------------------------------------
# Counts that must repeat exactly
# ---------------------------------------------------------------------------


def round_counts(first: dict) -> dict:
    counts = {}
    for config, report in zip(first["configs"], first["reports"]):
        if report is not None:
            counts[f"harness.violations.{config.bound.name}"] = report.violations
    counts["harness.distinct_types"] = sum(wl.distinct_types(c) for c in first["configs"])
    return counts


def check_repeat(path: Path, counts: dict, ledger: Ledger) -> None:
    """Compare with the counts an earlier run of the same workload and seed recorded."""
    ledger.attempt("counts:repeat")
    earlier = json.loads(path.read_text()) if path.is_file() else {}
    for key, value in counts.items():
        if key in earlier and earlier[key] != value:
            ledger.fail("counts:repeat", f"{key} is {value}, an earlier run with this seed gave {earlier[key]}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**earlier, **counts}, sort_keys=True))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

#: Span names reported per call: calls and seconds per traced round.
_CALLS_AND_S = (
    "problems.annealed_risks", "problems.empirical_risks", "posteriors.gibbs_posterior",
    "harness.dp_prior_mechanism", "divergences.kl_discrete", "divergences.mutual_info",
    "divergences.conditional_kl", "divergences.conditional_mutual_info",
    "divergences.kl_binary_inverse_upper", "cli.load_config", "cli.compute_named_bound",
    "cli.write_records", "cli.read_records",
)
#: Spans whose self time matters: the trial floor and the exact engines.
_WITH_SELF = (
    "harness.violation_trial", "harness.cmi_trial", "harness.dp_prior_trial",
    "harness.verify_expectation_bounds", "posteriors.iei_exact",
    "harness.cmi_exact_quantities", "harness.dp_mechanism_max_log_ratio",
)
#: Scalar calls reported in microseconds per call.
_US_PER_CALL = (
    "bounds.zhang_high_prob", "bounds.catoni_bound", "bounds.pac_bayes_kl",
    "bounds.cmi_pac_high_prob", "bounds.dp_prior_high_prob", "bounds.BoundRequest",
    "divergences.kl_binary_inverse_upper", "harness.clopper_pearson_upper",
)


def operation_metrics(workload: wl.Workload, seconds: dict[str, float]) -> dict[str, float]:
    """End-to-end rates and times from per-operation seconds, summed over the workload's fixed set."""
    def total(kind):
        return sum(v for k, v in seconds.items() if k.startswith(kind + ":"))

    return {
        "trials_per_s": workload.trials * len(wl.CERTIFICATIONS) / total("certify"),
        "exact_check_s": total("exact"),
        "bound_evals_per_s": len(sweeps.SWEEPS) * workload.sweep_points / total("sweep"),
    }


def layer_metrics(per_round: list[dict], traced_s: list[float], untraced_s: list[float]) -> dict:
    """Per-layer metrics, each the mean over traced rounds."""
    rounds = len(per_round)
    total: dict[str, dict[str, float]] = {}
    for summary in per_round:
        for name, entry in summary.items():
            acc = total.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name):
        return total.get(name, empty)

    out = {}
    for name in _CALLS_AND_S + _WITH_SELF:
        out[f"{name}.calls"] = get(name)["calls"] / rounds
        out[f"{name}.s"] = get(name)["s"] / rounds
    for name in _WITH_SELF:
        out[f"{name}.self_s"] = get(name)["self_s"] / rounds
    for name in _US_PER_CALL:
        entry = get(name)
        out[f"{name}.calls"] = entry["calls"] / rounds
        out[f"{name}.us_per_call"] = 1e6 * entry["s"] / entry["calls"] if entry["calls"] else 0.0
    init = get("divergences.DiscreteDist")
    out["divergences.DiscreteDist.init_calls"] = init["calls"] / rounds
    out["divergences.DiscreteDist.init_s"] = init["s"] / rounds
    samples = get("problems.iter_samples")
    out["problems.iter_samples.samples"] = samples["calls"] / rounds
    out["problems.iter_samples.s"] = samples["s"] / rounds
    for layer in spans.LAYERS:
        entries = [e for name, e in total.items() if name.split(".")[0] == layer]
        out[f"layer.{layer}.calls"] = sum(e["calls"] for e in entries) / rounds
        out[f"layer.{layer}.self_s"] = sum(e["self_s"] for e in entries) / rounds
    traced, untraced = statistics.median(traced_s), statistics.median(untraced_s)
    out["trace.rounds"] = rounds
    out["trace.overhead_s"] = traced - untraced
    out["trace.overhead_share"] = (traced - untraced) / untraced
    return out


def declared_metrics() -> tuple[list[dict], list[dict]]:
    """Metric declarations from BENCHMARK.json; each per-layer metric must have an interaction entry."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    groups = json.loads((Path(__file__).parent / "interactions.json").read_text())["per_layer"]
    mapped = [name for group in groups for name in group["metrics"]]
    declared = [m["name"] for m in spec["per_layer"]]
    if sorted(mapped) != sorted(declared):
        raise RuntimeError(
            f"interactions.json and BENCHMARK.json disagree: {sorted(set(mapped) ^ set(declared))}"
        )
    return spec["end_to_end"], spec["per_layer"]


def result_line(ledger: Ledger, values: dict, declared: list[dict]) -> dict:
    names = {m["name"] for m in declared}
    if set(values) != names:
        raise RuntimeError(
            f"measured metrics differ from BENCHMARK.json: missing {sorted(names - set(values))}, "
            f"undeclared {sorted(set(values) - names)}"
        )
    failed = ledger.failed
    for line in failed:
        print(f"perfbench: failed {line}", file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": len(ledger.ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def provenance(args, workload: wl.Workload) -> dict:
    return {
        "genbounds": genbounds.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes(),
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_acceptance() -> int:
    """The acceptance configuration must reproduce the acceptance suite's counts."""
    problem = wl.coin_problem(50)
    got = {}
    for name, beta in wl.CERTIFICATIONS:
        config = wl.trial_config(problem, name, beta, wl.ACCEPTANCE_SEED, wl.ACCEPTANCE_TRIALS)
        got[name] = wl.run_certification(config).violations
    ok = got == wl.ACCEPTANCE_VIOLATIONS
    print(json.dumps({"acceptance": {"seed": wl.ACCEPTANCE_SEED, "trials": wl.ACCEPTANCE_TRIALS,
                                     "violations": got, "expected": wl.ACCEPTANCE_VIOLATIONS, "correct": ok}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--acceptance", action="store_true", help="check the acceptance-configuration counts")
    args = parser.parse_args(argv)
    if args.acceptance:
        return run_acceptance()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    end_to_end, per_layer = declared_metrics()
    workload = wl.WORKLOADS[args.workload]
    # One core for this process and its children, so the reference timings
    # gauge the core every measured operation runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ledger = Ledger()
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print(json.dumps({"provenance": provenance(args, workload)}))
        problem = wl.certification_problem(workload, args.seed)
        values = {}
        if args.trace:
            values.update(import_breakdown(ledger))
        else:
            values["setup_s"], raw_setup = measure_setup(workload, ledger, work, np.random.default_rng([args.seed, 3]))

        tracer = spans.Tracer() if args.trace else None
        rounds, recorded, per_round, traced_s, untraced_s = [], [], [], [], []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(rounds) < 2 or (args.trace and not per_round):
            r = len(rounds)
            traced = tracer is not None and r % 2 == 1
            result = run_round(workload, problem, args.seed, r, ledger, work, tracer if traced else None)
            rounds.append(result)
            timed = sum(result["scaled"].values())
            if traced:
                recorded.append((r, tracer.take()))
                per_round.append(spans.summarize(recorded[-1][1]))
                traced_s.append(timed)
            else:
                untraced_s.append(timed)

        counts = round_counts(rounds[0])
        if args.trace:
            samples = {s.get("problems.iter_samples", {"calls": 0})["calls"] for s in per_round}
            ledger.attempt("counts:iter_samples")
            if len(samples) != 1:
                ledger.fail("counts:iter_samples", f"samples per round differ across rounds: {samples}")
            counts["problems.iter_samples.samples"] = samples.pop()
        check_repeat(WORK / "counts" / f"{workload.name}-{args.seed}-{workload.trials}.json", counts, ledger)

        if args.trace:
            values.update(layer_metrics(per_round, traced_s, untraced_s))
            values.update({k: v for k, v in counts.items() if k.startswith("harness.")})
            trials = workload.trials * len(wl.CERTIFICATIONS)
            values["harness.trials"] = trials
            values["harness.type_share_repeated"] = 1.0 - counts["harness.distinct_types"] / trials
            trace_path = WORK / f"trace-{workload.name}-{args.seed}.csv.gz"
            count = spans.write(trace_path, recorded)
            print(json.dumps({"trace": str(trace_path.relative_to(ROOT)), "spans": count}))
            declared = per_layer
        else:
            def per_operation(kind, stat):
                return {key: stat(x[kind][key] for x in rounds) for key in rounds[0][kind]}

            values.update(operation_metrics(workload, per_operation("scaled", statistics.median)))
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            declared = end_to_end
            print(json.dumps({
                "rounds": len(rounds),
                "raw_median": {**operation_metrics(workload, per_operation("raw", statistics.median)),
                               "setup_s": raw_setup},
                "raw_fastest": operation_metrics(workload, per_operation("raw", min)),
                "import_in_process_s": IMPORT_S,
            }))
        print(json.dumps(result_line(ledger, values, declared)))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
