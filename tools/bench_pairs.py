"""Alternating parent/change pairs of perfbench runs, written to one BENCH_*.json file.

Run from the repository root:

    python3 tools/bench_pairs.py --out BENCH_new.json --pairs 3

The parent (``--parent``, default HEAD) is exported with ``git archive``; the
change is the working tree's tracked and untracked, not ignored, files.  Both
are copied into one temporary directory, removed afterwards, so each side runs
from a clean tree that holds no caches or stored counts of the other.  For each
workload and each seed 1..pairs, the two sides run ``perfbench/run.py --trace 0``
one after the other, each for BENCHMARK.json's ``run_seconds``, and the side
that goes first alternates from pair to pair.  The output holds every run's
result line, each end-to-end metric's median and quartiles per side, the
number of pairs in which the change did better on each metric, in the
direction BENCHMARK.json gives, and a verdict per metric: ``gain``, ``worse``,
``unresolved`` or ``within bound`` (see ``_verdict``).  Before the workloads,
each side runs ``perfbench/run.py --acceptance`` once, and the output records
its violation count per acceptance certification, whether they are the
expected ones (``correct``), and whether the change kept the parent's counts.
It also keeps, once per side, the provenance of that side's first run: the
genbounds, Python, numpy and scipy versions, the CPU count and the platform.
The output file is rewritten after the acceptance runs and after each
finished workload, so a run that fails keeps the pairs already done.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_parent(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def export_change(dest: Path) -> None:
    for name in _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        source = ROOT / name.decode()
        if name and source.is_file():  # a tracked file deleted in the working tree is skipped
            target = dest / name.decode()
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


#: The fields of a perfbench provenance line that describe the machine and the software, not the run.
PROVENANCE_FIELDS = ("genbounds", "python", "numpy", "scipy", "nproc", "platform")


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The provenance (its :data:`PROVENANCE_FIELDS`) and the result line of a perfbench run's stdout.

    The provenance line is the first stdout line, the result line the last.
    """
    lines = stdout.strip().splitlines()
    provenance = json.loads(lines[0])["provenance"]
    return {key: provenance[key] for key in PROVENANCE_FIELDS}, json.loads(lines[-1])


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """:func:`parse_run` of one untraced perfbench run in ``tree``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree.name} exited {done.returncode}:\n{done.stderr}")
    return parse_run(done.stdout)


def parse_acceptance(stdout: str) -> dict:
    """The violation counts and ``correct`` of a ``perfbench/run.py --acceptance`` line (the last stdout line)."""
    line = json.loads(stdout.strip().splitlines()[-1])["acceptance"]
    return {"violations": line["violations"], "correct": line["correct"]}


def run_acceptance(tree: Path) -> dict:
    """:func:`parse_acceptance` of one acceptance run in ``tree``; exit 1 means counts other than the expected."""
    argv = [sys.executable, "perfbench/run.py", "--acceptance"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode not in (0, 1) or not done.stdout.strip():
        raise RuntimeError(f"{' '.join(argv[1:])} in {tree.name} exited {done.returncode}:\n{done.stderr}")
    return parse_acceptance(done.stdout)


def _spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _verdict(parent: list[float], change: list[float], wins: int, sign: int, bound: float) -> str:
    """The verdict on one metric; ``sign`` is +1 where higher is better, ``bound`` a relative bound.

    ``gain``: the change won at least 9 in 10 pairs and its median is better
    by more than the parent's interquartile range.  ``worse``: its median is
    worse than the parent's by more than ``bound``.  ``unresolved``: the
    parent's interquartile range exceeds ``bound`` of its median and not every
    change run beats every parent run.  Otherwise ``within bound``.
    """
    base, spread = _spread(parent), _spread(change)
    iqr = base["q3"] - base["q1"]
    gap = sign * (spread["median"] - base["median"])
    if 10 * wins >= 9 * len(parent) and gap > iqr:
        return "gain"
    if -gap > bound * abs(base["median"]):
        return "worse"
    if iqr > bound * abs(base["median"]) and not min(sign * c for c in change) > max(sign * p for p in parent):
        return "unresolved"
    return "within bound"


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-side median and quartiles of each metric, the pairs the change won, and a verdict.

    ``pairs`` holds one ``{"parent": line, "change": line}`` per pair, each
    line a perfbench result line; ``end_to_end`` is BENCHMARK.json's metric
    list, whose ``better`` field says which direction wins and whose
    ``bound`` is the relative slowdown allowed.  A tie is no win.
    """
    metrics, wins, verdicts = {}, {}, {}
    for metric in end_to_end:
        name = metric["name"]
        values = {side: [pair[side]["metrics"][name]["value"] for pair in pairs] for side in SIDES}
        metrics[name] = {side: _spread(values[side]) for side in SIDES}
        sign = 1 if metric["better"] == "higher" else -1
        wins[name] = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        verdicts[name] = _verdict(values["parent"], values["change"], wins[name], sign, metric["bound"])
    return {
        "pairs": len(pairs),
        "failed": {side: sum(pair[side]["failed"] for pair in pairs) for side in SIDES},
        "metrics": metrics,
        "change_wins": wins,
        "verdict": verdicts,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent (default HEAD)")
    parser.add_argument("--pairs", type=int, default=3, help="pairs per workload, seeds 1..pairs")
    parser.add_argument("--workdir", default=None, help="where the temporary trees go")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    seconds, out = spec["run_seconds"], Path(args.out)
    report = {
        "parent": {"rev": args.parent, "commit": _git("rev-parse", args.parent).decode().strip()},
        "change": "working tree",
        "seconds": seconds,
        "provenance": {},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        export_parent(args.parent, trees["parent"])
        export_change(trees["change"])
        acceptance = {side: run_acceptance(trees[side]) for side in SIDES}
        acceptance["kept"] = acceptance["parent"]["violations"] == acceptance["change"]["violations"]
        print(f"acceptance: {json.dumps(acceptance)}", file=sys.stderr)
        report["acceptance"] = acceptance
        out.write_text(json.dumps(report, indent=1) + "\n")
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for seed in range(1, args.pairs + 1):
                order = SIDES if seed % 2 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    provenance, pair[side] = run_once(trees[side], workload, seed, seconds)
                    report["provenance"].setdefault(side, provenance)
                    print(f"{workload} seed {seed} {side}: {json.dumps(pair[side]['metrics'])}", file=sys.stderr)
                pairs.append(pair)
            report["workloads"][workload] = {"runs": pairs, "summary": summarize(pairs, spec["end_to_end"])}
            out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
