"""Tests of the summary that tools/bench_pairs.py writes."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "trials_per_s", "unit": "trials/s", "better": "higher", "bound": 0.25},
    {"name": "exact_check_s", "unit": "s", "better": "lower", "bound": 0.1},
]


def line(trials_per_s, exact_check_s, failed=0):
    return {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "trials_per_s": {"value": trials_per_s, "unit": "trials/s"},
            "exact_check_s": {"value": exact_check_s, "unit": "s"},
        },
    }


PAIRS = [
    {"seed": 1, "parent": line(100.0, 0.30), "change": line(110.0, 0.30)},
    {"seed": 2, "parent": line(120.0, 0.20), "change": line(90.0, 0.10)},
    {"seed": 3, "parent": line(80.0, 0.40), "change": line(130.0, 0.35, failed=1)},
]


def test_medians_and_quartiles_per_side():
    metrics = bench_pairs.summarize(PAIRS, END_TO_END)["metrics"]
    assert metrics["trials_per_s"]["parent"] == {"median": 100.0, "q1": 90.0, "q3": 110.0}
    assert metrics["trials_per_s"]["change"] == {"median": 110.0, "q1": 100.0, "q3": 120.0}
    assert metrics["exact_check_s"]["change"]["median"] == pytest.approx(0.30)
    assert metrics["exact_check_s"]["parent"]["q1"] == pytest.approx(0.25)


def test_wins_follow_the_metric_direction_and_ties_do_not_count():
    summary = bench_pairs.summarize(PAIRS, END_TO_END)
    assert summary["change_wins"] == {"trials_per_s": 2, "exact_check_s": 2}
    assert summary["pairs"] == 3


def test_failed_operations_are_totalled_per_side():
    assert bench_pairs.summarize(PAIRS, END_TO_END)["failed"] == {"parent": 0, "change": 1}


def test_one_pair_has_degenerate_quartiles():
    spread = bench_pairs.summarize(PAIRS[:1], END_TO_END)["metrics"]["trials_per_s"]["parent"]
    assert spread == {"median": 100.0, "q1": 100.0, "q3": 100.0}


def exact_pairs(parent, change):
    """Pairs whose only moving metric is ``exact_check_s`` (lower is better, bound 0.1)."""
    return [
        {"seed": seed, "parent": line(100.0, p), "change": line(100.0, c)}
        for seed, (p, c) in enumerate(zip(parent, change), 1)
    ]


TIGHT = [0.300 + 0.001 * i for i in range(10)]
WIDE = [0.2, 0.4] * 5


@pytest.mark.parametrize(
    "parent, change, verdict",
    [
        (TIGHT, [0.150 + 0.001 * i for i in range(10)], "gain"),
        (TIGHT, [0.290] * 8 + [0.400] * 2, "within bound"),  # 8 of 10 wins is no gain
        (TIGHT, [0.400 + 0.001 * i for i in range(10)], "worse"),
        (WIDE, [0.4, 0.2] * 5, "unresolved"),
        (WIDE, [0.1, 0.15] * 5, "within bound"),  # every change run beats every parent run
        (TIGHT, [0.310 + 0.001 * i for i in range(10)], "within bound"),
    ],
    ids=["gain", "8 of 10 wins", "worse", "unresolved", "every run better", "small slowdown"],
)
def test_verdict_follows_wins_spread_and_bound(parent, change, verdict):
    summary = bench_pairs.summarize(exact_pairs(parent, change), END_TO_END)
    assert summary["verdict"]["exact_check_s"] == verdict
    assert summary["verdict"]["trials_per_s"] == "within bound"


def test_a_gain_follows_the_metric_direction():
    pairs = [
        {"seed": i, "parent": line(100.0 + i, 0.3), "change": line(120.0 + i, 0.3)} for i in range(10)
    ]
    assert bench_pairs.summarize(pairs, END_TO_END)["verdict"]["trials_per_s"] == "gain"
    flipped = [{"seed": p["seed"], "parent": p["change"], "change": p["parent"]} for p in pairs]
    assert bench_pairs.summarize(flipped, END_TO_END)["verdict"]["trials_per_s"] == "within bound"


ACCEPTANCE_LINE = (
    '{"acceptance": {"seed": 20240817, "trials": 10000, "violations": {"zhang": 65, "catoni": 65, '
    '"cmi": 3, "dp-prior": 1}, "expected": {"zhang": 65, "catoni": 65, "cmi": 3, "dp-prior": 1}, '
    '"correct": true}}'
)


def test_an_acceptance_line_gives_its_counts_and_correct():
    stdout = "provenance\n" + ACCEPTANCE_LINE + "\n"
    assert bench_pairs.parse_acceptance(stdout) == {
        "violations": {"zhang": 65, "catoni": 65, "cmi": 3, "dp-prior": 1},
        "correct": True,
    }
    wrong = ACCEPTANCE_LINE.replace('"cmi": 3, "dp', '"cmi": 4, "dp', 1).replace("true", "false")
    assert bench_pairs.parse_acceptance(wrong) == {
        "violations": {"zhang": 65, "catoni": 65, "cmi": 4, "dp-prior": 1},
        "correct": False,
    }


def test_a_failing_workload_keeps_the_workloads_already_done(tmp_path, monkeypatch):
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    first, second = (w["name"] for w in spec["workloads"][:2])
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}}
    counts = {"violations": {"zhang": 65}, "correct": True}

    def run_once(tree, workload, seed, seconds):
        if workload == second:
            raise RuntimeError(f"{workload} failed")
        return result

    monkeypatch.setattr(bench_pairs, "_git", lambda *args: b"0123abc\n")
    monkeypatch.setattr(bench_pairs, "export_parent", lambda rev, dest: dest.mkdir())
    monkeypatch.setattr(bench_pairs, "export_change", lambda dest: dest.mkdir())
    monkeypatch.setattr(bench_pairs, "run_acceptance", lambda tree: counts)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    with pytest.raises(RuntimeError, match=f"^{second} failed$"):
        bench_pairs.main(["--out", str(out), "--pairs", "2", "--workdir", str(tmp_path)])
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == [first]
    assert len(report["workloads"][first]["runs"]) == 2
    assert report["acceptance"]["kept"] is True
