"""The seed ranges, commits and verdicts of ``tools/bench_pairs.py``, on synthetic runs."""

import argparse
import importlib.util
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRIC = {"name": "coverage_s", "better": "lower", "bound": 0.25}


def _runs(parent, change, name="coverage_s"):
    """One run per value, pairs of a parent and a change run on seeds 1, 2, ..."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), 1):
        for side, v in (("parent", p), ("change", c)):
            metrics = {} if v is None else {name: {"value": v}}
            runs.append({"seed": seed, "side": side,
                         "last_line": {"correct": v is not None, "failed": 0, "metrics": metrics}})
    return runs


def _verdict(parent, change, metric=METRIC, claims=()):
    return bench_pairs.summarize(_runs(parent, change, metric["name"]), [metric],
                                 set(claims))[metric["name"]]["verdict"]


def test_seed_range():
    assert bench_pairs.seed_range("2801-2803") == [2801, 2802, 2803]
    assert bench_pairs.seed_range("7") == [7]
    with pytest.raises(argparse.ArgumentTypeError, match="empty seed range"):
        bench_pairs.seed_range("5-3")


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98]


def test_within_and_worse_beyond_the_bound():
    assert _verdict(PARENT, [v * 1.1 for v in PARENT]) == "within the bound"
    assert _verdict(PARENT, [v * 1.3 for v in PARENT]) == "worse beyond the bound"
    # higher is better: a fall is the wrong way
    rate = dict(METRIC, name="nodes_per_s", better="higher")
    assert _verdict(PARENT, [v * 0.7 for v in PARENT], rate) == "worse beyond the bound"
    assert _verdict(PARENT, [v * 1.3 for v in PARENT], rate) == "within the bound"


def test_claims():
    assert _verdict(PARENT, [v * 0.9 for v in PARENT], claims={"coverage_s"}) == "claim holds"
    # better in 8 of 10 pairs only
    mixed = [v * 0.9 for v in PARENT[:8]] + [v * 1.1 for v in PARENT[8:]]
    assert _verdict(PARENT, mixed, claims={"coverage_s"}) == "claim fails"
    # better in every pair, by less than the parent's interquartile range
    assert _verdict(PARENT, [v - 0.001 for v in PARENT], claims={"coverage_s"}) == "claim fails"


def test_a_wide_parent_spread():
    wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert _verdict(wide, [v * 0.9 for v in wide]) == "unresolved: parent spread above the bound"
    assert _verdict(wide, [0.5] * 10) == "better in every run"
    assert _verdict(wide, [0.5] * 9 + [1.0]) == "unresolved: parent spread above the bound"
    rate = dict(METRIC, name="nodes_per_s", better="higher")
    assert _verdict(wide, [2.5] * 10, rate) == "better in every run"
    assert _verdict(wide, [0.5] * 10, rate) == "unresolved: parent spread above the bound"


def test_a_run_without_the_metric_is_reported():
    summary = bench_pairs.summarize(_runs(PARENT, PARENT[:3] + [None] + PARENT[4:]), [METRIC],
                                    set())
    assert not summary["correct"]
    assert summary["coverage_s"] == {
        "verdict": "missing in 1 of 20 runs, not correct: change seed 4"}


def test_git_sha_marks_a_changed_tracked_file(tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    assert bench_pairs.git_sha(tmp_path) == "unknown"
    git("init", "-q")
    (tmp_path / "a.txt").write_text("a\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "a")
    sha = bench_pairs.git_sha(tmp_path)
    assert sha != "unknown" and not sha.endswith("-dirty")
    (tmp_path / "b.txt").write_text("untracked\n")
    assert bench_pairs.git_sha(tmp_path) == sha
    (tmp_path / "a.txt").write_text("changed\n")
    assert bench_pairs.git_sha(tmp_path) == f"{sha}-dirty"


def test_verdict_lines():
    summary = {"pairs": 10, "seeds": "1-10", "correct": False, "failed": 0,
               "coverage_s": {"median_ratio": 1.1, "parent_spread": 0.025,
                              "change_lower_in": "0/10", "verdict": "within the bound"},
               "nodes_per_s": {"median_ratio": 0.7, "parent_spread": 0.03,
                               "change_higher_in": "1/10", "verdict": "worse beyond the bound"},
               "levelset_s": {"verdict": "missing in 1 of 20 runs, not correct: change seed 4"}}
    assert bench_pairs.verdict_lines("line", summary) == [
        "line coverage_s: median ratio 1.1, change lower in 0/10, parent spread 0.025, "
        "within the bound",
        "line nodes_per_s: median ratio 0.7, change higher in 1/10, parent spread 0.03, "
        "worse beyond the bound",
        "line levelset_s: missing in 1 of 20 runs, not correct: change seed 4"]
    # the lines of a summary that summarize wrote
    made = bench_pairs.summarize(_runs(PARENT, [v * 1.1 for v in PARENT]), [METRIC], set())
    assert bench_pairs.verdict_lines("plane", made) == [
        f"plane coverage_s: median ratio {made['coverage_s']['median_ratio']}, change lower in "
        f"0/10, parent spread {made['coverage_s']['parent_spread']}, within the bound"]
