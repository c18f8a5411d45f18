"""The seed ranges and verdicts of ``tools/bench_pairs.py``, on synthetic runs."""

import argparse
import importlib.util
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
