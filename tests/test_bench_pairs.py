"""``tools/bench_pairs.py``'s summary over synthetic pairs of runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.2},
    {"name": "write_p50_ms", "better": "lower", "bound": 0.15},
]


def run(ops_per_s: float, write_p50_ms: float, failed: int = 0,
        attempted: int = 100) -> dict:
    return {"returncode": 0,
            "context": {"details": {"cycles": 10}},
            "result": {"attempted": attempted, "failed": failed,
                       "metrics": {"ops_per_s": {"value": ops_per_s},
                                   "write_p50_ms": {"value": write_p50_ms}}}}


def pairs_of(parent: list[tuple[float, float]], change: list[tuple[float, float]]) -> list[dict]:
    return [{"pair": i, "parent": run(*p), "change": run(*c)}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_summary_gives_medians_wins_and_the_bound_per_metric():
    parent = [(10.0, 100.0), (11.0, 100.0), (12.0, 100.0), (13.0, 100.0)]
    change = [(11.0, 110.0), (12.0, 114.0), (11.0, 110.0), (14.0, 114.0)]
    summary = bench_pairs.summarize(pairs_of(parent, change), END_TO_END)
    ops = summary["ops_per_s"]
    assert (ops["parent_median"], ops["change_median"]) == (11.5, 11.5)
    assert ops["parent_iqr"] == pytest.approx(1.5)
    assert ops["change_better_pairs"] == 3
    assert (ops["bound"], ops["worse_than_bound"]) == (0.2, False)
    write = summary["write_p50_ms"]
    assert write["relative_change"] == pytest.approx(0.12)  # median 112 against 100
    assert write["change_better_pairs"] == 0
    assert write["worse_than_bound"] is False
    assert summary["details.cycles"] == {"parent_median": 10, "change_median": 10}
    assert summary["attempted"] == {"parent": 400, "change": 400}
    assert summary["failed"] == {"parent": 0, "change": 0}


def test_summary_sums_attempted_and_failed_operations_per_side():
    pairs = pairs_of([(10.0, 100.0)] * 3, [(10.0, 100.0)] * 3)
    for i, pair in enumerate(pairs):
        pair["parent"]["result"].update(attempted=100 + i, failed=i)
        pair["change"]["result"].update(attempted=50, failed=1)
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert summary["attempted"] == {"parent": 303, "change": 150}
    assert summary["failed"] == {"parent": 3, "change": 3}


@pytest.mark.parametrize("parent, change, marked", [
    ((10.0, 100.0), (7.9, 100.0), {"ops_per_s"}),  # 21% fewer ops per second
    ((10.0, 100.0), (8.1, 100.0), set()),  # 19% fewer: inside the bound
    ((10.0, 100.0), (10.0, 116.0), {"write_p50_ms"}),  # 16% slower writes
    ((10.0, 100.0), (20.0, 50.0), set()),  # better by any amount is never marked
], ids=["ops-past", "ops-inside", "p50-past", "better"])
def test_summary_marks_each_metric_worse_than_its_bound(parent, change, marked):
    summary = bench_pairs.summarize(pairs_of([parent] * 3, [change] * 3), END_TO_END)
    assert {m["name"] for m in END_TO_END if summary[m["name"]]["worse_than_bound"]} == marked


PARENT_OPS = [10.0] * 5 + [11.0] * 5  # median 10.5, interquartile range 1.0


@pytest.mark.parametrize("metric, parent, change, shown", [
    ("ops_per_s", PARENT_OPS, [12.0] * 9 + [9.0], True),  # 9 of 10, gap 1.5
    ("ops_per_s", PARENT_OPS, [12.0] * 8 + [9.0] * 2, False),  # 8 of 10
    ("ops_per_s", PARENT_OPS, [v + 0.1 for v in PARENT_OPS], False),  # gap 0.1
    ("write_p50_ms", [100.0] * 5 + [110.0] * 5, [200.0] * 10, False),  # slower writes
], ids=["nine-of-ten", "eight-of-ten", "inside-iqr", "wrong-direction"])
def test_summary_shows_a_gain_only_past_nine_tenths_and_the_iqr(metric, parent, change,
                                                                shown):
    def pair(value):
        return (value, 100.0) if metric == "ops_per_s" else (10.0, value)
    summary = bench_pairs.summarize(pairs_of([pair(v) for v in parent],
                                             [pair(v) for v in change]), END_TO_END)
    assert summary[metric]["gain_shown"] is shown


WIDE_OPS = [8.0] * 5 + [12.0] * 5  # median 10, interquartile range 4: past 0.2 x 10


@pytest.mark.parametrize("metric, parent, change, unresolved", [
    ("ops_per_s", WIDE_OPS, [10.0] * 10, True),  # spread past the bound
    ("ops_per_s", WIDE_OPS, [12.5] * 10, False),  # every change run beats every parent run
    ("ops_per_s", WIDE_OPS, [12.5] * 9 + [11.0], True),  # one change run below a parent run
    ("ops_per_s", PARENT_OPS, [10.0] * 10, False),  # interquartile range 1.0 inside 2.1
    ("write_p50_ms", [80.0] * 5 + [120.0] * 5, [70.0] * 10, False),  # faster than all
    ("write_p50_ms", [80.0] * 5 + [120.0] * 5, [130.0] * 10, True),  # slower is not resolved
], ids=["wide", "separated", "one-overlap", "narrow", "write-separated", "write-slower"])
def test_summary_marks_a_metric_unresolved_when_its_spread_passes_the_bound(
        metric, parent, change, unresolved):
    def pair(value):
        return (value, 100.0) if metric == "ops_per_s" else (10.0, value)
    summary = bench_pairs.summarize(pairs_of([pair(v) for v in parent],
                                             [pair(v) for v in change]), END_TO_END)
    assert summary[metric]["unresolved"] is unresolved


def test_pairs_without_a_result_line_are_left_out():
    pairs = pairs_of([(10.0, 100.0)] * 3, [(5.0, 100.0)] * 3)
    pairs[0]["change"] = {"returncode": 1, "stdout": ""}
    pairs[1]["parent"] = {"returncode": 1, "stdout": ""}
    assert bench_pairs.summarize(pairs, END_TO_END) == {"pairs_with_results": 1}
