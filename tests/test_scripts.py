"""Smoke runs of the example scripts, in-process, with small arguments."""

import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(monkeypatch, capsys, name: str, args: list[str]) -> str:
    monkeypatch.setattr(sys, "argv", [name] + args)
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_repair_demo(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "repair_demo.py", ["--q", "13", "--r", "4", "--d", "5", "--seed", "7"])
    assert "actual d=5" in out
    assert "local repair read 4 symbols" in out
    assert out.rstrip().endswith("round trip verified")


def test_construction_sweep(monkeypatch, capsys):
    out = _run(
        monkeypatch, capsys, "construction_sweep.py",
        ["--qs", "101", "--rs", "2", "--t", "3", "--seeds", "2"],
    )
    row = out.splitlines()[-1].split()
    assert row[:3] == ["101", "2", "3"]
    assert row[5] == "100%"  # both seeds reach the target size


def _result_line(failed, setup_s, tail_ms, rss):
    metrics = {"setup_s": (setup_s, "s"), "op_ms_tail": (tail_ms, "ms"), "peak_rss_mb": (rss, "MiB")}
    return "workload: certify\n" + json.dumps({
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def test_ab_pairs_summary_of_canned_results():
    ab = runpy.run_path(str(SCRIPTS / "ab_pairs.py"))
    assert ab["parse_seeds"]("11-14") == [11, 12, 13, 14] and ab["parse_seeds"]("7") == [7]
    assert ab["result_of"]("Traceback\nValueError: boom") is None
    bench = [{"name": "setup_s", "better": "lower", "bound": 0.25},
             {"name": "op_ms_tail", "better": "lower", "bound": 0.25},
             {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    # the change's tail is lower in four pairs of five and ties the fifth;
    # its peak RSS is 20% higher, past the 10% bound; one change run failed
    # a unit and one parent run gave no result
    parent = [(0.030, 40.0, 36.0), (0.031, 38.0, 36.2), (0.029, 41.0, 36.1), (0.030, 39.0, 36.0),
              (0.030, 24.0, 36.0)]
    change = [(0.030, 24.0, 43.2), (0.030, 25.0, 43.4), (0.031, 23.0, 43.3), (0.029, 24.5, 43.2),
              (0.030, 24.0, 43.2)]
    pairs = [
        {"seed": 11 + i, "parent": ab["result_of"](_result_line(0, *a)),
         "change": ab["result_of"](_result_line(int(i == 2), *b))}
        for i, (a, b) in enumerate(zip(parent, change))
    ]
    pairs.append({"seed": 16, "parent": None, "change": ab["result_of"](_result_line(0, 0.03, 24.0, 43.2))})
    lines = ab["summarize"](pairs, bench)
    assert lines[0] == "pairs: 6"
    tail = next(line for line in lines if line.startswith("op_ms_tail:"))
    assert tail.startswith("op_ms_tail: parent 39 (quartiles 38-40), change 24 (-38.5%); change won 4/5")
    assert "gain not met" in tail  # 4 of 5 is below nine tenths
    rss = next(line for line in lines if line.startswith("peak_rss_mb:"))
    assert "WORSE than the 10% bound" in rss
    assert "within the 25% bound" in next(line for line in lines if line.startswith("setup_s:"))
    assert lines[-2:] == ["parent: 0 of 500 units failed; no result for seeds [16]", "change: 1 of 600 units failed"]
    # without the tie the change wins every pair, by more than the parent's spread
    assert "change won 4/4; gain met" in ab["summarize"](pairs[:4], bench)[2]


def test_ab_pairs_reports_the_median_units_per_run_before_the_failed_units():
    ab = runpy.run_path(str(SCRIPTS / "ab_pairs.py"))
    bench = [{"name": "op_ms_tail", "better": "lower", "bound": 0.25}]

    def result(attempted):
        res = ab["result_of"](_result_line(0, 0.03, 20.0, 36.0))
        return {**res, "attempted": attempted}

    pairs = [{"seed": 1, "parent": result(2100), "change": result(3800)},
             {"seed": 2, "parent": result(2150), "change": None},
             {"seed": 3, "parent": result(2122), "change": result(3827)}]
    lines = ab["summarize"](pairs, bench)
    assert lines[-3] == "units attempted per run (median): parent 2122, change 3813.5"
    assert lines[-2:] == ["parent: 0 of 6372 units failed", "change: 0 of 7627 units failed; no result for seeds [2]"]
    none = ab["summarize"]([{"seed": 1, "parent": None, "change": result(10)}], bench)
    assert none[-3] == "units attempted per run (median): parent no result, change 10"


def _tail_pairs(ab, parent, change):
    """One pair per entry, each side's tail in ms, or None for no result."""
    return [{"seed": i, "parent": ab["result_of"](_result_line(0, 0.03, a, 36.0)),
             "change": None if b is None else ab["result_of"](_result_line(0, 0.03, b, 36.0))}
            for i, (a, b) in enumerate(zip(parent, change))]


def test_ab_pairs_counts_a_gain_against_every_pair_run():
    ab = runpy.run_path(str(SCRIPTS / "ab_pairs.py"))
    bench = [{"name": "op_ms_tail", "better": "lower", "bound": 0.25}]
    parent = [20.0, 21.0, 19.0, 20.0, 22.0, 20.0, 21.0, 19.0, 20.0]
    # the change wins each of the eight pairs with both results, but a
    # ninth pair run gave it no result: 8 of 9 is below nine tenths
    short = ab["summarize"](_tail_pairs(ab, parent, [10.0] * 8 + [None]), bench)[1]
    assert "change won 8/8 (8/9 of all pairs); gain not met" in short
    assert "change won 9/9; gain met" in ab["summarize"](_tail_pairs(ab, parent, [10.0] * 9), bench)[1]


def test_ab_pairs_calls_a_bound_unresolved_where_the_parent_spreads_wider_than_it():
    ab = runpy.run_path(str(SCRIPTS / "ab_pairs.py"))
    bench = [{"name": "op_ms_tail", "better": "lower", "bound": 0.25}]
    # median 10 and quartiles 9-12: a spread of 3 against a bound of 2.5
    parent = [6.0, 12.0, 9.0, 18.0, 10.0]
    cases = [
        ([10.5, 11.0, 10.0, 12.0, 11.0], "unresolved: the parent's quartile spread exceeds the 25% bound"),
        ([30.0, 31.0, 29.0, 30.0, 30.0], "unresolved: the parent's quartile spread exceeds the 25% bound"),
        # every change run beats every parent run: the spread cannot hide a loss
        ([5.0, 5.5, 4.0, 5.0, 5.8], "within the 25% bound"),
    ]
    for change, verdict in cases:
        line = ab["summarize"](_tail_pairs(ab, parent, change), bench)[1]
        assert line.startswith("op_ms_tail: parent 10 (quartiles 9-12)") and line.endswith(verdict)
    # under the bound the spread leaves the verdict as it was
    narrow = [10.0, 10.2, 9.9, 10.1, 10.0]
    assert ab["summarize"](_tail_pairs(ab, narrow, [13.0] * 5), bench)[1].endswith("WORSE than the 25% bound")
