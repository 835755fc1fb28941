"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py

They check that BENCHMARK.json matches spec.py and the benchmark contract,
that the traced run's counts are exact for a seed and move with it, that
tracing leaves every rebound name restored, and that the computed subset
count and the closed-form coverage check agree with brute force.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from lrckit import derand, linalg, lrc, setfam  # noqa: E402
from lrckit.gf import GF  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_spec_and_contract():
    data = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert data == spec.benchmark_json()
    assert set(data) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(data["workloads"]) <= 8 and 1 <= len(data["end_to_end"]) <= 16
    assert 1 <= len(data["per_layer"]) <= 128 and 1 <= data["run_seconds"] <= 60
    names = [w["name"] for w in data["workloads"]]
    names += [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in data["workloads"])
    for m in data["end_to_end"] + data["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in data["end_to_end"])
    setup = next(m for m in data["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in data["end_to_end"])
    listed = [w["name"] for w in data["workloads"]]
    assert set(listed) | set(spec.BY_HAND) == set(workloads.NAMES)
    assert not set(listed) & set(spec.BY_HAND)


def _counts(name: str, seed: int) -> dict[str, float]:
    wl = workloads.make(name, HERE.parent / ".perfbench")
    wl.trace_ops = min(wl.trace_ops, 2)
    res = harness.traced(wl, seed)
    assert not res["failures"]
    metrics = res["tracer"].metrics(wl.trace_ops, res["traced_s"], res["untraced_s"])
    units = {n: u for n, u, _, _ in spec.PER_LAYER}
    assert set(metrics) == set(units)
    return {k: v for k, v in metrics.items() if units[k] in ("count", "ratio")}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counts_repeat_for_a_seed_and_move_with_it(name):
    first = _counts(name, 5)
    assert _counts(name, 5) == first
    assert _counts(name, 6) != first
    assert any(first.values())


def test_tracing_rebinds_every_copy_and_restores_it():
    tracer.assert_untraced()
    tr = tracer.Tracer()
    with tr.installed():
        assert getattr(setfam.verify_union_condition, "__wrapped__", None) is not None
        assert lrc.verify_union_condition is setfam.verify_union_condition
        assert derand.verify_union_condition is setfam.verify_union_condition
        assert getattr(linalg.rank, "__wrapped__", None) is not None
        with pytest.raises(RuntimeError):
            tracer.assert_untraced()
        lrc.code_params_from_family(setfam.greedy_family(13, 4, 2, 64, seed=1, target_m=3), 5)
    assert tracer.assert_untraced() == len(tracer.ORIGINALS)
    names = {rec[0] for rec in tr.spans}
    assert {"lrc.code_params_from_family", "setfam.verify_union_condition", "linalg.rank"} <= names


def test_untraced_run_checks_names_and_reports_every_metric(tmp_path):
    wl = workloads.make("cli", tmp_path)
    res = harness.untraced(wl, seed=3, seconds=0.01)
    assert res["rebound_names_checked"] == len(tracer.ORIGINALS)
    assert res["attempted"] >= 1 and not res["failures"]
    assert len(res["setups"]) >= harness.SETUP_MIN_RUNS


def test_certify_fails_a_refusal_or_witness_the_inputs_do_not_explain(monkeypatch):
    wl = workloads.Certify()
    verifying = [
        (fam, d) for fam, d in wl.build_corpus(seed=9) if not setfam.verify_union_condition(fam)
    ]
    has_code = next((fam, d) for fam, d in verifying if not wl.no_code_reasons(fam, d))
    low_r = next((fam, d) for fam, d in verifying if fam.r < d - 2)

    def failures(op) -> list[str]:
        out: list[str] = []
        harness.run_one(wl, {}, op, workloads.Probe(), out)
        return out

    assert failures(has_code) == [] and failures(low_r) == []

    def refuse(*args, **kwargs):
        raise ValueError("parity-check rank 0 is below m + d - 2")

    with monkeypatch.context() as m:
        m.setattr(lrc, "code_params_from_family", refuse)
        assert len(failures(has_code)) == 1
        assert failures(low_r) == []  # below r = d - 2 no code exists: a verdict
    fam, d = has_code
    pcm = lrc.build_parity_check(fam, d)
    independent = next(
        cols for cols in combinations(range(pcm.n), d)
        if not workloads.dependent(pcm.field, pcm.rows, cols)
    )
    with monkeypatch.context() as m:
        m.setattr(lrc, "min_distance_witness", lambda pcm: independent)
        assert len(failures(has_code)) == 1


def test_certify_scans_fit_the_program_budget():
    # a verifying family's exact-distance scan covers up to m + d - 1 of
    # its m(r+1) columns; lrc refuses a larger scan before starting it
    wl = workloads.Certify()
    for r in wl.RS:
        for d in wl.DS:
            m = wl.max_sets(r, d)
            assert linalg.subset_search_cost(m * (r + 1), m + d - 1) <= lrc.DEFAULT_SUBSET_BUDGET


def test_subsets_examined_matches_enumeration():
    field = GF(7)
    rows = [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1], [1, 2, 3, 1, 2, 3]]
    cols = [tuple(r[j] for r in rows) for j in range(6)]
    witness = linalg.smallest_dependent_subset(field, cols, 4)
    walked = 0
    for w in range(1, 5):
        for combo in combinations(range(6), w):
            walked += 1
            if combo == witness:
                break
        else:
            continue
        break
    assert tracer.subsets_examined(6, 3, 4, witness) == walked
    assert tracer.subsets_examined(6, 3, 2, None) == 6 + 15


def test_closed_form_coverage_agrees_with_the_walk():
    corpus = workloads.Certify().build_corpus(seed=9)
    assert len(corpus) > 400
    for fam, _ in corpus:
        assert workloads.coverage_ok(fam.sets, fam.r, fam.t) == (not setfam.verify_union_condition(fam))
