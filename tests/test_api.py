import importlib
import inspect
import sys
from pathlib import Path

import lrckit
from lrckit import linalg, setfam


def test_every_public_name_resolves_once():
    assert len(set(lrckit.__all__)) == len(lrckit.__all__)
    missing = [name for name in lrckit.__all__ if not hasattr(lrckit, name)]
    assert missing == []
    namespace: dict = {}
    exec("from lrckit import *", namespace)
    assert set(lrckit.__all__) <= set(namespace)


def test_readme_quick_start_runs(capsys):
    # the README's library example as written, with the outputs its comments name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(block, {})
    assert capsys.readouterr().out.split() == ["5", "local", "True"]


def test_the_benchmark_tracer_still_finds_every_name_it_rebinds(monkeypatch):
    # perfbench/tracer.py looks up the names it traces when it is imported,
    # and binds the scan's and the greedy generator's arguments by name: a
    # name removed or renamed here would fail every benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    try:
        tracer = importlib.import_module("tracer")
        assert tracer.assert_untraced() == len(tracer.ORIGINALS)
    finally:
        for name in ("tracer", "spec"):
            sys.modules.pop(name, None)
    scan = inspect.signature(linalg.smallest_dependent_subset).bind(None, [], 0)
    assert {"columns", "max_size"} <= set(scan.arguments)
    greedy = inspect.signature(setfam.greedy_family).bind(13, 4, 2, 64, 0)
    assert "candidate_budget" in greedy.arguments
