"""Smoke runs of the example scripts, in-process, with small arguments."""

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
