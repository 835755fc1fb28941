"""Fuzz the file readers and every CLI subcommand with near-valid input.

Files start from valid ones (the reference q = 13 family, its parity-check
matrix and a codeword) or from random near-valid headers, then get random
tokens swapped in: out-of-range values, "?", junk, wrong lengths.  Flags
take edge values.  Whatever the input, `main` must return one of the
documented exit codes and raise nothing, and the readers may only raise
FormatError.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrckit import formats
from lrckit.cli import main

FAMILY = "13 4 2 3\n0 1 2 3 4\n0 5 6 7 8\n1 5 9 10 11\n"
QS = [-1, 0, 1, 2, 4, 6, 7, 9, 13, 16, 17]
SMALL = st.integers(-2, 6)


def _run(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory) -> dict[str, str]:
    d = tmp_path_factory.mktemp("valid")
    (d / "fam.txt").write_text(FAMILY)
    assert _run(["build-code", "--in", str(d / "fam.txt"), "--d", "5", "--out", str(d / "H.txt")]) == 0
    assert _run(["encode", "--matrix", str(d / "H.txt"), "--seed", "7", "--out", str(d / "w.txt")]) == 0
    return {kind: (d / f"{name}.txt").read_text() for kind, name in
            (("family", "fam"), ("matrix", "H"), ("word", "w"))}


def tokens(q: int) -> st.SearchStrategy[str]:
    return st.one_of(
        st.integers(-1, max(q, 1)).map(str),
        st.sampled_from(["?", "x", "1.5", "-0", str(2**70)]),
    )


@st.composite
def file_text(draw, kind: str, valid: str) -> str:
    if draw(st.booleans()):  # the readers split on whitespace, so lines do not matter
        toks = valid.split()
        for _ in range(draw(st.integers(0, 3))):
            toks[draw(st.integers(0, len(toks) - 1))] = draw(tokens(13))
        if draw(st.booleans()):
            toks = toks[: draw(st.integers(0, len(toks)))]
        return " ".join(toks) + "\n"
    q = draw(st.sampled_from(QS))
    if kind == "family":
        r, t, m = draw(SMALL), draw(st.integers(-1, 4)), draw(st.integers(-1, 3))
        header, count = [q, r, t, m], m * (r + 1)
    elif kind == "matrix":
        rows, cols = draw(st.integers(-1, 4)), draw(st.integers(-1, 8))
        header, count = [rows, cols, q], rows * cols
    else:
        n = draw(st.integers(-1, 12))
        header, count = [n, q], n
    count = max(0, count + draw(st.sampled_from([0, 0, 0, -1, 1])))
    body = [draw(tokens(q)) if draw(st.integers(0, 9)) == 0 else str(draw(st.integers(0, max(q - 1, 0))))
            for _ in range(count)]
    return " ".join(map(str, header)) + "\n" + " ".join(body) + "\n"


def _flag(draw, name: str, values) -> list[str]:
    value = draw(st.one_of(st.none(), values))
    return [] if value is None else [name, str(value)]


@st.composite
def command(draw, valid: dict[str, str]) -> tuple[list[str], dict[str, str]]:
    sub = draw(st.sampled_from(
        ["gen-family", "verify", "build-code", "distance", "encode", "erase", "repair", "decode"]))
    files: dict[str, str] = {}

    def infile(kind: str) -> str:
        files[kind] = draw(file_text(kind, valid[kind]))
        return kind

    d = st.integers(-1, 8)
    if sub == "gen-family":
        argv = ["--q", str(draw(st.sampled_from(QS))), "--r", str(draw(SMALL)), "--d", str(draw(d)),
                "--method", draw(st.sampled_from(["random", "greedy", "derandomized"])),
                "--seed", str(draw(st.integers(0, 3)))]
        argv += _flag(draw, "--n", st.integers(-1, 24))
        argv += _flag(draw, "--budget", st.sampled_from([-1, 0, 1, 64]))
    elif sub == "verify":
        argv = ["--in", infile("family")] + _flag(draw, "--d", d)
        argv += ["--full"] if draw(st.booleans()) else []
        argv += _flag(draw, "--budget", st.sampled_from([-1, 0, 10, 100000]))
    elif sub == "build-code":
        argv = ["--in", infile("family"), "--d", str(draw(d))]
    elif sub == "distance":
        argv = ["--in", infile("matrix")] + _flag(draw, "--d", d)
        argv += _flag(draw, "--budget", st.sampled_from([-1, 0, 10, 100000]))
    elif sub == "encode":
        argv = ["--matrix", infile("matrix"), "--seed", str(draw(st.integers(0, 3)))]
        argv += ["--in", infile("word")] if draw(st.booleans()) else []
    elif sub == "erase":
        argv = ["--in", infile("word"), "--seed", str(draw(st.integers(0, 3)))]
        argv += _flag(draw, "--positions", st.sampled_from(["0", "6", "-1", "3,3", "a", "", "1,,2", "99", "0,14"]))
        argv += _flag(draw, "--count", st.integers(-1, 16))
    elif sub == "repair":
        argv = ["--matrix", infile("matrix"), "--in", infile("word")] + _flag(draw, "--r", st.integers(-2, 5))
    else:
        argv = ["--matrix", infile("matrix"), "--in", infile("word")]
    if sub not in ("verify", "distance"):
        argv += ["--out", "out.txt"]
    return [sub] + argv, files


READERS = {"family": formats.read_family, "matrix": formats.read_matrix, "word": formats.read_word}


@given(data=st.data())
@settings(max_examples=250, deadline=None)
def test_cli_and_readers_never_crash(valid_files, data):
    argv, files = data.draw(command(valid_files))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for kind, text in files.items():
            path = Path(tmp) / f"{kind}.txt"
            path.write_text(text)
            paths[kind] = str(path)
            try:
                READERS[kind](path)
            except formats.FormatError:
                pass
        argv = [paths.get(a, str(Path(tmp) / a) if a == "out.txt" else a) for a in argv]
        assert _run(argv) in (0, 1, 2, 3), argv
