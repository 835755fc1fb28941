"""End-to-end command tests, run in-process through main(argv)."""

import shlex
from pathlib import Path

import pytest

from lrckit.cli import main
from lrckit.formats import read_family, read_matrix, read_word, write_word

FAMILY = "13 4 2 3\n0 1 2 3 4\n0 5 6 7 8\n1 5 9 10 11\n"
BROKEN = "13 4 2 2\n0 1 2 3 4\n0 1 5 6 7\n"


@pytest.fixture()
def fam_file(tmp_path):
    p = tmp_path / "fam.txt"
    p.write_text(FAMILY)
    return p


@pytest.fixture()
def code_files(tmp_path, fam_file):
    h = tmp_path / "H.txt"
    assert main(["build-code", "--in", str(fam_file), "--d", "5", "--out", str(h)]) == 0
    w = tmp_path / "w.txt"
    assert main(["encode", "--matrix", str(h), "--seed", "7", "--out", str(w)]) == 0
    return h, w


def test_verify_pass_and_fail(tmp_path, fam_file, capsys):
    assert main(["verify", "--in", str(fam_file)]) == 0
    assert "pass" in capsys.readouterr().out
    bad = tmp_path / "bad.txt"
    bad.write_text(BROKEN)
    assert main(["verify", "--in", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "(0,1)" in out


def test_verify_full_reports_optimality(fam_file, capsys):
    assert main(["verify", "--in", str(fam_file), "--full", "--d", "5"]) == 0
    out = capsys.readouterr().out
    assert "minimum distance: 5" in out
    assert "OPTIMAL (Singleton-type bound" in out


def test_verify_full_requires_d(fam_file):
    assert main(["verify", "--in", str(fam_file), "--full"]) == 2


def test_adjusted_bound_wording(tmp_path, capsys):
    fam = tmp_path / "adj.txt"
    fam.write_text("13 3 2 3\n0 1 2 3\n0 4 5 6\n1 4 7 8\n")
    assert main(["verify", "--in", str(fam), "--full", "--d", "5"]) == 0
    assert "OPTIMAL (adjusted bound" in capsys.readouterr().out


def test_gen_family_greedy_round_trip(tmp_path):
    out = tmp_path / "fam.txt"
    rc = main([
        "gen-family", "--q", "13", "--r", "4", "--d", "5",
        "--method", "greedy", "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    fam = read_family(out)
    assert fam.q == 13 and fam.r == 4 and fam.m >= 2
    assert main(["verify", "--in", str(out)]) == 0


def test_gen_family_usage_errors(tmp_path):
    out = tmp_path / "x.txt"
    base = ["gen-family", "--q", "13", "--r", "4", "--out", str(out)]
    assert main(base + ["--d", "4", "--method", "greedy"]) == 2
    assert main(base + ["--d", "5", "--method", "random"]) == 2  # random needs t >= 3
    # target beyond the packing ceiling dies before sampling
    rc = main([
        "gen-family", "--q", "7", "--r", "3", "--d", "7",
        "--method", "random", "--n", "600", "--out", str(out),
    ])
    assert rc == 2
    assert not out.exists()


def test_gen_family_generation_failure_exit(tmp_path):
    out = tmp_path / "x.txt"
    rc = main([
        "gen-family", "--q", "30", "--r", "5", "--d", "7",
        "--method", "random", "--n", "174", "--seed", "3", "--out", str(out),
    ])
    assert rc == 3


def test_build_code_and_distance(tmp_path, fam_file, capsys):
    h = tmp_path / "H.txt"
    assert main(["build-code", "--in", str(fam_file), "--d", "5", "--out", str(h)]) == 0
    rows, q = read_matrix(h)
    assert q == 13 and len(rows) == 6 and len(rows[0]) == 15
    assert main(["distance", "--in", str(h)]) == 0
    out = capsys.readouterr().out
    assert "minimum distance: 5" in out
    assert main(["distance", "--in", str(h), "--d", "5"]) == 0
    assert main(["distance", "--in", str(h), "--d", "6"]) == 1
    bad = tmp_path / "bad.txt"
    bad.write_text(BROKEN)
    assert main(["build-code", "--in", str(bad), "--d", "5", "--out", str(h)]) == 1


def test_encode_erase_repair_cycle(tmp_path, code_files, capsys):
    h, w = code_files
    erased = tmp_path / "e.txt"
    repaired = tmp_path / "r.txt"
    assert main(["erase", "--in", str(w), "--positions", "6", "--out", str(erased)]) == 0
    assert main(["repair", "--matrix", str(h), "--in", str(erased), "--out", str(repaired)]) == 0
    out = capsys.readouterr().out
    assert "repair path: local" in out and "symbols read: 4" in out
    assert repaired.read_bytes() == w.read_bytes()


def test_erase_then_decode_cycle(tmp_path, code_files):
    h, w = code_files
    erased = tmp_path / "e.txt"
    decoded = tmp_path / "d.txt"
    assert main(["erase", "--in", str(w), "--count", "4", "--seed", "3", "--out", str(erased)]) == 0
    symbols, _ = read_word(erased)
    assert sum(1 for s in symbols if s is None) == 4
    assert main(["decode", "--matrix", str(h), "--in", str(erased), "--out", str(decoded)]) == 0
    assert decoded.read_bytes() == w.read_bytes()


def test_unrecoverable_exit(tmp_path, code_files, capsys):
    h, w = code_files
    erased = tmp_path / "e.txt"
    out = tmp_path / "d.txt"
    # the first repair group is the support of a minimum-weight codeword
    assert main(["erase", "--in", str(w), "--positions", "0,1,2,3,4", "--out", str(erased)]) == 0
    assert main(["decode", "--matrix", str(h), "--in", str(erased), "--out", str(out)]) == 1
    assert "unrecoverable" in capsys.readouterr().out
    assert not out.exists()


def test_encode_from_message_file(tmp_path, code_files):
    h, w = code_files
    msg = tmp_path / "msg.txt"
    msg.write_text("9 13\n1 2 3 4 5 6 7 8 9\n")
    out = tmp_path / "enc.txt"
    assert main(["encode", "--matrix", str(h), "--in", str(msg), "--out", str(out)]) == 0
    word, q = read_word(out)
    assert q == 13 and len(word) == 15 and None not in word
    short = tmp_path / "short.txt"
    short.write_text("2 13\n1 2\n")
    assert main(["encode", "--matrix", str(h), "--in", str(short), "--out", str(out)]) == 2


@pytest.mark.parametrize("header", ["0 0 13", "0 4 13", "3 0 13"])
@pytest.mark.parametrize("command", ["distance", "encode", "repair", "decode"])
def test_empty_matrix_is_a_usage_error(tmp_path, capsys, header, command):
    h = tmp_path / "H.txt"
    h.write_text(header + "\n")
    w = tmp_path / "w.txt"
    w.write_text("2 13\n1 ?\n")
    out = tmp_path / "out.txt"
    argv = {
        "distance": ["distance", "--in", str(h), "--d", "5"],
        "encode": ["encode", "--matrix", str(h), "--seed", "1", "--out", str(out)],
        "repair": ["repair", "--matrix", str(h), "--in", str(w), "--r", "1", "--out", str(out)],
        "decode": ["decode", "--matrix", str(h), "--in", str(w), "--out", str(out)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_repair_refuses_word_of_wrong_length(tmp_path, capsys):
    h = tmp_path / "H.txt"
    h.write_text("1 2 13\n1 1\n")
    w = tmp_path / "w.txt"
    w.write_text("3 13\n5 ? 7\n")
    out = tmp_path / "out.txt"
    assert main(["repair", "--matrix", str(h), "--in", str(w), "--out", str(out)]) == 2
    assert "error: received word length 3 != n = 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("r", ["2", "0", "-1"])
def test_repair_refuses_r_that_disagrees_with_the_block_rows(tmp_path, code_files, capsys, r):
    # the matrix's block rows give r = 4; any other --r would repair from
    # groups that are not the code's blocks
    h, w = code_files
    erased = tmp_path / "e.txt"
    out = tmp_path / "r.txt"
    assert main(["erase", "--in", str(w), "--positions", "6", "--out", str(erased)]) == 0
    capsys.readouterr()
    assert main(["repair", "--matrix", str(h), "--in", str(erased), "--r", r, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    assert main(["repair", "--matrix", str(h), "--in", str(erased), "--r", "4", "--out", str(out)]) == 0
    assert out.read_bytes() == w.read_bytes()


def test_repair_refuses_a_word_that_fails_the_parity_checks(tmp_path, code_files, capsys):
    h, w = code_files
    symbols, q = read_word(w)
    symbols[0] = (symbols[0] + 1) % q
    symbols[6] = None
    erased = tmp_path / "e.txt"
    write_word(erased, symbols, q)
    out = tmp_path / "r.txt"
    assert main(["repair", "--matrix", str(h), "--in", str(erased), "--out", str(out)]) == 1
    assert "repair failed" in capsys.readouterr().out
    assert not out.exists()


def test_distance_of_a_full_column_rank_matrix_is_a_usage_error(tmp_path, capsys):
    # one nonzero column: the code is {0}, so no dependent set exists
    h = tmp_path / "H.txt"
    h.write_text("3 1 7\n3\n0\n6\n")
    assert main(["distance", "--in", str(h)]) == 2
    assert "error: all 1 columns are independent" in capsys.readouterr().err
    assert main(["distance", "--in", str(h), "--d", "2"]) == 0


def test_usage_error_on_unknown_command():
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_reruns_are_byte_identical(tmp_path, fam_file):
    pairs = []
    for tag in ("a", "b"):
        fam = tmp_path / f"fam-{tag}.txt"
        h = tmp_path / f"h-{tag}.txt"
        w = tmp_path / f"w-{tag}.txt"
        e = tmp_path / f"e-{tag}.txt"
        r = tmp_path / f"r-{tag}.txt"
        assert main(["gen-family", "--q", "17", "--r", "3", "--d", "5",
                     "--method", "greedy", "--seed", "11", "--out", str(fam)]) == 0
        assert main(["build-code", "--in", str(fam), "--d", "5", "--out", str(h)]) == 0
        assert main(["encode", "--matrix", str(h), "--seed", "2", "--out", str(w)]) == 0
        assert main(["erase", "--in", str(w), "--count", "2", "--seed", "9", "--out", str(e)]) == 0
        assert main(["repair", "--matrix", str(h), "--in", str(e), "--out", str(r)]) == 0
        pairs.append([p.read_bytes() for p in (fam, h, w, e, r)])
    assert pairs[0] == pairs[1]


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # every `lrckit ...` line of the README's CLI section, in order, in one
    # directory, so the documented commands cannot drift from the parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [ln.split("#", 1)[0] for ln in section.splitlines() if ln.startswith("lrckit ")]
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    assert "minimum distance: 5" in capsys.readouterr().out
