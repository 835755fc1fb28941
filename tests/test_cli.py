"""End-to-end command tests, run in-process through main(argv)."""

import hashlib
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

import lrckit
from lrckit import cli, linalg, lrc
from lrckit.cli import main
from lrckit.formats import read_family, read_matrix, read_word, write_word
from lrckit.rng import SplitMix64

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


@pytest.mark.parametrize("method", ["random", "greedy", "derandomized"])
@pytest.mark.parametrize("flags", [["--n", "0"], ["--n", "-3"], ["--budget", "-3"]])
def test_gen_family_refuses_an_empty_target_and_a_negative_budget(tmp_path, capsys, method, flags):
    out = tmp_path / "x.txt"
    argv = ["gen-family", "--q", "13", "--r", "2", "--d", "7", "--method", method, "--out", str(out)]
    assert main(argv + flags) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("method", ["random", "greedy", "derandomized"])
@pytest.mark.parametrize("q", [65537, 1000000])
def test_gen_family_refuses_an_order_above_any_field(tmp_path, capsys, method, q):
    # GF refuses q > 65536, so no such family can become a code; at q = 10^6
    # the random method would otherwise draw 13.9M sets first
    out = tmp_path / "x.txt"
    argv = ["gen-family", "--q", str(q), "--r", "1", "--d", "7", "--method", method, "--out", str(out)]
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == f"error: --q {q} exceeds 65536, the largest field order a code can use\n"
    assert not out.exists()


def test_gen_family_derandomized_keeps_the_first_n_over_r_plus_1_sets(tmp_path, capsys):
    base = ["gen-family", "--q", "64", "--r", "2", "--d", "7", "--method", "derandomized"]
    whole, cut, long = tmp_path / "whole.txt", tmp_path / "cut.txt", tmp_path / "long.txt"
    assert main(base + ["--out", str(whole)]) == 0
    assert "sets: 4\n" in capsys.readouterr().out
    assert main(base + ["--n", "6", "--out", str(cut)]) == 0
    assert "sets: 2\n" in capsys.readouterr().out
    assert read_family(cut).sets == read_family(whole).sets[:2]
    # a longer code than the construction reaches keeps every set
    assert main(base + ["--n", "300", "--out", str(long)]) == 0
    assert "sets: 4\n" in capsys.readouterr().out
    assert long.read_bytes() == whole.read_bytes()


def test_gen_family_generation_failure_exit(tmp_path):
    out = tmp_path / "x.txt"
    rc = main([
        "gen-family", "--q", "30", "--r", "5", "--d", "7",
        "--method", "random", "--n", "174", "--seed", "3", "--out", str(out),
    ])
    assert rc == 3


@pytest.mark.parametrize("argv", [["build-code", "--out", "{dir}/H.txt"], ["verify", "--full"]])
def test_the_code_commands_build_h_once(tmp_path, fam_file, argv):
    # the parameter gate reads the family, so the command's own H is the only one built
    argv = [a.format(dir=tmp_path) for a in argv] + ["--in", str(fam_file), "--d", "5"]
    with mock.patch.object(lrc, "build_parity_check", wraps=lrc.build_parity_check) as built:
        assert main(argv) == 0
    assert built.call_count == 1


def test_the_distance_path_runs_no_elimination(fam_file, code_files):
    # the witness caps its scan at the row count and the parameter gate
    # reads the family, so no distance answer takes a rank
    h, _ = code_files
    family = read_family(fam_file)
    with mock.patch.object(linalg, "rref", wraps=linalg.rref) as rref:
        assert lrc.min_distance_witness(lrc.build_parity_check(family, 5)) == (0, 1, 2, 3, 4)
        assert lrc.exact_min_distance(lrc.build_parity_check(family, 5)) == 5
        assert main(["distance", "--in", str(h)]) == 0
        assert main(["verify", "--in", str(fam_file), "--full", "--d", "5"]) == 0
    assert rref.call_count == 0


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
    capsys.readouterr()
    # sizes past the 6 rows are dependent by counting and cost no subsets,
    # so a design distance far above the row count fits the same budget
    for d in ("8", "16"):
        assert main(["distance", "--in", str(h), "--d", d, "--budget", "20000"]) == 1
        out = capsys.readouterr().out
        assert out == f"distance >= {d}: FAIL  dependent columns [0, 1, 2, 3, 4]\n"
    assert main(["distance", "--in", str(h), "--budget", "10"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: budget exceeded") and len(err[0]) < 200
    bad = tmp_path / "bad.txt"
    bad.write_text(BROKEN)
    assert main(["build-code", "--in", str(bad), "--d", "5", "--out", str(h)]) == 1


def test_distance_with_and_without_d_agree(tmp_path, fam_file, capsys):
    # --d k passes while the exact distance is at least k, and below it
    # names the witness the plain command names
    matrices = [tmp_path / "plain.txt", tmp_path / "random.txt"]
    matrices[0].write_text("3 6 13\n1 0 0 1 1 1\n0 1 0 1 2 4\n0 0 1 1 3 9\n")
    rng = SplitMix64(11)
    matrices[1].write_text("3 7 7\n" + "".join(
        " ".join(str(rng.below(7)) for _ in range(7)) + "\n" for _ in range(3)))
    for fam, q, r, d in ((fam_file, 13, 4, 5), ("g1", 13, 4, 5), ("g2", 16, 5, 7)):
        if fam in ("g1", "g2"):
            fam = tmp_path / f"{fam}.txt"
            assert main(["gen-family", "--q", str(q), "--r", str(r), "--d", str(d), "--method",
                         "greedy", "--seed", "4", "--out", str(fam)]) == 0
        matrices.append(tmp_path / f"H-{len(matrices)}.txt")
        assert main(["build-code", "--in", str(fam), "--d", str(d), "--out", str(matrices[-1])]) == 0
    for h in matrices:
        capsys.readouterr()
        assert main(["distance", "--in", str(h)]) == 0
        dist, witness = (line.split(": ")[1] for line in capsys.readouterr().out.splitlines())
        for k in range(1, int(dist) + 3):
            passes = int(dist) >= k
            assert main(["distance", "--in", str(h), "--d", str(k)]) == int(not passes)
            out = capsys.readouterr().out
            assert out == (f"distance >= {k}: pass\n" if passes
                           else f"distance >= {k}: FAIL  dependent columns {witness}\n")


@pytest.mark.parametrize("argv", [
    ["distance", "--in", "{h}"],
    ["distance", "--in", "{h}", "--d", "5"],
    ["verify", "--in", "{fam}", "--full", "--d", "5"],
])
def test_scans_refuse_a_negative_budget(tmp_path, fam_file, capsys, argv):
    h = tmp_path / "H.txt"
    assert main(["build-code", "--in", str(fam_file), "--d", "5", "--out", str(h)]) == 0
    capsys.readouterr()
    args = [a.format(h=h, fam=fam_file) for a in argv]
    assert main(args + ["--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --budget -1 must be non-negative\n"


@pytest.mark.parametrize("argv,error", [
    (["verify", "--in", "{fam}", "--d", "7"], "family was built for t=2; d=7 needs t >= 3"),
    (["verify", "--in", "{fam}", "--d", "4"], "d=4 too small: need d >= 5 so that t = (d-1)//2 >= 2"),
    (["verify", "--in", "{fam}", "--full", "--d", "7"], "family was built for t=2; d=7 needs t >= 3"),
    (["distance", "--in", "{h}", "--d", "0"], "--d 0 must be at least 1"),
    (["distance", "--in", "{h}", "--d", "-1"], "--d -1 must be at least 1"),
])
def test_a_d_the_command_cannot_honour_is_a_usage_error(tmp_path, fam_file, capsys, argv, error):
    # a t = 2 family and its code: verify applies the checks of --full to
    # any --d, and distance refuses a bound below 1
    h = tmp_path / "H.txt"
    assert main(["build-code", "--in", str(fam_file), "--d", "5", "--out", str(h)]) == 0
    capsys.readouterr()
    assert main([a.format(h=h, fam=fam_file) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize("argv,error", [
    (["erase", "--in", "{w}", "--positions", "1,,2"], "bad --positions list: invalid literal for int() with base 10: ''"),
    (["erase", "--in", "{w}", "--count", "9"], "--count must lie in [0, 4]"),
    (["encode", "--matrix", "{h}", "--in", "{w}"], "message file contains erasures"),
    (["repair", "--matrix", "{plain}", "--in", "{w}"], "cannot infer locality from the matrix; pass --r"),
], ids=["erase-positions", "erase-count", "encode-erasure", "repair-no-blocks"])
def test_word_commands_refuse_input_they_cannot_take(tmp_path, capsys, argv, error):
    # a 4-symbol word with one erasure, the 2 x 4 code it belongs to, and a
    # matrix with no block rows
    files = {"w": "4 13\n1 ? 3 4\n", "h": "2 4 13\n1 1 1 1\n1 2 3 4\n", "plain": "1 4 13\n1 2 3 4\n"}
    for name, text in files.items():
        (tmp_path / f"{name}.txt").write_text(text)
    out = tmp_path / "out.txt"
    assert main([a.format(**{k: tmp_path / f"{k}.txt" for k in files}) for a in argv] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"
    assert not out.exists()


def test_verify_full_fails_on_a_witness_below_d_and_names_a_code_that_is_not_optimal(fam_file, capsys, monkeypatch):
    # the checks behind "no command returns exit 0 with a wrong answer": a
    # distance below d fails verify, and a verdict of NOT OPTIMAL is printed
    argv = ["verify", "--in", str(fam_file), "--full", "--d", "5"]
    with monkeypatch.context() as patch:
        patch.setattr(lrc, "min_distance_witness", lambda pcm, budget: (0, 1, 5, 6))
        assert main(argv) == 1
    out = capsys.readouterr().out
    assert "minimum distance: 4\n" in out and out.endswith("distance check: FAIL  dependent columns [0, 1, 5, 6]\n")
    with monkeypatch.context() as patch:
        patch.setattr(lrc, "optimality_check", lambda params, actual: lrc.OptimalityVerdict(lrc.OptimalityKind.NOT_OPTIMAL, 6))
        assert main(argv) == 0
    assert capsys.readouterr().out.endswith("optimality: NOT OPTIMAL (d = 5, applicable bound 6)\n")


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


# the last matrix is well formed, but over q = 12, which is no prime power
@pytest.mark.parametrize("header", ["0 0 13", "0 4 13", "3 0 13", "1 2 12\n1 1"])
@pytest.mark.parametrize("command", ["distance", "encode", "repair", "decode"])
def test_empty_matrix_is_a_usage_error(tmp_path, capsys, header, command):
    h = tmp_path / "H.txt"
    h.write_text(header + "\n")
    w = tmp_path / "w.txt"
    w.write_text(f"2 {header.split()[2]}\n1 ?\n")
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


@pytest.mark.parametrize("family", [FAMILY, BROKEN], ids=["passing", "failing"])
@pytest.mark.parametrize("d", [3, 4, 7])
def test_build_code_refuses_a_d_the_family_cannot_take_as_verify_does(tmp_path, capsys, family, d):
    # d = 3 and 4 give t < 2, and d = 7 needs t = 3 of a t = 2 family: a
    # usage error before the union check, whether or not the family passes it
    fam = tmp_path / "fam.txt"
    fam.write_text(family)
    out = tmp_path / "H.txt"
    assert main(["verify", "--in", str(fam), "--d", str(d)]) == 2
    refusal = capsys.readouterr()
    assert refusal.out == "" and refusal.err.startswith("error: ")
    assert main(["build-code", "--in", str(fam), "--d", str(d), "--out", str(out)]) == 2
    assert capsys.readouterr() == refusal
    assert not out.exists()


HUGE_PRIME = 1000000000000000003


@pytest.mark.parametrize("command", ["build-code", "distance", "encode", "repair", "decode"])
def test_huge_field_order_is_refused_at_once(tmp_path, capsys, command):
    # q is prime, so finding that it is a prime power would take 10**9
    # trial divisions; the range check comes first
    fam = tmp_path / "fam.txt"
    fam.write_text(f"{HUGE_PRIME} 1 2 1\n0 1\n")
    h = tmp_path / "H.txt"
    h.write_text(f"1 1 {HUGE_PRIME}\n5\n")
    w = tmp_path / "w.txt"
    w.write_text(f"1 {HUGE_PRIME}\n?\n")
    out = tmp_path / "out.txt"
    argv = {
        "build-code": ["build-code", "--in", str(fam), "--d", "5", "--out", str(out)],
        "distance": ["distance", "--in", str(h)],
        "encode": ["encode", "--matrix", str(h), "--seed", "1", "--out", str(out)],
        "repair": ["repair", "--matrix", str(h), "--in", str(w), "--r", "1", "--out", str(out)],
        "decode": ["decode", "--matrix", str(h), "--in", str(w), "--out", str(out)],
    }[command]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeds the supported maximum" in err
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


def test_repair_refuses_a_complete_word_that_fails_the_parity_checks_as_decode_does(tmp_path, code_files, capsys):
    h, w = code_files
    out = tmp_path / "r.txt"
    assert main(["repair", "--matrix", str(h), "--in", str(w), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"repair path: none\nsymbols read: 0\nwrote: {out}\n"
    assert out.read_bytes() == w.read_bytes()
    out.unlink()
    symbols, q = read_word(w)
    symbols[6] = (symbols[6] + 1) % q
    bad = tmp_path / "bad.txt"
    write_word(bad, symbols, q)
    assert main(["decode", "--matrix", str(h), "--in", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().out == "inconsistent word: word is complete but fails the parity checks\n"
    assert main(["repair", "--matrix", str(h), "--in", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().out == "repair failed: word is complete but fails the parity checks\n"
    assert not out.exists()


def test_distance_of_a_28_block_gf27_code(tmp_path, capsys):
    # 31 x 112: sizes 1..4 hold 6.44M column subsets but only about 14k that
    # meet each block in 0 or >= 2 columns, and sizes 1..6 fit the default
    # budget, past which every candidate is dependent by counting
    fam, h = tmp_path / "fam.txt", tmp_path / "H.txt"
    assert main([
        "gen-family", "--q", "27", "--r", "3", "--d", "5", "--method", "greedy",
        "--seed", "3", "--budget", "300", "--out", str(fam),
    ]) == 0
    assert main(["build-code", "--in", str(fam), "--d", "5", "--out", str(h)]) == 0
    capsys.readouterr()
    assert main(["distance", "--in", str(h), "--d", "5"]) == 0
    assert capsys.readouterr().out == "distance >= 5: pass\n"
    assert main(["distance", "--in", str(h)]) == 0
    assert capsys.readouterr().out == "minimum distance: 5\nwitness columns: [0, 1, 2, 25, 26]\n"


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


# sha256 of the files these commands wrote before the draws were batched and
# the rank taken through the block rows; a seed must keep writing the same bytes
PINNED_FILES = {
    "g13": (["gen-family", "--q", "13", "--r", "4", "--d", "5", "--method", "greedy", "--seed", "5"],
            "73cc997785ca1c14884c7a679bce4515ead979f7df256355d2b8701bf82e1004"),
    "g101": (["gen-family", "--q", "101", "--r", "5", "--d", "7", "--method", "greedy", "--seed", "3"],
             "ca31c359bb36bda092bb31b656bf753998ffcf4752708b47973196eebdc5b9b0"),
    "r101": (["gen-family", "--q", "101", "--r", "5", "--d", "7", "--method", "random", "--n", "60",
              "--seed", "3"],
             "59d25c6a48500a6ffcd1fc36a707b399255323b06240cfe9bb4cd8a3606258e2"),
    "H": (["build-code", "--in", "{g13}", "--d", "5"],
          "3ee433f43d04df8491d1f48f9838678e95cc30667af4564f1ec4aa30b781376a"),
    "w": (["encode", "--matrix", "{H}", "--seed", "11"],
          "1e0a5e75b7a42377f9a930b996397ca33fbd2d7aee913c3c4602513ad4a93be7"),
    "e4": (["erase", "--in", "{w}", "--count", "4", "--seed", "12"],
           "74db77ca2f0c03644cbe1c65da47dabea7ff80c8b912547e76ab533e094ae9f6"),
}


def test_seeded_commands_write_pinned_bytes(tmp_path):
    paths = {name: str(tmp_path / f"{name}.txt") for name in PINNED_FILES}
    for name, (argv, digest) in PINNED_FILES.items():
        assert main([a.format(**paths) for a in argv] + ["--out", paths[name]]) == 0
        assert hashlib.sha256(Path(paths[name]).read_bytes()).hexdigest() == digest, name


# one session of commands, usage errors among them: exit 2 from argparse
# (an unknown option, an unknown command) and from a refused value
SESSION = [
    ["gen-family", "--q", "13", "--r", "4", "--d", "5", "--method", "greedy", "--seed", "5",
     "--out", "fam.txt"],
    ["build-code", "--in", "fam.txt", "--d", "5", "--out", "H.txt", "--oops"],
    ["build-code", "--in", "fam.txt", "--d", "5", "--out", "H.txt"],
    ["gen-family", "--q", "13", "--r", "4", "--d", "5", "--out", "x.txt"],
    ["encode", "--matrix", "H.txt", "--seed", "11", "--out", "w.txt"],
    ["frobnicate"],
    ["erase", "--in", "w.txt", "--count", "2", "--seed", "12", "--out", "e.txt"],
    ["repair", "--matrix", "H.txt", "--in", "e.txt", "--out", "r.txt"],
]


def _settled(out: str) -> str:
    return re.sub(r"wall time: \S+", "wall time: -", out)


def test_one_process_answers_a_session_as_separate_processes_do(tmp_path, monkeypatch, capsys):
    # main parses with one parser built per process; reusing it must change
    # no exit code, output line or written byte
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to this
    pkg_root = str(Path(lrckit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    alone, together = tmp_path / "alone", tmp_path / "together"
    alone.mkdir()
    together.mkdir()
    want = []
    for argv in SESSION:
        done = subprocess.run(
            [sys.executable, "-m", "lrckit.cli", *argv], cwd=alone, env=env, capture_output=True, text=True
        )
        want.append((done.returncode, _settled(done.stdout), done.stderr))
    monkeypatch.chdir(together)
    got = []
    for argv in SESSION:
        rc = main(argv)
        out, err = capsys.readouterr()
        got.append((rc, _settled(out), err))
    assert [g[0] for g in got] == [0, 2, 0, 2, 0, 2, 0, 0]
    assert got == want
    assert cli._build_parser.cache_info().currsize == 1
    for f in sorted(alone.iterdir()):
        assert (together / f.name).read_bytes() == f.read_bytes(), f.name
