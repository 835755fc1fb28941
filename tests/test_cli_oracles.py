"""The CLI's answers, checked against oracles end to end.

Tiny families (prime q <= 31, at most 3 sets, d = 5, violating ones
included) come from `gen-family` or from a family file and go through
`verify --full`, `build-code`, `distance`, `encode`, `erase`, `repair` and
`decode`, all through `cli.main`.  The files the commands write and the
verdicts, distances and witnesses they print are compared with oracles
that share no code with them: `reference_violations` for the union
verdict, sympy minors (`minors_min_distance`) for the rank, the distance,
its witness and the optimality verdict, and a search over every value of
the erased positions for `repair` and `decode`.
"""

import contextlib
import io
import itertools

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lrckit.cli import main
from lrckit.formats import read_family, read_matrix, read_word, write_family
from lrckit.setfam import SetFamily

from conftest import minors_dependent, minors_min_distance, reference_violations

PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31]
D = 5  # t = 2
SEARCH_CAP = 30_000  # values of the erased positions tried per word


def _run(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue()


def _completions(rows, q: int, word) -> list[list[int]]:
    """Every codeword that agrees with `word` off its erasures."""
    erased = [i for i, v in enumerate(word) if v is None]
    h = np.array(rows, dtype=np.int64)
    known = np.array([0 if v is None else v for v in word], dtype=np.int64)
    grid = np.array(list(itertools.product(range(q), repeat=len(erased))), dtype=np.int64)
    grid = grid.reshape(-1, len(erased))
    ok = ((h @ known + grid @ h[:, erased].T) % q == 0).all(axis=1)
    found = []
    for values in grid[ok]:
        full = known.copy()
        full[erased] = values
        found.append(full.tolist())
    return found


def _verdict(n: int, k: int, r: int, dist: int) -> str:
    # the Singleton-type bound for locality r; when d - 2 = r mod r+1 it
    # cannot be met and optimal means one below it
    ceiling = n - k - -(-k // r) + 2
    if (dist - 2) % (r + 1) == r:
        if dist == ceiling - 1:
            return f"OPTIMAL (adjusted bound, d = {ceiling - 1})"
        return f"NOT OPTIMAL (d = {dist}, applicable bound {ceiling - 1})"
    if dist == ceiling and n - k == n // (r + 1) + dist - 2 - (dist - 2) // (r + 1):
        return f"OPTIMAL (Singleton-type bound, d = {ceiling})"
    return f"NOT OPTIMAL (d = {dist}, applicable bound {ceiling})"


@st.composite
def cases(draw):
    q = draw(st.sampled_from(PRIMES))
    r = draw(st.integers(3, 4))  # r >= d - 2
    m = draw(st.integers(1, 3 if r == 3 else 2))  # n <= 12 keeps the minors oracle fast
    source = draw(st.sampled_from(["file", "greedy", "derandomized"]))
    sets = None
    if source == "file":
        # few values, so that sets share two or more and the family can fail
        pool = list(range(draw(st.integers(r + 1, min(q, 3 * (r + 1))))))
        sets = [
            tuple(draw(st.sets(st.sampled_from(pool), min_size=r + 1, max_size=r + 1)))
            for _ in range(m)
        ]
    seeds = draw(st.tuples(*[st.integers(0, 2**32)] * 3))
    erasures = draw(st.integers(1, 6))
    return q, r, m, source, sets, seeds, erasures


@given(case=cases())
# six erasures in a code of distance 5, so the erased values are not unique
@example(case=(5, 4, 1, "greedy", None, (0, 0, 0), 6))
@example(case=(7, 4, 2, "greedy", None, (1, 1, 1), 6))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_every_answer_matches_an_oracle(tmp_path, case):
    q, r, m, source, sets, (seed, encode_seed, erase_seed), erasures = case
    fam_path, h_path = tmp_path / "fam.txt", tmp_path / "H.txt"
    word_path, erased_path = tmp_path / "w.txt", tmp_path / "x.txt"
    for p in (fam_path, h_path):
        p.unlink(missing_ok=True)

    if source == "file":
        write_family(fam_path, SetFamily(q, r, 2, tuple(sets)))
    else:
        rc, _ = _run("gen-family", "--q", q, "--r", r, "--d", D, "--method", source,
                     "--seed", seed, "--n", m * (r + 1), "--out", fam_path)
        if rc != 0:
            return
    family = read_family(fam_path)
    violations = reference_violations(family)
    if source != "file":
        assert (family.q, family.r, family.t) == (q, r, 2) and family.m <= m
        assert violations == []

    rc, verify_out = _run("verify", "--in", fam_path, "--full", "--d", D)
    rc_build, _ = _run("build-code", "--in", fam_path, "--d", D, "--out", h_path)
    if violations:
        first = violations[0]
        idx = ",".join(str(i) for i in first.indices)
        assert rc == 1 and verify_out == (
            f"union condition: FAIL  sets ({idx}) cover {first.union_size} "
            f"<= {r * len(first.indices)} values\n"
        )
        assert rc_build == 1 and not h_path.exists()
        return
    assert verify_out.startswith(f"union condition: pass  (m={family.m}, t=2)\n")
    if rc_build != 0:
        # both refuse dimension k < 1 (m * r < 4) and a rank-deficient H
        assert rc == rc_build == 2
        return

    rows, hq = read_matrix(h_path)
    n = len(rows[0])
    assert hq == q and n == family.m * (r + 1)
    dist, witness = minors_min_distance(rows, n, q, len(rows) + 1)
    # H has full rank, so k = n - rows
    assert any(
        not minors_dependent(rows, idx, q) for idx in itertools.combinations(range(n), len(rows))
    )
    k = n - len(rows)
    head = f"code: n={n} k={k} over GF({q})\nminimum distance: {dist}\n"
    assert verify_out.split("\n", 1)[1].startswith(head)
    if dist < D:
        assert rc == 1
        assert verify_out.endswith(f"distance check: FAIL  dependent columns {list(witness)}\n")
    else:
        assert rc == 0 and verify_out.endswith(f"optimality: {_verdict(n, k, r, dist)}\n")

    rc, out = _run("distance", "--in", h_path)
    assert rc == 0 and out == f"minimum distance: {dist}\nwitness columns: {list(witness)}\n"
    rc, out = _run("distance", "--in", h_path, "--d", D)
    if dist >= D:
        assert rc == 0 and out == f"distance >= {D}: pass\n"
    else:
        assert rc == 1 and out == f"distance >= {D}: FAIL  dependent columns {list(witness)}\n"

    assert _run("encode", "--matrix", h_path, "--seed", encode_seed, "--out", word_path)[0] == 0
    word, wq = read_word(word_path)
    assert wq == q and len(word) == n and None not in word
    assert all(sum(a * b for a, b in zip(row, word)) % q == 0 for row in rows)

    # as many erasures as the search over their values can afford
    while q**erasures > SEARCH_CAP:
        erasures -= 1
    erasures = min(erasures, n)
    rc, out = _run("erase", "--in", word_path, "--count", erasures, "--seed", erase_seed,
                   "--out", erased_path)
    assert rc == 0
    received, _ = read_word(erased_path)
    erased = [i for i, v in enumerate(received) if v is None]
    assert out.startswith(f"erased {erasures} of {n} positions: {erased}\n")
    assert [v for i, v in enumerate(word) if i not in erased] == [v for v in received if v is not None]
    found = _completions(rows, q, received)
    assert word in found

    local = len({i // (r + 1) for i in erased}) == len(erased)
    for command in ("repair", "decode"):
        out_path = tmp_path / f"{command}.txt"
        rc, out = _run(command, "--matrix", h_path, "--in", erased_path, "--out", out_path)
        if len(found) == 1:
            assert rc == 0
            assert read_word(out_path)[0] == word
        else:
            assert rc == 1
        if command == "repair" and rc == 0:
            path, read = ("local", r * len(erased)) if local else ("global", n - len(erased))
            assert out.startswith(f"repair path: {path}\nsymbols read: {read}\n")
