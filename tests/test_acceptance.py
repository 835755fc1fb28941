"""Acceptance suite: nine end-to-end criteria with stated tolerances.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.  Each criterion asserts its own runtime budget where one is
stated; the suite is self-contained and deterministic.
"""

import itertools
import time

from lrckit.codec import (
    UnrecoverableError,
    encode,
    erasure_decode,
    generator_from_parity,
    repair,
    repair_groups,
)
from lrckit.derand import derandomized_family
from lrckit.lrc import (
    OptimalityKind,
    build_parity_check,
    exact_min_distance,
    min_distance_witness,
    optimality_check,
    singleton_bound,
    verify_distance_at_least,
)
from lrckit.rng import SplitMix64
from lrckit.setfam import (
    family_size_upper_bound,
    find_berge_cycle,
    random_family,
    target_family_size,
    verify_union_condition,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_union_condition_matches_column_independence(equivalence_corpus):
    started = time.perf_counter()
    agree = 0
    violating = 0
    for fam, d in equivalence_corpus:
        union_ok = verify_union_condition(fam) == []
        pcm = build_parity_check(fam, d)
        dist_ok = verify_distance_at_least(pcm, d) is None
        agree += union_ok == dist_ok
        violating += not union_ok
    elapsed = time.perf_counter() - started
    total = len(equivalence_corpus)
    ok = total >= 500 and violating >= 100 and agree == total and elapsed < 120
    _report(
        1,
        ok,
        f"{agree}/{total} verdicts agree ({violating} violating instances) in {elapsed:.1f}s",
    )


def test_criterion_2_union_condition_matches_berge_cycles(equivalence_corpus):
    started = time.perf_counter()
    agree = 0
    for fam, _ in equivalence_corpus:
        union_ok = verify_union_condition(fam) == []
        cycle = find_berge_cycle(fam, fam.t)
        agree += union_ok == (cycle is None)
    elapsed = time.perf_counter() - started
    total = len(equivalence_corpus)
    _report(2, agree == total, f"{agree}/{total} Berge verdicts agree in {elapsed:.1f}s")


def test_criterion_3_singleton_optimal_code(singleton_code):
    started = time.perf_counter()
    fam, pcm, params = singleton_code
    dist = exact_min_distance(pcm)
    verdict = optimality_check(params, dist)
    elapsed = time.perf_counter() - started
    ok = (
        (params.n, params.k) == (15, 9)
        and dist == 5 == singleton_bound(15, 9, 4)
        and verdict.kind is OptimalityKind.SINGLETON
        and elapsed < 10
    )
    _report(3, ok, f"n=15 k=9 d={dist} Singleton-optimal in {elapsed:.2f}s")


def test_criterion_4_odd_q_distance_6_code(odd_q_d6_code):
    started = time.perf_counter()
    fam, pcm, params = odd_q_d6_code
    dist = exact_min_distance(pcm)
    verdict = optimality_check(params, dist)
    elapsed = time.perf_counter() - started
    ok = (
        (params.n, params.k) == (12, 6)
        and dist == 6 == singleton_bound(12, 6, 5)
        and verdict.kind is OptimalityKind.SINGLETON
        and elapsed < 10
    )
    _report(4, ok, f"n=12 k=6 d={dist} Singleton-optimal over GF(17) in {elapsed:.2f}s")


def test_criterion_5_adjusted_bound_code(adjusted_code):
    fam, pcm, params = adjusted_code
    pairwise = all(
        len(set(a) & set(b)) <= 1 for a, b in itertools.combinations(fam.sets, 2)
    )
    dist = exact_min_distance(pcm)
    adjusted = params.n - params.k - (-(-params.k // params.r)) + 1
    verdict = optimality_check(params, dist)
    ok = (
        pairwise
        and (params.n, params.k) == (12, 6)
        and dist == 5 == adjusted
        and verdict.kind is OptimalityKind.ADJUSTED
    )
    _report(5, ok, f"n=12 k=6 d={dist} meets adjusted bound {adjusted}")


def test_criterion_6_randomized_construction_at_scale():
    target = target_family_size(4999, 5, 3)
    bound = family_size_upper_bound(4999, 5, 3)
    successes = 0
    times = []
    for seed in range(1, 6):
        started = time.perf_counter()
        try:
            fam = random_family(4999, 5, 3, seed)
        except Exception:
            times.append(time.perf_counter() - started)
            continue
        elapsed = time.perf_counter() - started
        times.append(elapsed)
        if (
            fam.m >= 91 == target
            and fam.m <= bound
            and verify_union_condition(fam) == []
            and elapsed < 300
        ):
            successes += 1
    ok = successes >= 4
    _report(
        6,
        ok,
        f"{successes}/5 seeds reached m >= {target} (bound {bound}), "
        f"max {max(times):.1f}s per seed",
    )


def test_criterion_7_derandomized_determinism():
    first = derandomized_family(64, 2, 3)
    second = derandomized_family(64, 2, 3)
    target = target_family_size(64, 2, 3)
    ok = (
        first == second
        and first.sets == second.sets
        and verify_union_condition(first) == []
        and first.m >= target == 2
    )
    _report(7, ok, f"two runs agree on {first.m} sets (target {target})")


def test_criterion_8_codec_suite(singleton_code):
    fam, pcm, params = singleton_code
    f = pcm.field
    g = generator_from_parity(f, pcm.rows)
    rng = SplitMix64(8)

    # (a) every single-erasure position repairs locally, reading r symbols
    word = encode(f, g, [rng.below(13) for _ in range(params.k)])
    local_ok = 0
    for pos in range(pcm.n):
        received = list(word)
        received[pos] = None
        res = repair(f, pcm.rows, params.r, received)
        local_ok += (
            res.method == "local" and res.symbols_read == 4 and res.word == tuple(word)
        )

    # (b) a thousand random 4-erasure patterns decode exactly
    decode_ok = 0
    for _ in range(1000):
        msg = [rng.below(13) for _ in range(params.k)]
        word = encode(f, g, msg)
        received = list(word)
        for pos in rng.subset(pcm.n, 4):
            received[pos] = None
        decode_ok += erasure_decode(f, pcm.rows, received) == word

    # (c) erasing a minimum-weight support is unrecoverable
    witness = min_distance_witness(pcm)
    received = list(word)
    for pos in witness:
        received[pos] = None
    try:
        erasure_decode(f, pcm.rows, received)
        unrecoverable = False
    except UnrecoverableError:
        unrecoverable = True

    # (d) projection disjointness on a k=4 subcode, full enumeration
    sub = g[:4]
    groups = repair_groups(pcm.n, params.r)
    group_of = {pos: grp for grp in groups for pos in grp}
    projections: dict[tuple, int] = {}
    disjoint = True
    for msg in itertools.product(range(13), repeat=4):
        cw = encode(f, sub, list(msg))
        for pos in range(pcm.n):
            mates = tuple(cw[j] for j in group_of[pos] if j != pos)
            key = (pos, mates)
            prev = projections.setdefault(key, cw[pos])
            if prev != cw[pos]:
                disjoint = False
    ok = local_ok == 15 and decode_ok == 1000 and unrecoverable and disjoint
    _report(
        8,
        ok,
        f"{local_ok}/15 local repairs, {decode_ok}/1000 decodes, "
        f"witness erasure unrecoverable={unrecoverable}, projections disjoint={disjoint}",
    )


def test_criterion_9_cli_reproducibility(tmp_path):
    from lrckit.cli import main

    outputs = []
    for tag in ("first", "second"):
        d = tmp_path / tag
        d.mkdir()
        fam1 = d / "fam-greedy.txt"
        fam2 = d / "fam-derand.txt"
        h = d / "H.txt"
        w = d / "w.txt"
        e1 = d / "erase1.txt"
        e4 = d / "erase4.txt"
        r1 = d / "repair1.txt"
        r4 = d / "decode4.txt"
        cmds = [
            ["gen-family", "--q", "13", "--r", "4", "--d", "5",
             "--method", "greedy", "--seed", "21", "--out", str(fam1)],
            ["gen-family", "--q", "64", "--r", "2", "--d", "7",
             "--method", "derandomized", "--out", str(fam2)],
            ["build-code", "--in", str(fam1), "--d", "5", "--out", str(h)],
            ["encode", "--matrix", str(h), "--seed", "12", "--out", str(w)],
            ["erase", "--in", str(w), "--positions", "7", "--out", str(e1)],
            ["repair", "--matrix", str(h), "--in", str(e1), "--out", str(r1)],
            ["erase", "--in", str(w), "--count", "4", "--seed", "3", "--out", str(e4)],
            ["decode", "--matrix", str(h), "--in", str(e4), "--out", str(r4)],
        ]
        for cmd in cmds:
            assert main(cmd) == 0, cmd
        outputs.append([p.read_bytes() for p in (fam1, fam2, h, w, e1, e4, r1, r4)])
    ok = outputs[0] == outputs[1]
    _report(9, ok, f"{len(outputs[0])} artifact files byte-identical across reruns")
