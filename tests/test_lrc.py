import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrckit.gf import GF
from lrckit.linalg import rank
from lrckit.lrc import (
    CodeParams,
    OptimalityKind,
    ParityCheckMatrix,
    build_parity_check,
    code_params_from_family,
    exact_min_distance,
    min_distance_witness,
    optimality_check,
    singleton_bound,
    verify_distance_at_least,
)
from lrckit.setfam import SetFamily, greedy_family

from conftest import _forced_triple, minors_dependent, minors_min_distance, reference_block_scan


def test_build_parity_check_layout(singleton_code):
    fam, pcm, _ = singleton_code
    assert pcm.n == 15
    assert len(pcm.rows) == 6  # 3 indicators + powers 1..3
    f = GF(13)
    flat = [a for s in fam.sets for a in s]
    for i in range(3):
        expect = [1 if 5 * i <= j < 5 * (i + 1) else 0 for j in range(15)]
        assert list(pcm.rows[i]) == expect
    for p in (1, 2, 3):
        assert list(pcm.rows[2 + p]) == [f.pow(a, p) for a in flat]
    cols = pcm.columns()
    assert len(cols) == 15 and all(len(c) == 6 for c in cols)


def test_build_parity_check_rejections():
    fam = SetFamily(13, 4, 2, ((0, 1, 2, 3, 4), (0, 5, 6, 7, 8)))
    with pytest.raises(ValueError):
        build_parity_check(fam, 4)  # distance too small
    with pytest.raises(ValueError):
        build_parity_check(fam, 7)  # needs t=3, family has t=2
    with pytest.raises(ValueError):
        build_parity_check(fam, 5, GF(17))  # wrong field order


def test_rank_is_m_plus_d_minus_2(singleton_code, odd_q_d6_code, adjusted_code):
    for fam, pcm, params in (singleton_code, odd_q_d6_code, adjusted_code):
        assert rank(pcm.field, pcm.rows) == params.m + params.d - 2 == len(pcm.rows)


def test_columns_independent_matches_minor_oracle(singleton_code):
    _, pcm, _ = singleton_code
    rows = [list(r) for r in pcm.rows]
    for idx in [(0, 1, 2), (0, 5, 10), (0, 1, 2, 3, 4), (2, 7, 9, 14), (1, 3, 6, 8, 12)]:
        sub = [[row[j] for j in idx] for row in rows]
        assert (rank(pcm.field, sub) == len(idx)) == (not minors_dependent(rows, idx, 13))


def test_distance_verification_reference_codes(singleton_code, odd_q_d6_code, adjusted_code):
    for (fam, pcm, params), dist, witness in (
        (singleton_code, 5, (0, 1, 2, 3, 4)),
        (odd_q_d6_code, 6, (0, 1, 2, 3, 4, 5)),
        (adjusted_code, 5, (0, 1, 2, 9, 11)),
    ):
        assert verify_distance_at_least(pcm, dist) is None
        assert exact_min_distance(pcm) == dist
        assert min_distance_witness(pcm) == witness
        # any witness-sized check one past the distance must surface it
        assert verify_distance_at_least(pcm, dist + 1) == witness


def test_distance_against_minor_oracle(singleton_code, odd_q_d6_code, adjusted_code):
    for fam, pcm, params in (singleton_code, odd_q_d6_code, adjusted_code):
        rows = [list(r) for r in pcm.rows]
        got = minors_min_distance(rows, pcm.n, params.q, exact_min_distance(pcm))
        assert got is not None
        w, idx = got
        assert w == exact_min_distance(pcm)
        assert idx == min_distance_witness(pcm)


def test_two_equal_columns_give_distance_two():
    f = GF(13)
    pcm = ParityCheckMatrix(13, 1, 1, 5, ((1, 1), (2, 2)), f)
    assert exact_min_distance(pcm) == 2
    assert min_distance_witness(pcm) == (0, 1)


def test_distance_invariant_under_block_permutation(singleton_code):
    fam, pcm, _ = singleton_code
    for perm in itertools.permutations(range(fam.m)):
        shuffled = SetFamily(fam.q, fam.r, fam.t, tuple(fam.sets[i] for i in perm))
        assert exact_min_distance(build_parity_check(shuffled, 5)) == 5


def test_distance_budget_guard(singleton_code):
    _, pcm, _ = singleton_code
    with pytest.raises(ValueError):
        exact_min_distance(pcm, budget=10)


def test_singleton_bound_values():
    assert singleton_bound(10, 5, 4) == 5
    assert singleton_bound(15, 9, 4) == 5
    assert singleton_bound(12, 6, 5) == 6
    n, r = 20, 3
    assert singleton_bound(n, n, r) == 2 - (-(-n // r))  # trivial-code edge
    with pytest.raises(ValueError):
        singleton_bound(10, 0, 4)


def test_optimality_singleton_case():
    params = CodeParams(q=13, n=10, k=5, d=5, r=4, m=2, t=2)
    v = optimality_check(params, 5)
    assert v.kind is OptimalityKind.SINGLETON and v.bound_value == 5


def test_optimality_adjusted_case():
    params = CodeParams(q=13, n=12, k=6, d=5, r=3, m=3, t=2)
    v = optimality_check(params, 5)
    assert v.kind is OptimalityKind.ADJUSTED and v.bound_value == 5
    # the Singleton-type value 6 is provably out of reach here
    assert singleton_bound(12, 6, 3) == 6


def test_optimality_not_optimal_case():
    params = CodeParams(q=13, n=10, k=5, d=5, r=4, m=2, t=2)
    v = optimality_check(params, 4)
    assert v.kind is OptimalityKind.NOT_OPTIMAL and v.bound_value == 5


def test_optimality_of_reference_codes(singleton_code, odd_q_d6_code, adjusted_code):
    for (fam, pcm, params), kind in (
        (singleton_code, OptimalityKind.SINGLETON),
        (odd_q_d6_code, OptimalityKind.SINGLETON),
        (adjusted_code, OptimalityKind.ADJUSTED),
    ):
        assert optimality_check(params, exact_min_distance(pcm)).kind is kind


def test_code_params_reference_values(singleton_code, odd_q_d6_code, adjusted_code):
    fam, pcm, params = singleton_code
    assert (params.n, params.k) == (15, 9)
    _, _, p2 = odd_q_d6_code
    assert (p2.n, p2.k) == (12, 6)
    _, _, p3 = adjusted_code
    assert (p3.n, p3.k) == (12, 6)
    two_sets = SetFamily(13, 4, 2, ((0, 1, 2, 3, 4), (0, 5, 6, 7, 8)))
    p = code_params_from_family(two_sets, 5)
    assert (p.n, p.k) == (10, 5)


def test_code_params_dimension_gate():
    # a single block of 5 at d=6 leaves no information symbols
    one = SetFamily(13, 4, 2, ((0, 1, 2, 3, 4),))
    with pytest.raises(ValueError):
        code_params_from_family(one, 6)
    # at d=5 the same block still carries one symbol
    p = code_params_from_family(one, 5)
    assert (p.n, p.k) == (5, 1)


def test_code_params_rejects_failing_family():
    bad = SetFamily(13, 4, 2, ((0, 1, 2, 3, 4), (0, 1, 5, 6, 7)))
    with pytest.raises(ValueError):
        code_params_from_family(bad, 5)


def test_code_params_rejects_small_locality():
    fam = SetFamily(13, 3, 2, ((0, 1, 2, 3), (4, 5, 6, 7)))
    with pytest.raises(ValueError):
        code_params_from_family(fam, 6)  # r=3 < d-2=4


def test_passing_families_with_large_r_meet_singleton_bound():
    # whenever r >= d-1 the designed distance is exactly the bound
    for q, r, d, seed in ((17, 4, 5, 3), (19, 5, 6, 4), (23, 5, 5, 5)):
        t = (d - 1) // 2
        fam = greedy_family(q, r, t, 256, seed=seed, target_m=3)
        if fam.m < 2:
            continue
        pcm = build_parity_check(fam, d)
        params = code_params_from_family(fam, d, pcm)
        assert exact_min_distance(pcm) == d == singleton_bound(params.n, params.k, r)


def _outcome(call, pcm):
    """What one distance call on `pcm` gives: its result, or its error."""
    name, arg, budget = call
    kwargs = {} if budget is None else {"budget": budget}
    try:
        if name == "verify":
            return verify_distance_at_least(pcm, arg, **kwargs)
        return (min_distance_witness if name == "witness" else exact_min_distance)(pcm, **kwargs)
    except ValueError as exc:
        return ("error", str(exc))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_distance_calls_answer_alike_in_any_order(data):
    # a matrix resumes its scan after the sizes earlier calls cleared: any
    # sequence of calls on one matrix must answer as each call does on a
    # fresh one, refuse a budget whatever ran before, and a refusal must
    # leave what the matrix remembers unchanged
    q = data.draw(st.sampled_from([8, 9, 13, 16, 25, 27]))
    d = data.draw(st.sampled_from([5, 6, 7]))
    t = (d - 1) // 2
    r = data.draw(st.integers(2, min(5, q // 3)))
    kind = data.draw(st.sampled_from(["random", "greedy", "triple"]))
    fam = _forced_triple(q, r, t) if kind == "triple" and t >= 3 else None
    if kind == "greedy":
        fam = greedy_family(q, r, t, 64, seed=data.draw(st.integers(0, 2**16)), target_m=3)
    elif fam is None:
        sets = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=r + 1, max_size=r + 1, unique=True),
                                  min_size=1, max_size=3))
        fam = SetFamily(q, r, t, tuple(tuple(sorted(s)) for s in sets))
    f = GF(q)
    pcm = build_parity_check(fam, d, f)
    least = reference_block_scan(f, pcm.columns(), len(pcm.rows) + 1)
    calls = data.draw(st.lists(
        st.tuples(st.sampled_from(["verify", "witness", "exact"]), st.integers(2, d + 1),
                  st.sampled_from([None, None, 0, 30, 300, 3000])),
        min_size=1, max_size=6))
    for call in calls:
        before = pcm._proven.clear
        got = _outcome(call, pcm)
        assert got == _outcome(call, build_parity_check(fam, d, f))
        if isinstance(got, tuple) and got[0] == "error" and got[1].startswith("budget exceeded"):
            assert pcm._proven.clear == before
            continue
        name, arg, _ = call
        if name == "verify":
            assert got == (least if least is not None and len(least) < arg else None)
        elif least is None:
            assert got[0] == "error" and "columns are independent" in got[1]
        else:
            assert got == (least if name == "witness" else len(least))
