import dataclasses
import itertools
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrckit import linalg, lrc
from lrckit.derand import derandomized_family
from lrckit.gf import GF, prime_power
from lrckit.linalg import rank, smallest_dependent_subset
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
from lrckit.setfam import SetFamily, greedy_family, random_family

from conftest import (
    SINGLETON_FAMILY,
    _forced_triple,
    minors_dependent,
    minors_min_distance,
    reference_add,
    reference_block_scan,
    reference_mul,
    reference_rref,
    reference_smallest_dependent_subset,
)


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
        # the matrix as read from its rows alone answers alike
        for h in (pcm, ParityCheckMatrix(pcm.rows, GF(fam.q))):
            assert verify_distance_at_least(h, dist) is None
            assert exact_min_distance(h) == dist
            assert min_distance_witness(h) == witness
            # any witness-sized check one past the distance must surface it
            assert verify_distance_at_least(h, dist + 1) == witness


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
    pcm = ParityCheckMatrix(((1, 1), (2, 2)), f)
    assert exact_min_distance(pcm) == 2
    assert min_distance_witness(pcm) == (0, 1)


EMPTY = "parity-check matrix must have at least one row and one column"


@pytest.mark.parametrize(
    "rows,message",
    [
        ((), EMPTY),
        (((),), EMPTY),
        (((1, 2, 3), (1, 2)), "parity-check matrix row 1 has 2 entries, not 3"),
    ],
    ids=["no-rows", "no-columns", "ragged"],
)
def test_a_matrix_with_no_rows_or_no_columns_is_refused(rows, message):
    # as read_matrix refuses such a file; replace() checks again
    with pytest.raises(ValueError, match=message):
        ParityCheckMatrix(rows, GF(13))
    pcm = ParityCheckMatrix(((1, 1), (2, 2)), GF(13))
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(pcm, rows=rows)


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
    with pytest.raises(ValueError, match="dimension k=9 exceeds length n=5"):
        singleton_bound(5, 9, 2)


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


@pytest.mark.parametrize("change,error", [
    ({"d": 4}, "d must be at least 5"),
    ({"t": 1}, "t must be at least 2"),
    ({"n": 11}, "block length must be a multiple of r"),
    ({"k": 0}, "dimension k must satisfy"),
    ({"k": 10}, "dimension k must satisfy"),
    ({"k": 11}, "dimension k must satisfy"),
])
def test_code_params_refuse_parameters_no_code_of_the_construction_has(change, error):
    fields = dict(q=13, n=10, k=5, d=5, r=4, m=2, t=2)
    CodeParams(**fields)
    with pytest.raises(ValueError, match=error):
        CodeParams(**{**fields, **change})


def test_code_params_rejects_failing_family():
    bad = SetFamily(13, 4, 2, ((0, 1, 2, 3, 4), (0, 1, 5, 6, 7)))
    with pytest.raises(ValueError):
        code_params_from_family(bad, 5)


def test_code_params_rejects_small_locality():
    fam = SetFamily(13, 3, 2, ((0, 1, 2, 3), (4, 5, 6, 7)))
    with pytest.raises(ValueError):
        code_params_from_family(fam, 6)  # r=3 < d-2=4


def test_code_params_rejects_a_matrix_of_another_distance_or_family():
    fam = greedy_family(101, 5, 3, 4096, 1, target_m=20)
    assert code_params_from_family(fam, 7, build_parity_check(fam, 7)).k == 95
    # built for d = 7, read at d = 5, it would give k = 97
    with pytest.raises(ValueError, match="not built from this family at this distance"):
        code_params_from_family(fam, 5, build_parity_check(fam, 7))
    # same q, m, r and d, other sets: the first power row tells them apart
    other = greedy_family(101, 5, 3, 4096, 2, target_m=20)
    with pytest.raises(ValueError, match="not built from this family at this distance"):
        code_params_from_family(fam, 7, build_parity_check(other, 7))
    rotated = SetFamily(101, 5, 3, fam.sets[1:] + fam.sets[:1])
    with pytest.raises(ValueError, match="not built from this family at this distance"):
        code_params_from_family(fam, 7, build_parity_check(rotated, 7))


def test_code_params_rejects_a_matrix_altered_in_any_entry_or_field():
    # the whole matrix is compared, not its shape and first power row: a
    # power row shifted by 1 keeps full rank and would give k = 5
    fam = SetFamily(13, 4, 2, ((0, 1, 2, 3, 4), (0, 5, 6, 7, 8)))
    pcm = build_parity_check(fam, 5)
    assert code_params_from_family(fam, 5, ParityCheckMatrix(pcm.rows, GF(13))).k == 5
    shifted = [tuple((v + 1) % 13 for v in row) for row in pcm.rows]
    altered = [pcm.rows[:i] + (shifted[i],) + pcm.rows[i + 1 :] for i in range(len(pcm.rows))]
    for i in range(len(pcm.rows)):
        for j in range(pcm.n):
            row = list(pcm.rows[i])
            row[j] = (row[j] + 1) % 13
            altered.append(pcm.rows[:i] + (tuple(row),) + pcm.rows[i + 1 :])
    for rows in altered:
        with pytest.raises(ValueError, match="not built from this family at this distance"):
            code_params_from_family(fam, 5, ParityCheckMatrix(rows, pcm.field))
    with pytest.raises(ValueError, match="not built from this family at this distance"):
        code_params_from_family(fam, 5, ParityCheckMatrix(pcm.rows, GF(16)))


def _check_the_rank_the_gate_infers(fam, d, rref):
    # H's rank by full elimination is m + d - 2, and a code the gate admits
    # has k = n minus that rank
    pcm = build_parity_check(fam, d)
    got = len(rref(pcm.field, pcm.rows)[1])
    assert got == fam.m + d - 2
    try:
        params = code_params_from_family(fam, d)
    except ValueError as exc:
        assert str(exc) == "family fails the coverage condition for this distance" or "need k >= 1" in str(exc)
    else:
        assert params.k == fam.n - got


PROOF_QS = [q for q in range(4, 33) if prime_power(q) is not None]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_h_has_full_row_rank_whenever_r_is_at_least_d_minus_2(data):
    # the proof in code_params_from_family's docstring, against elimination:
    # any family with r >= d - 2, verifying or not, repeated sets included
    d = data.draw(st.integers(5, 8))
    q = data.draw(st.sampled_from([q for q in PROOF_QS if q >= d - 1]))
    r = data.draw(st.integers(d - 2, min(q - 1, 9)))
    sets = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=r + 1, max_size=r + 1, unique=True),
                              min_size=1, max_size=4))
    fam = SetFamily(q, r, max(2, (d - 1) // 2), tuple(tuple(s) for s in sets))
    _check_the_rank_the_gate_infers(fam, d, reference_rref)


@pytest.mark.parametrize("build", [
    lambda: random_family(4999, 5, 3, 1),
    lambda: greedy_family(101, 5, 3, 4096, 1),
    lambda: derandomized_family(397, 5, 3),
    lambda: derandomized_family(512, 5, 3),
], ids=["random", "greedy", "derandomized", "derandomized-gf512"])
def test_the_construction_codes_have_the_rank_the_gate_infers(build):
    _check_the_rank_the_gate_infers(build(), 7, linalg.rref)


@pytest.mark.parametrize("build,d", [
    (lambda: random_family(4999, 5, 3, 1), 7),
    (lambda: greedy_family(101, 5, 3, 4096, 1), 7),
    (lambda: derandomized_family(512, 5, 3), 7),
    (lambda: SetFamily(16, 4, 2, ((0, 1, 2, 3, 4), (0, 5, 6, 7, 8))), 5),
    (lambda: SetFamily(13, 3, 2, ((0, 1, 2, 3), (4, 5, 6, 7))), 6),
], ids=["random", "greedy", "derandomized", "gf16", "small-locality"])
def test_with_no_matrix_the_gate_builds_no_h_no_field_and_no_rank(build, d):
    fam = build()
    want = _scan_outcome(code_params_from_family, fam, d, build_parity_check(fam, d))
    with mock.patch.object(lrc, "build_parity_check", wraps=build_parity_check) as built, \
            mock.patch.object(lrc, "GF", wraps=GF) as field, \
            mock.patch.object(linalg, "rank", wraps=linalg.rank) as ranked:
        got = _scan_outcome(code_params_from_family, fam, d)
    assert (built.call_count, field.call_count, ranked.call_count) == (0, 0, 0)
    assert got == want


@pytest.mark.parametrize("fam,d,message", [
    # recorded while the gate still built H and its field for them
    (SetFamily(6, 2, 2, ((0, 1, 2), (3, 4, 5))), 5, "q=6 is not a prime power"),
    (SetFamily(70000, 4, 2, ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))), 5,
     "q=70000 exceeds the supported maximum 65536"),
    (SetFamily(13, 5, 2, ((0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11))), 7,
     "family checked at t=2 cannot back distance d=7"),
    (SetFamily(13, 4, 2, ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))), 4,
     "design distance d=4 is below the supported minimum 5"),
    # d and t are refused before the order
    (SetFamily(6, 2, 2, ((0, 1, 2), (3, 4, 5))), 4, "design distance d=4 is below the supported minimum 5"),
    (SetFamily(70000, 4, 2, ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))), 7,
     "family checked at t=2 cannot back distance d=7"),
])
def test_the_gate_refuses_what_h_and_its_field_refuse_with_the_same_text(fam, d, message):
    with pytest.raises(ValueError) as built:
        build_parity_check(fam, d)
    with mock.patch.object(lrc, "build_parity_check", side_effect=AssertionError), \
            mock.patch.object(lrc, "GF", side_effect=AssertionError):
        with pytest.raises(ValueError) as gated:
            code_params_from_family(fam, d)
    assert str(built.value) == str(gated.value) == message


def test_each_refusal_of_an_order_or_a_design_is_written_once():
    # H, its field and the gate raise them from one place each
    src = "".join(p.read_text() for p in Path(lrc.__file__).parent.glob("*.py"))
    stems = ['"q={q} is not a prime power"', '"q={q} exceeds the supported maximum {MAX_ORDER}"',
             "cannot back distance d={d}", "is below the supported minimum 5"]
    assert [src.count(stem) for stem in stems] == [1, 1, 1, 1]


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
    # any sequence of calls on one matrix must answer as each call does on
    # a fresh one, and refuse a budget whatever ran before
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
        got = _outcome(call, pcm)
        assert got == _outcome(call, build_parity_check(fam, d, f))
        if isinstance(got, tuple) and got[0] == "error" and got[1].startswith("budget exceeded"):
            continue
        name, arg, _ = call
        if name == "verify":
            assert got == (least if least is not None and len(least) < arg else None)
        elif least is None:
            assert got[0] == "error" and "columns are independent" in got[1]
        else:
            assert got == (least if name == "witness" else len(least))


def test_one_matrix_builds_its_scan_tables_once():
    # a verdict, a witness and the parameters on one matrix build the block
    # differences once, in the matrix's scan state, and the reachability
    # table once per scan that walks a size: the verdict at the design
    # distance walks none, and each witness walks size d
    fam = SetFamily(13, 4, 2, SINGLETON_FAMILY)
    pcm = build_parity_check(fam, 5)
    with mock.patch.object(linalg, "_block_differences", wraps=linalg._block_differences) as diffs, \
            mock.patch.object(linalg, "_reachable", wraps=linalg._reachable) as reach:
        assert verify_distance_at_least(pcm, 5) is None
        assert (diffs.call_count, reach.call_count) == (1, 0)
        assert min_distance_witness(pcm) == (0, 1, 2, 3, 4)
        assert (diffs.call_count, reach.call_count) == (1, 1)
        code_params_from_family(fam, 5, pcm)
        assert verify_distance_at_least(pcm, 5) is None
        assert (diffs.call_count, reach.call_count) == (1, 1)
        assert exact_min_distance(pcm) == 5
        assert (diffs.call_count, reach.call_count) == (1, 2)


def test_the_verdict_at_the_design_distance_takes_no_walk_and_no_field_product():
    # below d, a matrix build_parity_check made is answered by its shortest
    # cycles: passing (the singleton code, and a q = 23 code whose values
    # never repeat) or failing (two sets sharing two elements)
    for fam, d, want in ((SetFamily(13, 4, 2, SINGLETON_FAMILY), 5, None),
                         (SetFamily(23, 5, 3, ((0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11), (12, 13, 14, 15, 16, 17))),
                          7, None),
                         (SetFamily(13, 4, 2, ((0, 1, 2, 3, 4), (0, 1, 5, 6, 7), (1, 5, 9, 10, 11))), 5,
                          (0, 1, 5, 6))):
        pcm = build_parity_check(fam, d)
        with mock.patch.object(linalg, "_leaves", wraps=linalg._leaves) as leaves, \
                mock.patch.object(pcm.field, "dot_array", wraps=pcm.field.dot_array) as dot:
            assert verify_distance_at_least(pcm, d) == want
        assert (leaves.call_count, dot.call_count) == (0, 0)


def test_the_rank_never_reads_the_values():
    # the rank is rref's pivot count and builds no scan state; a verdict
    # reads only the values of the matrix's own state
    fam = SetFamily(13, 4, 2, SINGLETON_FAMILY)
    pcm = build_parity_check(fam, 5)
    with mock.patch.object(linalg, "_ScanState", wraps=linalg._ScanState) as built:
        assert linalg.rank(pcm.field, pcm.rows) == 6
    assert built.call_count == 0
    with mock.patch.object(linalg, "_shortest_cycle", wraps=linalg._shortest_cycle) as cycle:
        assert verify_distance_at_least(pcm, 5) is None
    assert cycle.call_count == 1 and cycle.call_args.args[0] is pcm._state.values
    assert pcm._state.values == list(pcm.rows[fam.m])


def test_the_criterion_6_code_has_no_live_column_below_its_design_distance():
    # no value repeats across its 91 blocks, so no column lies on a cycle
    # and none can be in a dependent set of at most 6 columns: the
    # unbudgeted d = 7 verdict walks nothing, while the default budget
    # still refuses it up front, also after that verdict
    pcm = build_parity_check(random_family(4999, 5, 3, 1), 7)
    state = pcm._state
    assert pcm.n == 546 and linalg._shortest_cycle(state.values, state.width, 6) is None
    assert verify_distance_at_least(pcm, 7, budget=None) is None
    with pytest.raises(ValueError, match="budget exceeded: 546 columns pass 30000000 subsets at size 6"):
        verify_distance_at_least(pcm, 7)


def test_a_new_or_replaced_matrix_inherits_no_scan_state():
    fam = SetFamily(13, 4, 2, SINGLETON_FAMILY)
    # two sets sharing two elements: four columns are dependent
    shared = build_parity_check(SetFamily(13, 4, 2, ((0, 1, 2, 3, 4), (0, 1, 5, 6, 7), (1, 5, 9, 10, 11))), 5)
    pcm = build_parity_check(fam, 5)
    assert verify_distance_at_least(pcm, 5) is None
    for other, want in ((dataclasses.replace(pcm, rows=shared.rows), (0, 1, 5, 6)),
                        (build_parity_check(fam, 5), None)):
        assert "_state" not in vars(other)
        assert verify_distance_at_least(other, 5) == want
        assert other._state is not pcm._state
    assert verify_distance_at_least(pcm, 5) is None


def _scan_outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return ("error", str(exc))


def _ask(f, rows, max_size, **kwargs):
    """A fresh matrix of `rows` asked for its least dependent set of size
    <= max_size, or with no max_size for its exact one."""
    pcm = ParityCheckMatrix(tuple(map(tuple, rows)), f)
    if max_size is None:
        return min_distance_witness(pcm, **kwargs)
    return verify_distance_at_least(pcm, max_size + 1, **kwargs)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_matrix_of_plain_rows_is_the_scan_of_its_columns(data):
    # a matrix read from rows alone: the least dependent set of size <=
    # d - 1, or from min_distance_witness the exact one, capped at rows + 1,
    # and the same budget refusals as the linalg scan it calls
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 9, 13]))
    blocks = data.draw(st.integers(0, 3))
    width = data.draw(st.integers(2, 3))
    n = blocks * width if blocks else data.draw(st.integers(1, 7))
    extra = data.draw(st.integers(1, 3))
    rows = [[int(j // width == i) for j in range(n)] for i in range(blocks)]
    rows += data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                               min_size=extra, max_size=extra))
    f = GF(q)
    cols = [tuple(row[j] for row in rows) for j in range(n)]
    top = len(rows) + 1
    least = reference_block_scan(f, cols, top)
    assert least == reference_smallest_dependent_subset(f, cols, top)
    max_size = data.draw(st.sampled_from([None, 0, 1, 2, 3, top]))
    if max_size is None:
        assert least is None or len(least) <= rank(f, rows) + 1
        want = least if least is not None else ("error", f"all {n} columns are independent: "
                                                "the code is {0} and has no minimum distance")
    else:
        want = least if least is not None and len(least) <= max_size else None
    assert _scan_outcome(_ask, f, rows, max_size) == want
    budget = data.draw(st.integers(0, 40))
    cap = len(rows) + 1 if max_size is None else max_size
    linalg_says = _scan_outcome(smallest_dependent_subset, f, cols, cap, budget=budget)
    got = _scan_outcome(_ask, f, rows, max_size, budget=budget)
    if isinstance(linalg_says, tuple) and linalg_says[0] == "error":
        assert got == linalg_says and got[1].startswith("budget exceeded")
    else:
        assert got == want


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_the_witness_of_a_matrix_without_full_row_rank_is_its_least_dependent_set(data):
    # rows below 0 to 3 block rows, one or two of them combinations of the
    # others: capped at rows + 1, the witness is the least dependent set of
    # any size, of at most rank + 1 columns, and no walked size passes the cap
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 9, 13]))
    blocks = data.draw(st.integers(0, 3))
    width = data.draw(st.integers(2, 3))
    n = blocks * width if blocks else data.draw(st.integers(1, 7))
    rows = [[int(j // width == i) for j in range(n)] for i in range(blocks)]
    rows += data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=0, max_size=3))
    f = GF(q)
    for _ in range(data.draw(st.integers(1, 2))):
        combo = [0] * n
        for row in rows:
            c = data.draw(st.integers(0, q - 1))
            combo = [reference_add(f, a, reference_mul(f, c, b)) for a, b in zip(combo, row)]
        rows.insert(data.draw(st.integers(blocks, len(rows))), combo)
    cols = [tuple(row[j] for row in rows) for j in range(n)]
    rk = len(reference_rref(f, rows)[1])
    assert rk < len(rows)
    least = reference_smallest_dependent_subset(f, cols, n)
    pcm = ParityCheckMatrix(tuple(map(tuple, rows)), f)
    with mock.patch.object(linalg, "_reachable", wraps=linalg._reachable) as reach:
        got = _scan_outcome(min_distance_witness, pcm)
    if least is None:
        assert got == ("error", f"all {n} columns are independent: the code is {{0}} and has no minimum distance")
    else:
        assert got == least and len(least) <= rk + 1
    assert all(call.args[2] <= len(rows) + 1 for call in reach.call_args_list)


@pytest.mark.parametrize("width", [2, 3])
def test_block_rows_alone_are_dependent_in_a_pair_past_the_counting_break(width):
    # no row is left to test, so size 1 is dependent by counting, but no
    # 1-column support meets its block in 0 or >= 2 columns: the scan must
    # walk on to size 2
    rows = [[int(j // width == i) for j in range(2 * width)] for i in range(2)]
    assert _ask(GF(5), rows, None) == (0, 1)
    assert _ask(GF(5), rows, 1) is None


@pytest.mark.parametrize("rows", [[[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 3, 4]]])
def test_width_one_blocks_leave_no_candidate_at_any_size(rows):
    # each block is one column, which no support can meet in >= 2 columns
    with pytest.raises(ValueError, match=f"all {len(rows[0])} columns are independent"):
        _ask(GF(5), rows, None)
