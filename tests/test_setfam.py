import hashlib
import itertools
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, getcontext
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lrckit import setfam
from lrckit.derand import derandomized_family
from lrckit.rng import SplitMix64
from lrckit.setfam import (
    BergeCycle,
    GenerationError,
    SetFamily,
    family_size_upper_bound,
    find_berge_cycle,
    greedy_family,
    is_berge_cycle,
    packing_ceiling,
    random_family,
    remove_violations,
    target_family_size,
    verify_union_condition,
)

from conftest import (
    berge_cycle_exists,
    reference_admits,
    reference_bfs_greedy,
    reference_greedy,
    reference_violations,
)


# ------------------------------------------------------------ validation


def test_family_normalizes_element_order():
    fam = SetFamily(13, 2, 2, ((2, 0, 1), (4, 3, 2)))
    assert fam.sets == ((0, 1, 2), (2, 3, 4))
    assert fam.m == 2
    assert fam.n == 6


@pytest.mark.parametrize(
    "q,r,t,sets",
    [
        (13, 2, 2, ((0, 1, 13),)),  # element out of range
        (13, 2, 2, ((0, 1),)),  # wrong size
        (13, 2, 2, ((0, 1, 1),)),  # repeated element
        (13, 2, 1, ((0, 1, 2),)),  # t too small
        (13, 0, 2, ((0,),)),  # r too small
        (1, 2, 2, ()),  # q too small
        (3, 3, 2, ()),  # r+1 > q
    ],
)
def test_family_rejects_malformed(q, r, t, sets):
    with pytest.raises(ValueError):
        SetFamily(q, r, t, sets)


def test_family_allows_duplicates_and_empty():
    fam = SetFamily(13, 2, 2, ((0, 1, 2), (0, 1, 2)))
    assert fam.m == 2
    assert SetFamily(13, 2, 2, ()).m == 0


# ------------------------------------------------ union condition checks


def test_union_condition_passing_pair():
    fam = SetFamily(13, 2, 2, ((0, 1, 2), (2, 3, 4)))
    assert verify_union_condition(fam) == []


def test_union_condition_pair_violation():
    fam = SetFamily(13, 2, 2, ((0, 1, 2), (1, 2, 3)))
    vs = verify_union_condition(fam)
    assert len(vs) == 1
    assert vs[0].indices == (0, 1)
    assert vs[0].union_size == 4


def test_union_condition_triple_violation():
    fam = SetFamily(13, 2, 3, ((0, 1, 2), (2, 3, 4), (0, 4, 5)))
    vs = verify_union_condition(fam)
    assert len(vs) == 1
    assert vs[0].indices == (0, 1, 2)
    assert vs[0].union_size == 6


def test_violations_are_minimal_and_true():
    rng = SplitMix64(555)
    for _ in range(40):
        q = 9 + rng.below(8)
        r = 2 + rng.below(2)
        m = 2 + rng.below(4)
        t = 3
        fam = SetFamily(q, r, t, tuple(rng.subset(q, r + 1) for _ in range(m)))
        vs = verify_union_condition(fam)
        seen = [set(v.indices) for v in vs]
        for v, sv in zip(vs, seen):
            union = set().union(*(fam.sets[i] for i in v.indices))
            assert len(union) == v.union_size <= r * len(v.indices)
            assert not any(other < sv for other in seen if other is not sv)
        # cross-check the verdict by raw enumeration
        brute = False
        for s in range(2, min(t, m) + 1):
            for idx in itertools.combinations(range(m), s):
                if len(set().union(*(fam.sets[i] for i in idx))) <= r * s:
                    brute = True
        assert bool(vs) == brute


def test_adding_sets_never_fixes_violations():
    fam = SetFamily(13, 2, 2, ((0, 1, 2), (1, 2, 3)))
    bigger = SetFamily(13, 2, 2, fam.sets + ((4, 5, 6),))
    assert verify_union_condition(bigger) != []


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_pairwise_characterization_at_t2(data):
    q = data.draw(st.integers(7, 19))
    r = data.draw(st.integers(2, 3))
    m = data.draw(st.integers(2, 4))
    rng = SplitMix64(data.draw(st.integers(0, 2**32)))
    fam = SetFamily(q, r, 2, tuple(rng.subset(q, r + 1) for _ in range(m)))
    passes = verify_union_condition(fam) == []
    pairwise_ok = all(
        len(set(a) & set(b)) <= 1 for a, b in itertools.combinations(fam.sets, 2)
    )
    assert passes == pairwise_ok


@st.composite
def small_families(draw, max_sets=9, max_r=5, max_t=4):
    """Families with q <= 31, r in 1..max_r, t in 2..max_t and at most `max_sets`
    sets, some with a duplicated set or a set sharing two values with
    another."""
    r = draw(st.integers(1, max_r))
    q = draw(st.integers(r + 1, 31))
    t = draw(st.integers(2, max_t))
    block = st.lists(st.integers(0, q - 1), min_size=r + 1, max_size=r + 1, unique=True)
    sets = draw(st.lists(block, max_size=max_sets))
    for _ in range(draw(st.integers(0, 2))):
        if not sets or len(sets) >= max_sets:
            break
        src = draw(st.sampled_from(sets))
        if draw(st.booleans()):
            extra = list(src)
        else:
            rest = [v for v in range(q) if v not in src[:2]]
            extra = src[:2] + draw(st.permutations(rest))[: r - 1]
        sets.insert(draw(st.integers(0, len(sets))), extra)
    return SetFamily(q, r, t, tuple(tuple(s) for s in sets))


@given(fam=small_families())
@settings(max_examples=300, deadline=None)
def test_verifier_matches_exhaustive_walk(fam):
    assert verify_union_condition(fam) == reference_violations(fam)


@given(fam=small_families(max_sets=12))
@settings(max_examples=300, deadline=None)
def test_remove_violations_leaves_a_verifying_subsequence(fam):
    violations = verify_union_condition(fam)
    kept = remove_violations(fam)
    assert (kept.q, kept.r, kept.t) == (fam.q, fam.r, fam.t)
    assert reference_violations(kept) == []
    # the kept sets keep their order: match each to its first unused original
    remaining = iter(enumerate(fam.sets))
    kept_at = [next((i for i, s in remaining if s == k), None) for k in kept.sets]
    assert None not in kept_at
    in_violations = {i for v in violations for i in v.indices}
    assert set(range(fam.m)) - set(kept_at) <= in_violations


# (40, 1, 6, 103) accepts 51 or 52 sets, too many for an unpruned walk over
# every collection of up to t - 1 of them for each draw
@pytest.mark.parametrize(
    "q,r,t,budget", [(101, 5, 3, 4096), (13, 4, 2, 4096), (17, 3, 3, 100), (50, 2, 4, 300), (40, 1, 6, 103)]
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_greedy_matches_exhaustive_admissibility(q, r, t, budget, seed):
    assert greedy_family(q, r, t, budget, seed).sets == reference_greedy(q, r, t, budget, seed).sets


@st.composite
def greedy_cases(draw):
    # q just above r + 1 makes most draws repeat values; budgets past 16 + 64
    # span several of greedy_family's batches, so a target can stop it mid-batch
    r = draw(st.integers(1, 5))
    q = draw(st.integers(r + 1, r + 6) | st.integers(r + 1, 60))
    t = draw(st.integers(2, 6))
    budget = draw(st.integers(0, 200) | st.integers(80, 400))
    target_m = draw(st.none() | st.integers(1, 12))
    return q, r, t, budget, draw(st.integers(0, 2**32)), target_m


@given(case=greedy_cases())
@settings(max_examples=200, deadline=None)
def test_greedy_matches_exhaustive_admissibility_at_random(case):
    q, r, t, budget, seed, target_m = case
    fam = greedy_family(q, r, t, budget, seed, target_m=target_m)
    assert fam.sets == reference_greedy(q, r, t, budget, seed, target_m=target_m).sets


@st.composite
def bfs_cases(draw):
    # sizes the exhaustive walk of reference_greedy cannot reach in time:
    # large q, paths up to length 5 and budgets past all of _draws' batches
    q = draw(st.sampled_from([13, 101, 4999, 65536]))
    r = draw(st.integers(1, 5))
    t = draw(st.integers(2, 6))
    budget = draw(st.integers(0, 1500))
    target_m = draw(st.none() | st.integers(1, 300))
    return q, r, t, budget, draw(st.integers(0, 2**64 - 1)), target_m


@given(case=bfs_cases())
@example(case=(4999, 5, 6, 1500, 7, None))
@example(case=(65536, 5, 5, 1500, 11, 600))
@settings(max_examples=100, deadline=None)
def test_greedy_matches_the_breadth_first_search_it_replaced(case):
    q, r, t, budget, seed, target_m = case
    fam = greedy_family(q, r, t, budget, seed, target_m=target_m)
    assert fam.sets == reference_bfs_greedy(q, r, t, budget, seed, target_m=target_m).sets


def _digest(fam: SetFamily) -> str:
    return hashlib.sha256(repr(fam.sets).encode()).hexdigest()[:16]


def test_seeded_families_are_pinned():
    # digests of repr(fam.sets) as written by the exhaustive-walk verifier;
    # the same seed must keep giving the same family
    assert [_digest(random_family(4999, 5, 3, s)) for s in range(1, 6)] == [
        "e547f775f92aac21",
        "a3b9d288b37eb101",
        "e341b74148a315ca",
        "748ce0502f90e9be",
        "b2fad6610eac192b",
    ]
    assert [_digest(greedy_family(101, 5, 3, 4096, s)) for s in range(1, 4)] == [
        "3a0d452d641b5262",
        "bfa36cb17dec58d1",
        "4a0b3998f253e4e5",
    ]
    assert _digest(derandomized_family(64, 2, 3)) == "f0828bc5938ebb6e"


# ----------------------------------------------------------- hypergraphs


def test_berge_two_cycle_from_shared_pair():
    fam = SetFamily(13, 2, 2, ((0, 1, 2), (1, 2, 3)))
    cyc = find_berge_cycle(fam, 2)
    assert cyc is not None
    assert len(cyc.vertices) == 2
    assert set(cyc.vertices) <= {1, 2}
    assert is_berge_cycle(fam, cyc)


def test_berge_three_cycle_chain():
    fam = SetFamily(13, 2, 3, ((0, 1, 2), (2, 3, 4), (0, 4, 5)))
    cyc = find_berge_cycle(fam, 3)
    assert cyc is not None
    assert set(cyc.vertices) == {0, 2, 4}
    assert is_berge_cycle(fam, cyc)


def test_berge_none_on_open_chain():
    fam = SetFamily(13, 2, 3, ((0, 1, 2), (2, 3, 4), (4, 5, 6)))
    assert find_berge_cycle(fam, 3) is None


def test_is_berge_cycle_rejects_bad_witnesses():
    fam = SetFamily(13, 2, 3, ((0, 1, 2), (1, 2, 3), (2, 3, 4)))
    # repeated vertices
    assert not is_berge_cycle(fam, BergeCycle((1, 1), (0, 1)))
    # repeated edges
    assert not is_berge_cycle(fam, BergeCycle((1, 2), (0, 0)))
    # vertices not inside the right edges
    assert not is_berge_cycle(fam, BergeCycle((0, 4), (0, 2)))
    # an edge index past the last set, and a negative one (-1 would read set 2)
    assert not is_berge_cycle(fam, BergeCycle((1, 2), (0, 3)))
    assert not is_berge_cycle(fam, BergeCycle((2, 3), (-1, 1)))
    # a single vertex is no cycle, even inside its edge
    assert not is_berge_cycle(fam, BergeCycle((1,), (0,)))
    # {2, 4} lies in edge 1 but v_1 = 2 and v_k = 4 are not both in edge 0
    chain = SetFamily(13, 2, 3, ((0, 1, 2), (2, 3, 4), (4, 5, 6)))
    assert not is_berge_cycle(chain, BergeCycle((2, 4), (0, 1)))
    assert is_berge_cycle(fam, BergeCycle((1, 2), (0, 1)))


# ------------------------------------------------------ greedy early stop


def _masks(fam: SetFamily) -> list[int]:
    # closed neighbourhoods in the 2-section graph, over the family's values in sorted order
    label = {v: i for i, v in enumerate(sorted({v for s in fam.sets for v in s}))}
    near = [1 << i for i in range(len(label))]
    for s in fam.sets:
        for a, b in itertools.permutations(s, 2):
            near[label[a]] |= 1 << label[b]
    return near


def _some_set_admissible(fam: SetFamily) -> bool:
    accepted = [frozenset(s) for s in fam.sets]
    return any(
        reference_admits(accepted, frozenset(c), fam.r, fam.t)
        for c in itertools.combinations(range(fam.q), fam.r + 1)
    )


@st.composite
def small_greedy_families(draw):
    r = draw(st.integers(1, 4))
    q = draw(st.integers(r + 1, 12))
    t = draw(st.integers(2, 5))
    budget = draw(st.integers(0, 64) | st.just(4096))
    target_m = draw(st.none() | st.integers(1, 6))
    return greedy_family(q, r, t, budget, draw(st.integers(0, 2**32)), target_m=target_m)


@given(fam=small_greedy_families())
@settings(max_examples=200, deadline=None)
def test_the_maximality_check_matches_brute_force(fam):
    near, k = _masks(fam), fam.r + 1
    verdict = setfam._maximal(near, fam.q, k, fam.t, 10**9)
    assert verdict is (not _some_set_admissible(fam))
    # with no nodes to visit the search settles only the free-value case
    assert setfam._maximal(near, fam.q, k, fam.t, 0) is (False if fam.q - len(near) >= k else None)


def test_the_maximality_check_on_its_boundary_cases():
    # nine free values hold a 3-set, so no node is visited
    fam = SetFamily(12, 2, 3, ((0, 1, 2),))
    assert setfam._maximal(_masks(fam), 12, 3, 3, 0) is False and _some_set_admissible(fam)
    # three labelled values with no neighbour and two free ones: a 5-set must
    # use every labelled value, and joining two of them leaves none
    assert setfam._maximal([0b001, 0b010, 0b100], 5, 5, 2, 10) is False
    assert setfam._maximal([0b101, 0b010, 0b101], 5, 5, 2, 10) is True
    # a maximal family needs a search to prove it; a budget of 0 never does
    full = greedy_family(13, 4, 2, 4096, 1)
    assert not _some_set_admissible(full)
    assert setfam._maximal(_masks(full), 13, 5, 2, 10**6) is True
    assert setfam._maximal(_masks(full), 13, 5, 2, 0) is None


def test_greedy_stops_drawing_once_no_set_can_be_admitted(monkeypatch):
    rows = []
    subsets = SplitMix64.subsets

    def counting(self, q, k, count):
        batch = subsets(self, q, k, count)
        rows.append(len(batch))
        return batch

    monkeypatch.setattr(SplitMix64, "subsets", counting)
    for seed in (1, 2, 3):
        rows.clear()
        fam = greedy_family(13, 4, 2, 4096, seed)
        assert sum(rows) <= 80  # the whole budget of 4096 without the check
        assert fam.sets == reference_greedy(13, 4, 2, 4096, seed).sets
    # construct's shape never becomes maximal, so it still draws its budget
    for seed in (1, 2, 3):
        rows.clear()
        greedy_family(101, 5, 3, 4096, seed)
        assert sum(rows) == 4096


# the check proves the family maximal on the first three shapes, gives up
# before it does on the last two, and never runs on (64, 2, 3), (101, 1, 2)
# and (500, 2, 2), whose families stay far from maximal
_CHECKED_SHAPES = [
    (13, 4, 2, 4096), (11, 5, 2, 512), (17, 3, 3, 4096), (27, 3, 2, 4096), (64, 2, 3, 4096),
    (101, 1, 2, 4096), (500, 2, 2, 4096), (15, 5, 3, 4096), (19, 5, 2, 4096),
]


@pytest.mark.parametrize("q,r,t,budget", _CHECKED_SHAPES)
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("target_m", [None, 2])
def test_greedy_with_its_check_matches_the_breadth_first_search(q, r, t, budget, seed, target_m):
    fam = greedy_family(q, r, t, budget, seed, target_m=target_m)
    assert fam.sets == reference_bfs_greedy(q, r, t, budget, seed, target_m=target_m).sets


def test_the_check_fires_gives_up_or_never_runs(monkeypatch):
    verdicts = []
    maximal = setfam._maximal

    def spy(*args):
        verdicts.append(maximal(*args))
        return verdicts[-1]

    monkeypatch.setattr(setfam, "_maximal", spy)

    def run(*args):
        verdicts.clear()
        greedy_family(*args)
        return list(verdicts)

    assert run(13, 4, 2, 4096, 1) == [False] * 4 + [True]
    assert run(15, 5, 3, 4096, 1) == [False, None, None, True]
    assert run(19, 5, 2, 4096, 3)[-5:] == [None] * 4 + [True]
    assert run(64, 2, 3, 4096, 1) == run(500, 2, 2, 4096, 1) == []


def test_find_berge_cycle_runs_no_check(monkeypatch):
    # 3 sets of a maximal family, then 40 copies of the first: every copy is
    # refused, past the refusal streak at which greedy_family would check
    fam = greedy_family(13, 4, 2, 4096, 1)
    family = SetFamily(13, 4, 2, fam.sets + fam.sets[:1] * 40)
    calls = []
    admitted = setfam._admitted

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return admitted(*args, **kwargs)

    def check(*args):
        raise AssertionError("find_berge_cycle ran the maximality check")

    monkeypatch.setattr(setfam, "_admitted", spy)
    monkeypatch.setattr(setfam, "_maximal", check)
    assert find_berge_cycle(family, 2) is not None and find_berge_cycle(fam, 2) is None
    assert [(len(args), kwargs) for args, kwargs in calls] == [(2, {}), (2, {})]


@given(fam=small_families(max_sets=7, max_r=3, max_t=5))
@settings(max_examples=300, deadline=None)
def test_find_berge_cycle_matches_brute_force(fam):
    edges = [frozenset(s) for s in fam.sets]
    got = find_berge_cycle(fam, fam.t)
    want = berge_cycle_exists(edges, fam.t)
    assert (got is not None) == want == (verify_union_condition(fam) != [])
    if got is not None:
        assert 2 <= len(got.vertices) <= fam.t
        assert is_berge_cycle(fam, got)
        least = next(i for i in range(fam.m) if berge_cycle_exists(edges[: i + 1], fam.t))
        assert got.edge_indices[0] == least


def test_greedy_and_cycle_free_verdicts_never_trace(monkeypatch):
    def trace(*args):
        raise AssertionError("the breadth-first tracer ran")

    monkeypatch.setattr(setfam, "_closing_edge", trace)
    # the greedy digests of test_seeded_families_are_pinned
    assert [_digest(greedy_family(101, 5, 3, 4096, s)) for s in range(1, 4)] == [
        "3a0d452d641b5262",
        "bfa36cb17dec58d1",
        "4a0b3998f253e4e5",
    ]
    for t in (2, 3, 4, 5, 6):
        fam = greedy_family(101, 3, t, 1024, seed=t)
        assert fam.m > 0 and find_berge_cycle(fam, t) is None


@given(fam=small_families(max_sets=7, max_r=3, max_t=5))
@settings(max_examples=200, deadline=None)
def test_find_berge_cycle_traces_once_and_only_a_cycle(fam):
    calls = []
    original = setfam._closing_edge

    def spy(*args):
        calls.append(args)
        return original(*args)

    with mock.patch.object(setfam, "_closing_edge", spy):
        find_berge_cycle(fam, fam.t)
    assert len(calls) == int(berge_cycle_exists([frozenset(s) for s in fam.sets], fam.t))


def test_equivalence_check_on_known_cases():
    for fam in (
        SetFamily(13, 2, 2, ((0, 1, 2), (2, 3, 4))),
        SetFamily(13, 2, 2, ((0, 1, 2), (1, 2, 3))),
        SetFamily(13, 2, 3, ((0, 1, 2), (2, 3, 4), (0, 4, 5))),
    ):
        assert (find_berge_cycle(fam, fam.t) is None) == (verify_union_condition(fam) == [])


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_equivalence_check_fuzz(data):
    q = data.draw(st.integers(7, 19))
    r = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(2, 4))
    t = data.draw(st.sampled_from([2, 3]))
    rng = SplitMix64(data.draw(st.integers(0, 2**32)))
    fam = SetFamily(q, r, t, tuple(rng.subset(q, r + 1) for _ in range(m)))
    assert (find_berge_cycle(fam, fam.t) is None) == (verify_union_condition(fam) == [])


# ------------------------------------------------------- size formulas


@pytest.mark.parametrize("call,error", [
    (lambda: target_family_size(997, 0, 3), "need r >= 1 and q >= 2"),
    (lambda: target_family_size(1, 5, 3), "need r >= 1 and q >= 2"),
    (lambda: family_size_upper_bound(997, 5, 1), "need t >= 2"),
    (lambda: family_size_upper_bound(997, 0, 3), "need r >= 1 and q >= 2"),
    (lambda: family_size_upper_bound(1, 5, 3), "need r >= 1 and q >= 2"),
    (lambda: random_family(13, 2, 3, 1, target_m=0), "target family size must be positive"),
    (lambda: random_family(13, 2, 2, 1), "the randomized construction needs t >= 3"),
    (lambda: greedy_family(13, 2, 1, 64, 1), "need t >= 2"),
    (lambda: greedy_family(4, 4, 2, 64, 1), r"set size r\+1 cannot exceed q"),
    (lambda: find_berge_cycle(SetFamily(13, 2, 2, ((0, 1, 2), (1, 2, 3))), 1), None),
], ids=["target-r", "target-q", "bound-t", "bound-r", "bound-q", "random-m", "random-t", "greedy-t",
        "greedy-r", "berge-length-1"])
def test_generators_and_bounds_refuse_arguments_out_of_range(call, error):
    # a Berge cycle has at least two edges, so none is shorter than 2 even
    # in a family with a 2-cycle
    if error is None:
        assert call() is None
    else:
        with pytest.raises(ValueError, match=error):
            call()


def test_target_family_size_frozen_values():
    assert target_family_size(997, 5, 3) == 9
    assert target_family_size(4999, 5, 3) == 91
    assert target_family_size(997, 2, 3) == 65


def test_target_family_size_rejects_small_t():
    with pytest.raises(ValueError, match="need t >= 2"):
        target_family_size(997, 5, 1)


def test_target_family_size_against_decimal_oracle():
    getcontext().prec = 60
    for q in (64, 97, 128, 243, 997, 2048, 4999):
        for r in (1, 2, 3, 5):
            for t in (2, 3, 4, 5):
                val = (
                    Decimal(q) ** (Decimal(t) / Decimal(t - 1))
                ) / (2 * t * t * Decimal(r + 1) ** (Decimal(2 * t) / Decimal(t - 1)))
                nearest = val.to_integral_value(ROUND_CEILING)
                if abs(val - val.to_integral_value()) < Decimal("1e-30"):
                    continue  # too close to an integer for the float oracle
                assert target_family_size(q, r, t) == max(1, int(nearest))


def test_upper_bound_frozen_values():
    assert family_size_upper_bound(997, 5, 3) == 33299
    assert family_size_upper_bound(4999, 5, 3) == 833833
    assert family_size_upper_bound(997, 5, 5) == 2736
    assert family_size_upper_bound(997, 5, 4) == 1215
    assert family_size_upper_bound(64, 3, 2) == 357


def test_upper_bound_exact_rational_cases():
    # t=3, q=12, r=2: (q/r)(q/(r+1)) + q/(r+1) = 24 + 4 = 28 exactly
    assert family_size_upper_bound(12, 2, 3) == 28
    # t=2, q=12, r=2: q^2/(r(r+1)) + q/(r+1) = 24 + 4 = 28 exactly
    assert family_size_upper_bound(12, 2, 2) == 28


def test_upper_bound_against_decimal_oracle():
    getcontext().prec = 60
    for q in (64, 128, 243, 997, 4999):
        for r in (2, 3, 5):
            for t in (2, 3, 4, 5, 7):
                if t % 2 == 1:
                    val = Decimal(q) / r * (Decimal(q) / (r + 1)) ** (
                        Decimal(2) / (t - 1)
                    ) + Decimal(q) / (r + 1)
                else:
                    val = Decimal(q) / (r * (r + 1)) * Decimal(q) ** (
                        Decimal(2) / t
                    ) + Decimal(q) / (r + 1)
                if abs(val - val.to_integral_value()) < Decimal("1e-30"):
                    continue
                assert family_size_upper_bound(q, r, t) == int(
                    val.to_integral_value(ROUND_FLOOR)
                )


def test_packing_ceiling_attained_for_two_element_sets():
    # r=1: sets are pairs, distinctness is the whole condition, so every
    # family of all C(q,2) pairs meets the ceiling exactly
    q = 7
    all_pairs = tuple(itertools.combinations(range(q), 2))
    fam = SetFamily(q, 1, 2, all_pairs)
    assert verify_union_condition(fam) == []
    assert packing_ceiling(q, 1) == len(all_pairs) == 21


# ------------------------------------------------------------ generators


def test_random_family_deterministic_and_verified():
    a = random_family(997, 2, 3, seed=11)
    b = random_family(997, 2, 3, seed=11)
    assert a.sets == b.sets
    assert a.m == 65
    assert verify_union_condition(a) == []
    c = random_family(997, 2, 3, seed=12)
    assert c.sets != a.sets


def test_random_family_rejects_t2():
    with pytest.raises(ValueError):
        random_family(997, 5, 2, seed=1)


def test_random_family_pigeonhole_failure(monkeypatch):
    # 35 six-element subsets of [30] cannot pairwise intersect in <= 1
    # element (packing ceiling is 29); every attempt must fail.  Three
    # attempts show it; the CLI's generation-failure test runs all twenty
    monkeypatch.setattr(setfam, "_MAX_ATTEMPTS", 3)
    with pytest.raises(GenerationError, match="within 3 attempts"):
        random_family(30, 5, 3, seed=5, target_m=35)
    assert packing_ceiling(30, 5) == 29


def test_greedy_family_contracts():
    fam = greedy_family(13, 4, 2, candidate_budget=512, seed=9)
    assert fam.m >= 3
    assert verify_union_condition(fam) == []
    # determinism
    again = greedy_family(13, 4, 2, candidate_budget=512, seed=9)
    assert again.sets == fam.sets
    # only one 6-subset of [6] exists
    tiny = greedy_family(6, 5, 2, candidate_budget=64, seed=1)
    assert tiny.m <= 1
    # zero budget, empty family
    assert greedy_family(13, 4, 2, candidate_budget=0, seed=1).m == 0
    # an empty target or a negative budget is refused, not overshot
    for target_m in (0, -1):
        with pytest.raises(ValueError, match="target"):
            greedy_family(13, 2, 2, candidate_budget=64, seed=1, target_m=target_m)
    with pytest.raises(ValueError, match="budget"):
        greedy_family(13, 2, 2, candidate_budget=-3, seed=1)
    # target stops acceptance early
    capped = greedy_family(13, 2, 2, candidate_budget=4096, seed=3, target_m=2)
    assert capped.m == 2


@given(seed=st.integers(0, 2**62))
@settings(max_examples=20, deadline=None)
def test_greedy_output_always_verifies(seed):
    fam = greedy_family(17, 3, 3, candidate_budget=100, seed=seed)
    assert verify_union_condition(fam) == []
    assert fam.m <= packing_ceiling(17, 3)
