"""The conditional-probability kernel is the core of the deterministic
construction; its integer numerators, over the product of the sets'
weights, are checked here for exact rational equality against full
enumeration of completions, which is the strongest oracle available, and
against the hand-derived pair and triple kernels it replaced.  The
construction itself is checked against the loop it replaced, which scored
every membership signature of range(q) with a `Fraction` estimator."""

import hashlib
import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrckit import derand
from lrckit.derand import _collection_numerator, _weight, derandomized_family
from lrckit.gf import prime_power
from lrckit.setfam import target_family_size, verify_union_condition

from conftest import (
    collision_probability,
    kernel_probability,
    reference_collection_numerator,
    reference_derandomized_family,
    reference_derandomized_pool,
)


PAIR_CASES = [
    (9, 3, (frozenset(), frozenset())),
    (9, 3, (frozenset({0}), frozenset())),
    (9, 3, (frozenset({0, 1}), frozenset({1}))),
    (9, 3, (frozenset({0, 1, 2}), frozenset({0, 3}))),
    (9, 3, (frozenset({0, 1, 2}), frozenset({3, 4, 5}))),
    (9, 3, (frozenset({0, 1, 2}), frozenset({0, 1, 3}))),
    (8, 4, (frozenset({0, 1}), frozenset({2}))),
]


@pytest.mark.parametrize("q,size,fixed", PAIR_CASES)
def test_pair_kernel_exact(q, size, fixed):
    assert kernel_probability(q, size, fixed) == collision_probability(q, size, fixed)


TRIPLE_CASES = [
    (7, 2, (frozenset(), frozenset(), frozenset())),
    (7, 2, (frozenset({0}), frozenset(), frozenset())),
    (7, 2, (frozenset({0}), frozenset({0}), frozenset())),
    (7, 2, (frozenset({0, 1}), frozenset({1}), frozenset({2}))),
    (8, 3, (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}))),
    (8, 3, (frozenset({0, 1, 2}), frozenset({0, 1, 3}), frozenset({2}))),
    (8, 3, (frozenset(), frozenset({5}), frozenset({5, 6}))),
]


@pytest.mark.parametrize("q,size,fixed", TRIPLE_CASES)
def test_triple_kernel_exact(q, size, fixed):
    assert kernel_probability(q, size, fixed) == collision_probability(q, size, fixed)


def test_kernels_are_permutation_invariant():
    fx = [frozenset({0, 1}), frozenset({1, 2, 3}), frozenset({4})]
    vals = {kernel_probability(8, 4, p) for p in itertools.permutations(fx)}
    assert len(vals) == 1
    px = [frozenset({0, 1}), frozenset({2})]
    pvals = {kernel_probability(9, 3, p) for p in itertools.permutations(px)}
    assert len(pvals) == 1


@pytest.mark.parametrize(
    "fixed,idx",
    [
        ((frozenset({0}), frozenset({1, 2})), 0),
        ((frozenset(), frozenset()), 1),
        ((frozenset({0}), frozenset({1}), frozenset({0, 1})), 2),
        ((frozenset(), frozenset({3}), frozenset({4, 5})), 0),
    ],
)
def test_martingale_identity(fixed, idx):
    # conditioning on one more element and averaging must reproduce the
    # parent probability (law of total probability); any discrepancy
    # breaks the non-increase argument of the greedy choice
    q, size = 9, 3
    parent = kernel_probability(q, size, fixed)
    cands = [c for c in range(q) if c not in fixed[idx]]
    acc = Fraction(0)
    for c in cands:
        child = list(fixed)
        child[idx] = child[idx] | {c}
        acc += kernel_probability(q, size, child)
    assert parent == acc / len(cands)


def test_probabilities_lie_in_unit_interval():
    first = (frozenset(), frozenset({0}), frozenset({0, 1}))
    second = (frozenset(), frozenset({1}), frozenset({0, 2}))
    for q, size in ((9, 3), (16, 4)):
        for fixed in [*itertools.product(first, second), *itertools.product(first, second, first)]:
            num = _collection_numerator(q, size, list(fixed))
            p = Fraction(num, prod(_weight(q, size, len(f)) for f in fixed))
            assert 0 <= p <= 1


@st.composite
def overlapping_collections(draw):
    # fixed parts drawn from a few small values, so that they overlap
    size = draw(st.integers(2, 8))
    q = draw(st.integers(size, 512))
    pool = list(range(min(q, size + 3)))
    fixed = [
        frozenset(draw(st.sets(st.sampled_from(pool), max_size=size)))
        for _ in range(draw(st.integers(2, 3)))
    ]
    return q, size, fixed


@given(overlapping_collections())
@settings(max_examples=300, deadline=None)
def test_chain_matches_the_overlap_kernels(case):
    q, size, fixed = case
    assert _collection_numerator(q, size, fixed) == reference_collection_numerator(q, size, fixed)


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize(
    "parts,pivot",
    [
        ((frozenset({0, 1}), frozenset({1, 2, 3}), frozenset({4}), frozenset()), 0),
        ((frozenset({0, 1}), frozenset({1, 2, 3}), frozenset({4}), frozenset()), 2),
        ((frozenset({0, 1, 2, 3}), frozenset({0, 5}), frozenset(), frozenset({5, 6, 7})), 1),
    ],
)
def test_phi_numerator_matches_the_fraction_sum(parts, pivot, t):
    # _phi_over gives Phi's numerator over the product of every set's
    # weight, as a function of the pivot set's part
    q, size = 10, 4
    denom = prod(_weight(q, size, len(f)) for f in parts)
    others = [k for k in range(len(parts)) if k != pivot]
    expected = sum(
        kernel_probability(q, size, [parts[pivot]] + [parts[k] for k in rest])
        for s in range(2, t + 1)
        for rest in itertools.combinations(others, s - 1)
    )
    phi = derand._phi_over(q, size, t, list(parts), pivot)
    assert Fraction(phi(parts[pivot]), denom) == expected


def test_each_tracked_set_reads_the_other_sets_once(monkeypatch):
    # one estimator per tracked set, and a step's Phi before is the previous
    # step's minimum: (64, 2, 3) tracks 4 sets, so 4 set-ups and 204
    # collection numerators, where a set-up per candidate took 42 and 252
    calls = {"phi": [], "numerators": 0}
    phi_over, numerator = derand._phi_over, derand._collection_numerator

    def counting_phi(q, size, t, parts, pivot):
        calls["phi"].append(pivot)
        return phi_over(q, size, t, parts, pivot)

    def counting_numerator(q, size, fixed):
        calls["numerators"] += 1
        return numerator(q, size, fixed)

    monkeypatch.setattr(derand, "_phi_over", counting_phi)
    monkeypatch.setattr(derand, "_collection_numerator", counting_numerator)
    derandomized_family(64, 2, 3)
    assert calls == {"phi": [0, 1, 2, 3], "numerators": 204}


def test_derandomized_family_frozen_output():
    fam = derandomized_family(64, 2, 3)
    assert fam.sets == ((0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 9, 10))
    assert fam.m >= target_family_size(64, 2, 3) == 2
    assert verify_union_condition(fam) == []
    again = derandomized_family(64, 2, 3)
    assert again == fam


def test_derandomized_family_t2():
    fam = derandomized_family(49, 3, 2)
    assert verify_union_condition(fam) == []
    assert fam.m >= 2
    for a, b in itertools.combinations(fam.sets, 2):
        assert len(set(a) & set(b)) <= 1


def test_derandomized_family_medium_case():
    fam = derandomized_family(100, 3, 2)
    assert verify_union_condition(fam) == []
    assert derandomized_family(100, 3, 2) == fam


@pytest.mark.parametrize(
    "q,r,t",
    [
        (64, 2, 4),  # t out of range
        (64, 2, 1),
        (1024, 2, 3),  # q above the envelope
        (512, 1, 2),  # 2m blows past the set cap
    ],
)
def test_envelope_rejections(q, r, t):
    with pytest.raises(ValueError):
        derandomized_family(q, r, t)


def _outcome(build, q, r, t):
    try:
        return build(q, r, t)
    except ValueError as exc:
        return f"refused: {exc}"


def test_matches_the_fraction_loop_on_every_small_case():
    # every (q, r, t) with q <= 40, r <= 6, t in {2, 3}: the 43 refusals
    # must carry the same message, and the 425 accepted cases give the
    # same family
    built = 0
    for q in range(2, 41):
        for r in range(1, 7):
            for t in (2, 3):
                got = _outcome(derandomized_family, q, r, t)
                assert got == _outcome(reference_derandomized_family, q, r, t), (q, r, t)
                built += not isinstance(got, str)
    assert built == 425


@pytest.mark.parametrize("q,r,t", [(3, 2, 3), (5, 2, 2), (7, 6, 3), (9, 4, 2), (13, 6, 3)])
def test_matches_the_fraction_loop_with_no_fresh_value(q, r, t):
    # at some position every value outside the pivot set lies in another
    # set, so only values of the other sets compete
    _, exhausted = reference_derandomized_pool(q, r, t)
    assert exhausted > 0
    assert derandomized_family(q, r, t) == reference_derandomized_family(q, r, t)


@pytest.mark.parametrize(
    "q,r,nsets",
    [(11, 5, 2), (439, 7, 2), (251, 5, 4), (512, 6, 4), (397, 5, 6), (512, 5, 6)],
)
def test_matches_the_fraction_loop_on_envelope_cases(q, r, nsets):
    assert 2 * target_family_size(q, r, 3) == nsets
    assert derandomized_family(q, r, 3) == reference_derandomized_family(q, r, 3)


def test_envelope_families_are_pinned():
    # t = 3, prime power 11 <= q <= 512, r in 5..7 with 2m <= 12: the 330
    # cases the construction benchmark draws from; the digest was taken
    # from the Fraction loop before it scored only competing values
    cases = [
        (q, r)
        for q in range(11, 513)
        if prime_power(q) is not None
        for r in (5, 6, 7)
        if 2 * target_family_size(q, r, 3) <= 12
    ]
    assert len(cases) == 330
    digest = hashlib.sha256()
    for q, r in cases:
        digest.update(f"{q} {r} {derandomized_family(q, r, 3).sets}\n".encode())
    assert digest.hexdigest() == "d92acf5bc9521b7a4f8377a39d70a16a98836995f05eb8b23428aab292e73b90"


def test_an_increasing_estimator_is_an_error(monkeypatch):
    # a collection probability that grows with the fixed elements makes Phi
    # rise at the first position; the check is a raise, so `python -O` keeps it
    def rising(q, size, fixed):
        counts = [len(f) for f in fixed]
        return (sum(counts) + 1) * prod(_weight(q, size, f) for f in counts)

    monkeypatch.setattr(derand, "_collection_numerator", rising)
    with pytest.raises(RuntimeError, match="estimator increased"):
        derandomized_family(64, 2, 3)
