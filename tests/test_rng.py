"""The block-computed SplitMix64 stream against the one-output-at-a-time
reference: same values for every seed and every mix of calls, wherever
the block boundaries fall."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ReferenceSplitMix64
from lrckit.rng import SplitMix64

SEEDS = (0, 1, 42, (1 << 64) - 1, -1, -(1 << 70) + 3, (1 << 64) + 5, 20260814)
# n = 1, 2, powers of two and their neighbours, up to 2**64
SPECIAL_BOUNDS = sorted(
    {1, 2, 3}
    | {(1 << j) + e for j in range(2, 65) for e in (-1, 0, 1) if (1 << j) + e <= 1 << 64}
)


def _bounds(max_n: int = 1 << 64):
    return st.one_of(
        st.sampled_from([n for n in SPECIAL_BOUNDS if n <= max_n]),
        st.integers(1, max_n),
    )


@st.composite
def _subset_args(draw):
    n = draw(_bounds())
    if n <= 1100:
        # k = n at n ~ 1024 collects every value: thousands of outputs, more than a block
        k = draw(st.sampled_from([0, n, n // 2]) | st.integers(0, n))
    else:
        k = draw(st.integers(0, 8))
    return n, k


_OPS = st.one_of(
    st.tuples(st.just("next64"), st.integers(1, 1500)),
    st.tuples(st.just("below"), _bounds(), st.integers(1, 40)),
    st.tuples(st.just("subset"), _subset_args()),
    st.tuples(st.just("spawn"), st.integers(0, 5)),
)


def _apply(gen, op):
    kind = op[0]
    if kind == "next64":
        return [gen.next64() for _ in range(op[1])]
    if kind == "below":
        return [gen.below(op[1]) for _ in range(op[2])]
    if kind == "subset":
        return gen.subset(*op[1])
    child = gen.spawn()
    return [child.next64() for _ in range(op[1])], child.subset(1 << 20, 3)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.sampled_from(SEEDS) | st.integers(-(1 << 80), 1 << 80),
    ops=st.lists(_OPS, min_size=1, max_size=25),
)
def test_interleaved_calls_match_the_reference(seed, ops):
    gen, ref = SplitMix64(seed), ReferenceSplitMix64(seed)
    for op in ops:
        assert _apply(gen, op) == _apply(ref, op), op
    assert gen.next64() == ref.next64()


@pytest.mark.parametrize("seed", SEEDS)
def test_long_mixed_stream_crosses_many_blocks(seed):
    gen, ref = SplitMix64(seed), ReferenceSplitMix64(seed)
    for i in range(3000):
        op = (
            ("next64", 1 + i % 3),
            ("below", SPECIAL_BOUNDS[i % len(SPECIAL_BOUNDS)], 2),
            ("subset", (101, 6)),
            ("subset", (1 << 64, 2)),
            ("spawn", 2),
        )[i % 5]
        assert _apply(gen, op) == _apply(ref, op)
    assert gen.next64() == ref.next64()


# first outputs, recorded from the one-output-at-a-time generator
PINNED = {
    0: [16294208416658607535, 7960286522194355700, 487617019471545679, 17909611376780542444],
    1: [10451216379200822465, 13757245211066428519, 17911839290282890590, 8196980753821780235],
    42: [13679457532755275413, 2949826092126892291, 5139283748462763858, 6349198060258255764],
    (1 << 64) - 1: [16490336266968443936, 16834447057089888969, 4048727598324417001, 7862637804313477842],
    -1: [16490336266968443936, 16834447057089888969, 4048727598324417001, 7862637804313477842],
    (1 << 64) + 5: [7134611160154358618, 13877614986023876344, 4292726422858613063, 1832488697174800709],
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_first_outputs_are_pinned(seed):
    gen = SplitMix64(seed)
    assert [gen.next64() for _ in range(4)] == PINNED[seed]


@pytest.mark.parametrize("before", [1023, 1024, 1025])
@pytest.mark.parametrize("n,k", [(101, 6), (1024, 1024), (1 << 64, 3), (5, 5)])
def test_subset_after_a_block_boundary(before, n, k):
    gen, ref = SplitMix64(7), ReferenceSplitMix64(7)
    assert [gen.next64() for _ in range(before)] == [ref.next64() for _ in range(before)]
    assert gen.subset(n, k) == ref.subset(n, k)
    assert gen.below(1000) == ref.below(1000)
    assert gen.next64() == ref.next64()


def test_draws_that_need_no_output_consume_nothing():
    gen = SplitMix64(3)
    assert gen.below(1) == 0
    assert gen.subset(1, 1) == (0,)
    assert gen.subset(1, 0) == ()
    assert gen.subset(9, 0) == ()
    assert gen.next64() == SplitMix64(3).next64()


def test_bounds_up_to_two_to_the_64_are_accepted():
    gen, ref = SplitMix64(11), ReferenceSplitMix64(11)
    assert gen.below(1 << 64) == ref.below(1 << 64)
    assert gen.subset(1 << 64, 4) == ref.subset(1 << 64, 4)


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda g: g.subset(5, -1), "k = -1"),
        (lambda g: g.subset(3, 4), "cannot draw 4"),
        (lambda g: g.below(0), "n = 0"),
        (lambda g: g.below(-3), "n = -3"),
        (lambda g: g.below((1 << 64) + 1), r"n = 18446744073709551617 exceeds 2\*\*64"),
        (lambda g: g.subset((1 << 64) + 1, 2), r"n = 18446744073709551617 exceeds 2\*\*64"),
        (lambda g: g.subset(1 << 70, 1), r"exceeds 2\*\*64"),
    ],
)
def test_bad_arguments_raise_a_named_value_error(call, match):
    with pytest.raises(ValueError, match=match):
        call(SplitMix64(1))
