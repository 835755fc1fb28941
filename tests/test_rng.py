"""The SplitMix64 stream, single draws from its counter and batched ones
from numpy runs of outputs, against the one-output-at-a-time reference:
same values for every seed and every mix of calls, wherever a run starts
or ends."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ReferenceSplitMix64
from lrckit.rng import SplitMix64

# -GAMMA: the first step wraps the counter to 0, whose output is 0
SEEDS = (
    0, 1, 42, (1 << 64) - 1, -1, -(1 << 70) + 3, (1 << 64) + 5, 20260814, -0x9E3779B97F4A7C15,
)
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


# ------------------------------------------------------- batched subsets

BATCH_BOUNDS = (1, 2, 5, 11, 13, 101, 4999, 65536, 1 << 64)


@st.composite
def _batch_args(draw):
    n = draw(st.sampled_from(BATCH_BOUNDS))
    k = draw(st.sampled_from([0, min(n, 12)]) | st.integers(0, min(n, 12)))
    # up to about 600 draws: several runs of outputs at large k
    count = draw(st.sampled_from([0, 1, 2, 16, 64]) | st.integers(0, 600))
    return n, k, count


_BATCH_OPS = st.one_of(
    st.tuples(st.just("subsets"), _batch_args()),
    st.tuples(st.just("next64"), st.integers(1, 1100)),
    st.tuples(st.just("below"), st.sampled_from(BATCH_BOUNDS), st.integers(1, 5)),
)


def _apply_batch(gen, op):
    if op[0] == "subsets":
        n, k, count = op[1]
        if isinstance(gen, ReferenceSplitMix64):
            return [gen.subset(n, k) for _ in range(count)]
        return gen.subsets(n, k, count)
    return _apply(gen, op)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.sampled_from(SEEDS) | st.integers(0, (1 << 64) - 1),
    ops=st.lists(_BATCH_OPS, min_size=1, max_size=8),
)
def test_batched_subsets_match_one_draw_at_a_time(seed, ops):
    # every batch equals that many reference draws, and the single draws
    # after it read on from where those draws leave the stream
    gen, ref = SplitMix64(seed), ReferenceSplitMix64(seed)
    for op in ops:
        assert _apply_batch(gen, op) == _apply_batch(ref, op), op
    assert gen.next64() == ref.next64()


@pytest.mark.parametrize("n,k", [(2, 2), (11, 6), (13, 5), (101, 6), (1 << 64, 3), (5, 5)])
def test_batches_too_small_for_their_draws_still_match(monkeypatch, n, k):
    # a window of k values and one start per run: nearly every draw outgrows
    # its window and every run ends after one draw
    from lrckit import rng

    monkeypatch.setattr(rng, "_CELLS", 1)
    plan = rng._plan(n, k)
    monkeypatch.setattr(rng, "_plan", lambda n_, k_: (*plan[:2], k_, *plan[3:]))
    gen, ref = SplitMix64(99), ReferenceSplitMix64(99)
    assert gen.subsets(n, k, 40) == [ref.subset(n, k) for _ in range(40)]
    assert gen.next64() == ref.next64()


def test_batched_subsets_at_two_to_the_64_do_not_overflow():
    # shift 0: every output is in range, and the largest ones compare as such
    gen, ref = SplitMix64(5), ReferenceSplitMix64(5)
    got = gen.subsets(1 << 64, 4, 300)
    assert got == [ref.subset(1 << 64, 4) for _ in range(300)]
    assert max(max(s) for s in got) > (1 << 63)


def test_batches_that_need_no_output_consume_nothing():
    gen = SplitMix64(3)
    assert gen.subsets(1, 1, 5) == [(0,)] * 5
    assert gen.subsets(9, 0, 3) == [()] * 3
    assert gen.subsets(7, 3, 0) == []
    assert gen.next64() == SplitMix64(3).next64()


def test_a_negative_count_is_refused():
    with pytest.raises(ValueError, match="count -1"):
        SplitMix64(1).subsets(5, 2, -1)


def test_single_draws_compute_no_run_of_outputs(monkeypatch):
    # next64, below and spawn step the counter alone; a batch after them
    # reads on from where they leave it
    from lrckit import rng

    def refused(counter, count):
        raise AssertionError("a single draw computed a run of outputs")

    monkeypatch.setattr(rng, "_outputs", refused)
    gen, ref = SplitMix64(8), ReferenceSplitMix64(8)
    assert gen.next64() == ref.next64()
    assert gen.below(13) == ref.below(13)
    assert gen.spawn().next64() == ref.spawn().next64()
    monkeypatch.undo()
    assert gen.subsets(101, 6, 50) == [ref.subset(101, 6) for _ in range(50)]
    assert gen.next64() == ref.next64()


def test_the_counter_that_wraps_to_zero_outputs_zero():
    # the mixer maps 0 to 0, on its int path and on its array path
    assert SplitMix64(-0x9E3779B97F4A7C15).next64() == 0
    assert SplitMix64(-0x9E3779B97F4A7C15).subsets(1 << 64, 1, 1) == [(0,)]
