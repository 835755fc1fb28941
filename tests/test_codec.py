import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrckit.codec import (
    InconsistentWordError,
    UnrecoverableError,
    encode,
    erasure_decode,
    generator_from_parity,
    is_codeword,
    repair,
    repair_groups,
    syndrome,
)
from lrckit.gf import GF
from lrckit.lrc import build_parity_check, min_distance_witness
from lrckit.rng import SplitMix64
from lrckit.setfam import SetFamily

from conftest import ADJUSTED_FAMILY, ODD_Q_D6_FAMILY, SINGLETON_FAMILY, reference_add, reference_mul


@pytest.fixture(scope="module")
def singleton_codec(singleton_code):
    fam, pcm, params = singleton_code
    f = pcm.field
    g = generator_from_parity(f, pcm.rows)
    return f, pcm, params, g


def _random_codeword(f, g, rng):
    msg = [rng.below(f.q) for _ in range(len(g))]
    return encode(f, g, msg)


def test_generator_annihilates_parity(singleton_codec):
    f, pcm, params, g = singleton_codec
    assert len(g) == params.k == 9
    for grow in g:
        assert is_codeword(f, pcm.rows, grow)
    assert syndrome(f, pcm.rows, [0] * pcm.n) == [0] * len(pcm.rows)


def test_generator_requires_nontrivial_nullspace():
    f = GF(7)
    with pytest.raises(ValueError):
        generator_from_parity(f, [[1, 0], [0, 1]])


def test_encode_validates_message_length(singleton_codec):
    f, pcm, params, g = singleton_codec
    with pytest.raises(ValueError):
        encode(f, g, [0] * (params.k - 1))


def test_encode_is_injective(singleton_codec):
    f, pcm, params, g = singleton_codec
    rng = SplitMix64(404)
    seen = set()
    for _ in range(50):
        msg = tuple(rng.below(f.q) for _ in range(params.k))
        word = tuple(encode(f, g, list(msg)))
        assert is_codeword(f, pcm.rows, list(word))
        assert (msg in seen) or (word not in seen)
        seen.add(word)
        seen.add(msg)


def test_repair_groups_partition():
    groups = repair_groups(15, 4)
    assert len(groups) == 3
    assert sorted(x for grp in groups for x in grp) == list(range(15))
    for r in (0, -1):
        with pytest.raises(ValueError, match="must be at least 1"):
            repair_groups(15, r)
    with pytest.raises(ValueError, match=r"^n = 15 is not a multiple of r\+1 = 4$"):
        repair_groups(15, 3)


def test_local_repair_every_position(singleton_codec):
    f, pcm, params, g = singleton_codec
    rng = SplitMix64(7)
    word = _random_codeword(f, g, rng)
    for pos in range(pcm.n):
        received = list(word)
        received[pos] = None
        res = repair(f, pcm.rows, params.r, received)
        assert res.method == "local"
        assert res.symbols_read == params.r
        assert list(res.word) == word


def test_erasure_decode_random_patterns(singleton_codec):
    f, pcm, params, g = singleton_codec
    rng = SplitMix64(99)
    for _ in range(100):
        word = _random_codeword(f, g, rng)
        count = 1 + rng.below(4)  # up to d-1 = 4 erasures
        erased = rng.subset(pcm.n, count)
        received = list(word)
        for pos in erased:
            received[pos] = None
        assert erasure_decode(f, pcm.rows, received) == word


def test_erasure_decode_unrecoverable_on_witness(singleton_codec):
    f, pcm, params, g = singleton_codec
    witness = min_distance_witness(pcm)  # support of a minimum-weight codeword
    word = _random_codeword(f, g, SplitMix64(123))
    received = list(word)
    for pos in witness:
        received[pos] = None
    with pytest.raises(UnrecoverableError):
        erasure_decode(f, pcm.rows, received)


def test_erasure_decode_flags_inconsistency(singleton_codec):
    f, pcm, params, g = singleton_codec
    word = _random_codeword(f, g, SplitMix64(5))
    corrupted = list(word)
    corrupted[3] = f.add(corrupted[3], 1)
    with pytest.raises(InconsistentWordError):
        erasure_decode(f, pcm.rows, corrupted)


def test_repair_prefers_local_path(singleton_codec):
    f, pcm, params, g = singleton_codec
    word = _random_codeword(f, g, SplitMix64(31))
    one = list(word)
    one[6] = None
    res = repair(f, pcm.rows, params.r, one)
    assert res.method == "local"
    assert res.symbols_read == params.r
    assert res.word == tuple(word)

    spread = list(word)
    spread[1] = None
    spread[7] = None
    spread[12] = None  # one erasure per group: all local
    res = repair(f, pcm.rows, params.r, spread)
    assert res.method == "local"
    assert res.symbols_read == 3 * params.r
    assert res.word == tuple(word)


def test_repair_falls_back_to_global(singleton_codec):
    f, pcm, params, g = singleton_codec
    word = _random_codeword(f, g, SplitMix64(32))
    received = list(word)
    received[0] = None
    received[1] = None  # same group: local repair cannot run
    res = repair(f, pcm.rows, params.r, received)
    assert res.method == "global"
    assert res.symbols_read == pcm.n - 2
    assert res.word == tuple(word)


def test_repair_rejects_wrong_length(singleton_codec):
    f, pcm, params, g = singleton_codec
    word = _random_codeword(f, g, SplitMix64(33))
    longer = list(word) + [0]
    longer[6] = None
    with pytest.raises(ValueError, match="length"):
        repair(f, pcm.rows, params.r, longer)
    with pytest.raises(ValueError, match="length"):
        repair(f, pcm.rows, params.r, list(word)[:-1])
    # n = 3 columns cannot split into groups of r+1 = 2; a word of 5 is
    # refused for its length first
    with pytest.raises(ValueError, match=r"^n = 3 is not a multiple of r\+1 = 2$"):
        repair(GF(13), ((1, 1, 1),), 1, [5, None, 7])
    with pytest.raises(ValueError, match="length"):
        repair(GF(13), ((1, 1, 1),), 1, [5, None, 7, 1, 2])


def test_syndrome_and_decode_refuse_a_word_that_does_not_fit_h(singleton_codec):
    f, pcm, params, g = singleton_codec
    word = _random_codeword(f, g, SplitMix64(35))
    for bad in ([word[0]], list(word) + [0], list(word)[:-1]):
        with pytest.raises(ValueError, match="length"):
            syndrome(f, pcm.rows, bad)
        with pytest.raises(ValueError, match="length"):
            is_codeword(f, pcm.rows, bad)
        with pytest.raises(ValueError, match="length"):
            erasure_decode(f, pcm.rows, [None] + list(bad)[1:])


def test_empty_parity_check_matrix_constrains_nothing():
    f = GF(7)
    assert syndrome(f, [], [1]) == [] and syndrome(f, [], []) == []
    assert is_codeword(f, [], [3, 4])
    assert erasure_decode(f, [], [3]) == [3]
    # with no checks every value fits the erasure
    with pytest.raises(UnrecoverableError):
        erasure_decode(f, [], [None])
    with pytest.raises(UnrecoverableError):
        erasure_decode(f, [], [2, None])


def _reference_products(f, rows, vector):
    """Each row's field sum of products with `vector`, through the
    table-free oracles alone."""
    return [functools.reduce(lambda a, b: reference_add(f, a, b),
                             (reference_mul(f, x, y) for x, y in zip(row, vector)), 0)
            for row in rows]


def test_codec_sums_past_the_packing_headroom_over_gf_3_to_the_10():
    # GF(3**10) packs a product's ten digits so that only three terms fit a
    # field: encoding with k = 37 and checking n = 40 symbols sum far past
    # that, in stretches, and must agree with the schoolbook products
    f = GF(3**10)
    rng = SplitMix64(310)
    h = [[rng.below(f.q) for _ in range(40)] for _ in range(3)]
    g = generator_from_parity(f, h)
    assert len(g) == 37 > 3 * f._stretch
    msg = [rng.below(f.q) for _ in range(len(g))]
    msg[:2] = [f.q - 1, 0]
    word = encode(f, g, msg)
    assert word == _reference_products(f, list(zip(*g)), msg)
    assert syndrome(f, h, word) == [0, 0, 0] and is_codeword(f, h, word)
    bad = list(word)
    bad[5] = reference_add(f, bad[5], 1)
    assert syndrome(f, h, bad) == _reference_products(f, h, bad) != [0, 0, 0]
    assert not is_codeword(f, h, bad)


def test_repair_refuses_locality_below_one(singleton_codec):
    f, pcm, params, g = singleton_codec
    received = list(_random_codeword(f, g, SplitMix64(34)))
    received[6] = None
    # also before a wrong length
    for word, r in itertools.product((received, received[:-1]), (0, -1)):
        with pytest.raises(ValueError, match="at least 1"):
            repair(f, pcm.rows, r, word)


def test_local_repair_is_checked_against_the_parity_checks(singleton_codec):
    f, pcm, params, g = singleton_codec
    # r = 2 splits n = 15 into groups of 3 that are not the code's blocks:
    # the repair is refused unless the wrong group happens to give the
    # right symbol, and never returns a wrong word
    refused = 0
    for seed in range(35, 45):
        word = _random_codeword(f, g, SplitMix64(seed))
        received = list(word)
        received[6] = None
        try:
            res = repair(f, pcm.rows, 2, received)
        except InconsistentWordError:
            refused += 1
        else:
            assert res.word == tuple(word)
    assert refused > 0
    # a corrupted symbol outside the repaired group is caught as well
    received = list(word)
    received[6] = None
    received[0] = f.add(received[0], 1)
    with pytest.raises(InconsistentWordError):
        repair(f, pcm.rows, params.r, received)


def test_repair_checks_a_complete_word_as_erasure_decode_does(singleton_codec):
    f, pcm, params, g = singleton_codec
    word = _random_codeword(f, g, SplitMix64(36))
    res = repair(f, pcm.rows, params.r, word)
    assert (res.word, res.method, res.symbols_read) == (tuple(word), "none", 0)
    bad = list(word)
    bad[3] = reference_add(f, bad[3], 1)
    with pytest.raises(InconsistentWordError) as decoded:
        erasure_decode(f, pcm.rows, bad)
    with pytest.raises(InconsistentWordError) as repaired:
        repair(f, pcm.rows, params.r, bad)
    assert str(repaired.value) == str(decoded.value) == "word is complete but fails the parity checks"


# (q, r, d, sets) of the three reference codes of conftest
REFERENCE_CODES = {
    "singleton": (13, 4, 5, SINGLETON_FAMILY),
    "odd_q_d6": (17, 5, 6, ODD_Q_D6_FAMILY),
    "adjusted": (13, 3, 5, ADJUSTED_FAMILY),
}


@functools.cache
def _reference_codec(name):
    q, r, d, sets = REFERENCE_CODES[name]
    pcm = build_parity_check(SetFamily(q, r, 2, sets), d)
    return pcm, generator_from_parity(pcm.field, pcm.rows)


def _outcome(decode, *args):
    try:
        return list(decode(*args))
    except InconsistentWordError:
        return InconsistentWordError


@pytest.mark.parametrize("name", sorted(REFERENCE_CODES))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_repair_agrees_with_erasure_decode_on_one_erasure_per_group(name, data):
    # at most one erasure per group, and maybe one present symbol altered:
    # the local path and the full parity system give the same word or both
    # find none
    pcm, g = _reference_codec(name)
    f, r = pcm.field, REFERENCE_CODES[name][1]
    msg = data.draw(st.lists(st.integers(0, f.q - 1), min_size=len(g), max_size=len(g)))
    received = list(encode(f, g, msg))
    for group in repair_groups(pcm.n, r):
        pos = data.draw(st.none() | st.sampled_from(group))
        if pos is not None:
            received[pos] = None
    alter = data.draw(st.none() | st.sampled_from([j for j, v in enumerate(received) if v is not None]))
    if alter is not None:
        received[alter] = data.draw(st.integers(0, f.q - 1).filter(lambda v: v != received[alter]))
    repaired = _outcome(lambda *a: repair(*a).word, f, pcm.rows, r, received)
    assert repaired == _outcome(erasure_decode, f, pcm.rows, received)
    assert (repaired is InconsistentWordError) == (alter is not None)


def test_projection_disjointness_on_small_subcode(adjusted_code):
    # locality in its sharpest form: for every position, codewords that
    # agree on the recovery group mates also agree at the position itself;
    # enumerated over a k=3 subcode (13^3 words)
    fam, pcm, params = adjusted_code
    f = pcm.field
    g = generator_from_parity(f, pcm.rows)[:3]
    groups = repair_groups(pcm.n, params.r)
    group_of = {pos: grp for grp in groups for pos in grp}
    seen: dict[tuple, int] = {}
    for msg in itertools.product(range(f.q), repeat=3):
        word = encode(f, g, list(msg))
        for pos in range(pcm.n):
            mates = tuple(word[j] for j in group_of[pos] if j != pos)
            key = (pos, mates)
            if key in seen:
                assert seen[key] == word[pos]
            else:
                seen[key] = word[pos]
