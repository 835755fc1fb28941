import functools
import hashlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, Symbol, factorint, nextprime, primefactors

from lrckit.gf import GF, MAX_ORDER, lowest_irreducible, prime_power
from lrckit.lrc import ParityCheckMatrix
from lrckit.rng import SplitMix64

from conftest import reference_add, reference_mul, reference_pow

PRIME_POWERS_TO_64 = [
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27,
    29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64,
]


@pytest.mark.parametrize(
    "q,expected",
    [
        (2, (2, 1)),
        (16, (2, 4)),
        (27, (3, 3)),
        (25, (5, 2)),
        (49, (7, 2)),
        (4999, (4999, 1)),
        (1, None),
        (12, None),
        (100, None),  # 2^2 * 5^2: two primes
        (0, None),
    ],
)
def test_prime_power_detection(q, expected):
    assert prime_power(q) == expected


@pytest.mark.parametrize("q", [0, 1, 6, 12, 100, MAX_ORDER + 1, 1 << 17])
def test_rejects_bad_orders(q):
    with pytest.raises(ValueError):
        GF(q)


def test_order_is_range_checked_before_it_is_factored():
    # q is prime, so trial division would take 10**7 steps to find that it
    # is a prime power before refusing it
    q = nextprime(10**14)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the supported maximum"):
        GF(q)
    assert time.perf_counter() - start < 0.1


def _tables(f: GF) -> tuple[np.ndarray, np.ndarray]:
    q = f.q
    add = np.array([[f.add(a, b) for b in range(q)] for a in range(q)], dtype=np.int64)
    mul = np.array([[f.mul(a, b) for b in range(q)] for a in range(q)], dtype=np.int64)
    return add, mul


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
def test_field_axioms_exhaustive(q):
    """Every field axiom on every element combination, via table lookups."""
    f = GF(q)
    add, mul = _tables(f)
    idx = np.arange(q)

    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    assert np.array_equal(add[0], idx)
    assert np.array_equal(mul[1], idx)
    assert np.array_equal(mul[0], np.zeros(q, dtype=np.int64))

    a = idx[:, None, None]
    b = idx[None, :, None]
    c = idx[None, None, :]
    assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
    assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])

    # additive inverses: each row of the addition table hits 0 exactly once
    assert np.array_equal((add == 0).sum(axis=1), np.ones(q, dtype=np.int64))
    # every nonzero element has a multiplicative inverse
    assert np.array_equal((mul[1:] == 1).sum(axis=1), np.ones(q - 1, dtype=np.int64))
    # no zero divisors
    assert not (mul[1:, 1:] == 0).any()
    # neg and inv agree with the tables
    for x in range(q):
        assert add[x, f.neg(x)] == 0
        if x:
            assert mul[x, f.inv(x)] == 1


def test_frozen_gf13_examples():
    f = GF(13)
    assert f.add(6, 7) == 0
    assert f.mul(5, 8) == 1
    assert f.inv(5) == 8
    for a in range(1, 13):
        assert f.pow(a, 12) == 1


def test_lowest_irreducible_moduli():
    # coefficient tuples ascend from the constant term
    assert GF(8).modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert GF(9).modulus == (1, 0, 1)  # x^2 + 1
    assert GF(4).modulus == (1, 1, 1)  # x^2 + x + 1
    assert GF(13).modulus is None
    assert lowest_irreducible(2, 3) == (1, 1, 0, 1)


def test_gf4_multiplication_table():
    # the canonical GF(4) table under x^2 + x + 1
    f = GF(4)
    expected = [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
    ]
    assert [[f.mul(a, b) for b in range(4)] for a in range(4)] == expected


@pytest.mark.parametrize("q", [8, 9, 27, 49, 64])
def test_log_exp_tables(q):
    f = GF(q)
    g = int(f.exp_table[1])  # a numpy integer; the scalar ops take Python ints
    seen = set()
    x = 1
    for i in range(q - 1):
        assert f.exp_table[i] == x
        assert f.log_table[x] == i
        seen.add(x)
        x = f.mul(x, g)
    assert x == 1  # generator order is exactly q-1
    assert seen == set(range(1, q))


@pytest.mark.parametrize("q", [13, 27, 64])
def test_pow_edges(q):
    f = GF(q)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    for x in range(1, q):
        assert f.pow(x, -1) == f.inv(x)
        assert f.pow(x, -3) == f.inv(f.pow(x, 3))
        assert f.pow(x, q - 1) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -2)


@pytest.mark.parametrize("q", [13, 31])
def test_prime_field_is_integers_mod_q(q):
    f = GF(q)
    for a in range(q):
        for b in range(q):
            assert f.add(a, b) == (a + b) % q
            assert f.mul(a, b) == (a * b) % q
            assert f.sub(a, b) == (a - b) % q


def test_elements_and_validate():
    f = GF(9)
    with pytest.raises(ValueError):
        f.validate(9)
    with pytest.raises(ValueError):
        f.validate(-1)


def test_fields_are_equal_by_order():
    # an order has one modulus, so two fields of it are one field, and a
    # matrix's field order is part of its value
    for q in (2, 13, 16, 27, 4999):
        f, g = GF(q), GF(q)
        assert f is not g and f == g and hash(f) == hash(g) and f != q
    assert GF(13) != GF(16)
    rows = ((1, 1, 0, 0), (0, 0, 1, 1), (2, 3, 4, 5))
    assert ParityCheckMatrix(rows, GF(13)) != ParityCheckMatrix(rows, GF(16))


_FIELDS = {q: GF(q) for q in (13, 16, 27, 49, 4096, 3125)}


@given(
    q=st.sampled_from(sorted(_FIELDS)),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_random_triples_satisfy_axioms(q, data):
    f = _FIELDS[q]
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.sub(f.add(a, b), b) == a
    if b:
        assert f.mul(f.mul(a, b), f.inv(b)) == a
    assert f.mul(a, f.pow(a, 2)) == f.pow(a, 3)


# ------------------------------------------------ oracle and pinned tables

ALL_PAIRS_QS = [4, 8, 9, 13, 16, 25, 27, 49]
SAMPLED_QS = [243, 256, 4096, 59049, 65521, 65536]


def _elements(q: int, count: int) -> list[int]:
    """Every element for small q, else 0, 1, q - 1 and a seeded sample."""
    if q in ALL_PAIRS_QS:
        return list(range(q))
    rng = SplitMix64(q)
    return [0, 1, q - 1] + [rng.below(q) for _ in range(count)]


@pytest.mark.parametrize("q", ALL_PAIRS_QS + SAMPLED_QS)
def test_products_match_the_schoolbook_oracle(q):
    f = GF(q)
    if q in ALL_PAIRS_QS:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        pairs = list(zip(_elements(q, 400), reversed(_elements(q, 400))))
    want = [reference_mul(f, a, b) for a, b in pairs]
    a, b = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    assert f.mul_array(a, b).tolist() == want
    got = [f.mul(x, y) for x, y in pairs]
    assert got == want and all(type(v) is int for v in got)


@pytest.mark.parametrize("q", ALL_PAIRS_QS + SAMPLED_QS)
def test_inverses_match_the_schoolbook_oracle(q):
    f = GF(q)
    xs = [x for x in _elements(q, 200) if x]
    assert f.inv_table[0] == 0
    assert all(reference_mul(f, x, int(f.inv_table[x])) == 1 for x in xs)
    got = [f.inv(x) for x in xs]
    assert all(reference_mul(f, x, y) == 1 for x, y in zip(xs, got))
    assert all(type(v) is int for v in got)


@pytest.mark.parametrize("q", ALL_PAIRS_QS + SAMPLED_QS)
def test_powers_match_the_schoolbook_oracle(q):
    f = GF(q)
    xs = _elements(q, 40)
    arr = np.array(xs, dtype=np.int64)
    for n in (0, 1, 2, q - 2, q - 1, 3 * q):
        want = [reference_pow(f, x, n) for x in xs]
        assert f.pow_array(arr, n).tolist() == want
        got = [f.pow(x, n) for x in xs]
        assert got == want and all(type(v) is int for v in got)
    for n in (-1, -2, -(q - 1), -3 * q):
        for x in xs:
            if x:
                assert reference_mul(f, f.pow(x, n), reference_pow(f, x, -n)) == 1
    with pytest.raises(ValueError):
        f.pow_array(arr, -1)


@pytest.mark.parametrize("q", [2, 4, 13, 16, 25, 27, 49, 81, 243, 256, 3**10, 2**16])
def test_vectorized_field_matches_scalar(q):
    # the scalar ops call the array ops, so both are checked against the
    # table-free oracles: a difference plus its subtrahend, and a negation
    # plus its operand, must give back the operand under `reference_add`
    f = GF(q)
    add = np.vectorize(lambda x, y: reference_add(f, int(x), int(y)), otypes=[np.int64])
    rng = SplitMix64(42 + q)
    a = np.array([rng.below(q) for _ in range(120)]).reshape(4, 5, 6)
    b = np.array([rng.below(q) for _ in range(120)]).reshape(4, 5, 6)
    c = rng.below(q)
    assert np.array_equal(
        f.mul_array(a, b), np.vectorize(lambda x, y: reference_mul(f, int(x), int(y)))(a, b)
    )
    for x, y in ((a, b), (a, c), (c, b), (a, a[:, :1]), (b[0], a)):
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        assert np.array_equal(add(f.sub_array(x, y), y), np.broadcast_to(x, shape))
    assert not add(a, f.sub_array(0, a)).any()
    for axis in (0, 1, 2, -1):
        want = np.apply_along_axis(lambda v: functools.reduce(add, v, 0), axis, a)
        assert np.array_equal(f.sum_array(a, axis=axis), want)
    for x, y in zip(a.ravel().tolist()[:40], b.ravel().tolist()):
        s, d, n = f.add(x, y), f.sub(x, y), f.neg(x)
        assert s == reference_add(f, x, y) and reference_add(f, d, y) == x
        assert reference_add(f, x, n) == 0 and f.sub(0, x) == n
        assert all(type(v) is int for v in (s, d, n))
    nz = a[a != 0]
    assert all(reference_mul(f, int(x), int(y)) == 1 for x, y in zip(nz, f.inv_table[nz]))


DOT_QS = [2, 4, 13, 16, 25, 27, 243, 4999, 59049, 65536]


def _reference_dot(f: GF, xs, ys) -> int:
    """The field sum of the products of two equal-length sequences, through
    the table-free oracles alone."""
    products = (reference_mul(f, int(x), int(y)) for x, y in zip(xs, ys))
    return functools.reduce(lambda a, b: reference_add(f, a, b), products, 0)


def _operands(q: int, shape: tuple[int, ...], rng: SplitMix64) -> np.ndarray:
    # seeded elements with about a third of them 0, and 1 and q - 1 present
    flat = [rng.below(q) if rng.below(3) else 0 for _ in range(int(np.prod(shape)))]
    flat[:2] = [1, q - 1][: len(flat)]
    return np.array(flat, dtype=np.int64).reshape(shape)


@pytest.mark.parametrize("q", DOT_QS)
def test_sentinel_products_match_the_schoolbook_oracle(q):
    # the extension-field product is one add between two lookups, with log 0
    # pointing at zeros: every pair of a sample with 0 on either side or
    # both, in the shapes of the walk's rank-one update
    f = GF(q)
    rng = SplitMix64(7 + q)
    xs = _operands(q, (24,), rng)
    ys = _operands(q, (24,), rng)
    want = [[reference_mul(f, int(x), int(y)) for y in ys] for x in xs]
    assert f.mul_array(xs[:, None], ys[None, :]).tolist() == want
    assert f.mul_array(xs[:, None, None], ys[None, None, :]).reshape(24, 24).tolist() == want
    assert f.mul_array(xs, ys).tolist() == [want[i][i] for i in range(24)]
    assert f.mul_array(0, 0) == 0 and f.mul_array(xs, 0).tolist() == [0] * 24
    if f.e > 1:
        assert f.log_table[0] == -1 and len(f._exp) == 4 * (q - 1) + 1


@pytest.mark.parametrize("q", DOT_QS)
def test_dot_array_matches_the_reduced_products(q):
    # the shapes of its callers: the scan's N v over a batch of nodes
    # (nodes, rows, rows) by (nodes, 1, rows) along the last axis, encode's
    # (k, 1) message by a (k, n) generator along axis 0, and syndrome's
    # (rows, n) H by a (1, n) word along axis 1; then operands of fewer
    # dimensions, a negative axis and an empty sum
    f = GF(q)
    rng = SplitMix64(11 + q)
    cases = [
        (_operands(q, (6, 4, 5), rng), _operands(q, (6, 1, 5), rng), 2),
        (_operands(q, (9, 1), rng), _operands(q, (9, 7), rng), 0),
        (_operands(q, (4, 40), rng), _operands(q, (1, 40), rng), 1),
        (_operands(q, (3, 8), rng), _operands(q, (8,), rng), -1),
        (_operands(q, (8,), rng), _operands(q, (8, 3), rng).T, 1),
        (_operands(q, (5, 0), rng), _operands(q, (1, 0), rng), 1),
    ]
    for x, y, axis in cases:
        bx, by = (np.moveaxis(a, axis, -1) for a in np.broadcast_arrays(x, y))
        want = [_reference_dot(f, bx[i], by[i]) for i in np.ndindex(bx.shape[:-1])]
        got = f.dot_array(x, y, axis=axis)
        assert got.shape == bx.shape[:-1] and got.ravel().tolist() == want
        assert np.array_equal(f.sum_array(f.mul_array(x, y), axis=axis), got)
    for axis in (2, -3):
        with pytest.raises(ValueError):
            f.dot_array(cases[1][0], cases[1][1], axis=axis)


@pytest.mark.parametrize("q", [q for q in DOT_QS if prime_power(q)[1] > 1])
def test_dot_array_is_exact_past_the_packing_headroom(q):
    # every digit of q - 1 is p - 1, so each product 1 (q - 1) fills its
    # packed fields the most a term can: sums of up to _stretch terms fit,
    # and longer ones must be split into stretches (at GF(3**10), whose ten
    # digits share three 12-bit chunks, three terms fill a field, so 31, 32
    # and 450 terms take several rounds)
    f = GF(q)
    edge = f._stretch
    lengths = {1, edge - 1, edge, edge + 1, 2 * edge + 1, edge * edge + 1, 31, 32, 450}
    for n in sorted(lengths):
        ones, full = np.ones(n, dtype=np.int64), np.full(n, q - 1, dtype=np.int64)
        want = _reference_dot(f, ones, full)
        assert f.dot_array(ones, full, axis=0) == want
        assert f.dot_array(full[:, None], ones[:, None], axis=0).tolist() == [want]
        assert f.sum_array(np.stack([full, ones]), axis=1).tolist() == [want, n % f.p]


_EXTENSION_ORDERS = [q for q in range(4, 1025) if prime_power(q) and prime_power(q)[1] > 1]


@pytest.mark.parametrize("q", _EXTENSION_ORDERS + [6561, 15625, 59049, 65536])
def test_modulus_is_the_least_monic_irreducible(q):
    # candidates in the order lowest_irreducible scans them, each judged by
    # sympy: every one before the modulus factors, the modulus does not
    p, e = prime_power(q)
    x = Symbol("x")
    for enc in range(1, p**e):
        coeffs = tuple(enc // p**i % p for i in range(e)) + (1,)
        if Poly(list(reversed(coeffs)), x, modulus=p).is_irreducible:
            break
    assert GF(q).modulus == coeffs


def test_prime_power_matches_sympy_factorint():
    for q in range(5001):
        factors = factorint(q) if q >= 2 else {}
        want = next(iter(factors.items())) if len(factors) == 1 else None
        assert prime_power(q) == want


# SHA-256 of exp_table and log_table as little-endian int64, recorded
# before the tables were built with numpy
TABLE_DIGESTS = {
    4: (
        "e2e2033ae7e19d680599d4eb0a1359a2b48ec5baac75066c317fbf85159c54ef",
        "615fd22e79bc96d13bbf982925d8a898e9692c709381bec3f829fa756003d584",
    ),
    8: (
        "4ec17844028f97bfa5da896681e0769fdea1646491bb7120301326ba8966a0a3",
        "ac81c9690c4b74cee60c6973abce94c15415faf214dab4b6851a3aebf4f01231",
    ),
    9: (
        "107beef16789fe215c9f675861dd58705f81b786978eb9af1837c6e3dfbc5f03",
        "da0d10ec35bfa438f1c31b2103f459f64668df2212f7cb66e77741880d668caa",
    ),
    16: (
        "1b3553e94660d3aaa951959df5449388084822f376745a532b63c1b24afaca97",
        "42d49f76ddc31ea1aa8d62f705255e3831f8bc9ca3f136290f846d05aedb727b",
    ),
    25: (
        "f819a08972b8bf0fe65072e895b3c905d6ffe44d290b58e9bb0e3a361657ac98",
        "2f7a9b64e2043c96f5694c1dac63ac96290219917001dff8a4a9c0d5ffdef496",
    ),
    27: (
        "94de5a129fc907c93762dd467cfb55db24508ee0f358d4d87bfd8848eca59fd7",
        "fb6876db2436427bde6ccda079cbd7ef733b15bbfc33350be11f94d42783659e",
    ),
    32: (
        "baa8a706cb55e34dce386f0461ddc1b0d317d8621e2f77b7b983ac8b91d89da2",
        "54abc48e89106bd46458aba658c007f0ee99abc0664bbbfeaf266a2ef5764ab0",
    ),
    49: (
        "bfbb44080945d046e687f01a1b53c22bb1df14ae512b1df6db12b94316185d14",
        "52ed0f2bed0ca63ac984b8ca3cf9b4609e80d69c9ff89c6ad71bf5bf8dc906af",
    ),
    64: (
        "4d6341833dc63b26d1be065c71ec84df57256c8cec80f79d35c7207b3ed060de",
        "75d71f58bb351309c344ba02d105af57fd7404d7f52050efcea7bf4fda757e1e",
    ),
    81: (
        "6d1eb4f77b46bca3fa4387db5ea3dcb2db3c626d30d0a4bbd0b26b6bc33f9f78",
        "5c326d7cfbd598f9132e784b013d0f608514b5b49dc37a37db5b5936d4ae67ba",
    ),
    125: (
        "3cd23adf3501f4d1b4477466dd25378cd6e4fdcdd2d3faa09a5348af418b20ac",
        "802cf8eb5878616383ba0b8cf3600ffa938358a0953ed708478f62e29a334f1e",
    ),
    128: (
        "d9a58fef65a6c2c7a1fca8b9a2480fe91aae7a7e3d2c7048948f662026cbd50e",
        "d500c03f2dd7e7445d085f8eb46bed2148da436f9d98cb607da63c40d1dbf025",
    ),
    243: (
        "e9772cc891777b15aaa2dd3b11f123390b52f4b2636ab922c1932e746d734969",
        "cab20ffd837c5c15519cce2271b9689bab709284658b3583a23dc5bfd7b5eb27",
    ),
    256: (
        "11266a21c8268fe0d18220349a334db46275acf77c028eb418cf6317b305acc7",
        "e6c4386b08504dc699c5cf71ad8668c6513706a4a9b79da086330a5fcb3ad933",
    ),
    343: (
        "e923d9e59b71b72d7ef6399ef96787677b56d6d1b1a6633d0a5dc799ba8f9de6",
        "c42e4d213de2373311b1da73f77dccc0cca090fbfcf2bd5e7c40f4e944a36c76",
    ),
    512: (
        "623a19066c1161fcb8ec0f640d97f583f71846bb1ddbdda7bf6c227d298c8a66",
        "886b3a7194847fc0291527423961fd7bf7c26d95e9f4afabd00073edf3abb27a",
    ),
    729: (
        "c35f0745b29d40992ae4c7e683072abc739cacd8d161601591a0990dffdfe563",
        "6ed6e4668c916b0619bb8d4e7791f3b82e34190b34461073bb04f14b775afd2f",
    ),
    4096: (
        "f93111f2d5d03cbd58220f842d679e036230e6d30c67a053250bb339045d0897",
        "b164465f4d3f97aeff39a8bc47ed5f8928a8cd3e7644927a84336375a381b48c",
    ),
    6561: (
        "4e359a3635e51df963e4a1c58a174265e6517b516ff864ea49b4a80982c8fc99",
        "6caf14f320100484844c8e456e71b706806938decad90a0ee4a3f8ffe1706a1f",
    ),
    59049: (
        "05e6eecc9abe2e8fc95256f41a756ad049ea391b26cc74fa08e316ceeca86baa",
        "453cc6d71240e529d2c0522b418b46a56de11959e9aa682cdbb157002efd2734",
    ),
    65536: (
        "a9c0b9735a82fc72c5287527e2930d5f0603c0dae1bd9c70ade1fc1578a1d84d",
        "0f41fdce3eabda40cf3cdda317cab701f03874f59156f192b0f1e8830e7a11e7",
    ),
}


def _digest(table) -> str:
    return hashlib.sha256(np.asarray(table, dtype="<i8").tobytes()).hexdigest()


@pytest.mark.parametrize("q", sorted(TABLE_DIGESTS))
def test_tables_are_pinned(q):
    f = GF(q)
    assert (_digest(f.exp_table), _digest(f.log_table)) == TABLE_DIGESTS[q]
    assert f.log_table[0] == -1

    # exp_table[1] is the generator: the least element >= 2 whose powers
    # q-1 over a prime factor of q-1 are all different from 1
    def primitive(g: int) -> bool:
        return all(reference_pow(f, g, (q - 1) // ell) != 1 for ell in primefactors(q - 1))

    gen = int(f.exp_table[1])
    assert primitive(gen) and not any(primitive(c) for c in range(2, gen))
