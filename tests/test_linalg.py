import functools
import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrckit import linalg
from lrckit.gf import GF
from lrckit.rng import SplitMix64

from conftest import minors_dependent, reference_rref


def _random_matrix(rng: SplitMix64, q: int, nrows: int, ncols: int) -> list[list[int]]:
    return [[rng.below(q) for _ in range(ncols)] for _ in range(nrows)]


def _minors_rank(rows, p):
    """Largest square minor with nonvanishing determinant mod p."""
    nr, nc = len(rows), len(rows[0])
    for size in range(min(nr, nc), 0, -1):
        for rsel in itertools.combinations(range(nr), size):
            for csel in itertools.combinations(range(nc), size):
                if not minors_dependent([rows[i] for i in rsel], csel, p):
                    return size
    return 0


@pytest.mark.parametrize("q", [2, 5, 13])
def test_rank_matches_minor_oracle(q):
    rng = SplitMix64(1001 + q)
    for _ in range(25):
        nr = 1 + rng.below(4)
        nc = 1 + rng.below(4)
        rows = _random_matrix(rng, q, nr, nc)
        assert linalg.rank(GF(q), rows) == _minors_rank(rows, q)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_rref_matches_scalar_reference(data):
    # the reduced echelon form is unique, so the array elimination must
    # reproduce the row-by-row scalar one entry for entry
    q = data.draw(st.sampled_from([2, 4, 5, 8, 9, 13, 16, 25, 27]))
    f = GF(q)
    nr = data.draw(st.integers(1, 4))
    nc = data.draw(st.integers(1, 8))
    entry = st.integers(0, q - 1) | st.just(0)
    rows = [data.draw(st.lists(entry, min_size=nc, max_size=nc)) for _ in range(nr)]
    for _ in range(data.draw(st.integers(0, 2))):  # up to 6 rows in all
        pick = data.draw(st.sampled_from(["zero", "repeat"]))
        at = data.draw(st.integers(0, len(rows)))
        new = [0] * nc if pick == "zero" else list(rows[data.draw(st.integers(0, len(rows) - 1))])
        rows.insert(at, new)
    got = linalg.rref(f, rows)
    assert got == reference_rref(f, rows)
    assert all(type(v) is int for row in got[0] for v in row)


def test_rref_shape_and_pivots():
    f = GF(7)
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    red, pivots = linalg.rref(f, rows)
    assert pivots == [0, 1]
    # pivot columns carry identity structure
    for rank_row, col in enumerate(pivots):
        assert red[rank_row][col] == 1
        for other in range(len(pivots)):
            if other != rank_row:
                assert red[other][col] == 0


@pytest.mark.parametrize("q", [13, 16, 27])
def test_nullspace_annihilates_and_completes(q):
    f = GF(q)
    rng = SplitMix64(77 + q)
    for _ in range(20):
        nr = 1 + rng.below(4)
        nc = nr + rng.below(4)
        rows = _random_matrix(rng, q, nr, nc)
        basis = linalg.nullspace_basis(f, rows)
        assert len(basis) == nc - linalg.rank(f, rows)
        for vec in basis:
            for row in rows:
                acc = 0
                for x, y in zip(row, vec):
                    acc = f.add(acc, f.mul(x, y))
                assert acc == 0
        # basis vectors are independent
        if basis:
            assert linalg.rank(f, basis) == len(basis)


@pytest.mark.parametrize("q", [13, 16, 27])
def test_solve_statuses(q):
    f = GF(q)
    rng = SplitMix64(500 + q)
    for _ in range(30):
        nr = 1 + rng.below(4)
        nc = 1 + rng.below(4)
        a = _random_matrix(rng, q, nr, nc)
        x = [rng.below(q) for _ in range(nc)]
        b = []
        for row in a:
            acc = 0
            for u, v in zip(row, x):
                acc = f.add(acc, f.mul(u, v))
            b.append(acc)
        status, sol = linalg.solve(f, a, b)
        assert status in ("unique", "many")
        assert sol is not None
        for row, target in zip(a, b):
            acc = 0
            for u, v in zip(row, sol):
                acc = f.add(acc, f.mul(u, v))
            assert acc == target
        if status == "unique":
            assert sol == x or linalg.rank(f, a) == nc


def test_solve_inconsistent():
    f = GF(5)
    status, sol = linalg.solve(f, [[1, 2], [2, 4]], [1, 3])
    assert status == "none" and sol is None


def test_solve_underdetermined_reports_many():
    f = GF(5)
    status, sol = linalg.solve(f, [[1, 2]], [3])
    assert status == "many"
    assert sol is not None and f.add(sol[0], f.mul(2, sol[1])) == 3


@pytest.mark.parametrize("q", [5, 13])
def test_smallest_dependent_subset_matches_oracle(q):
    rng = SplitMix64(9000 + q)
    f = GF(q)
    for _ in range(15):
        nr = 2 + rng.below(3)
        ncols = 4 + rng.below(5)
        cols = [tuple(rng.below(q) for _ in range(nr)) for _ in range(ncols)]
        rows = [[cols[j][i] for j in range(ncols)] for i in range(nr)]
        got = linalg.smallest_dependent_subset(f, cols, min(ncols, nr + 1))
        # oracle: first (size, then lex) dependent subset via sympy minors
        want = None
        for w in range(1, min(ncols, nr + 1) + 1):
            for idx in itertools.combinations(range(ncols), w):
                if minors_dependent(rows, idx, q):
                    want = idx
                    break
            if want:
                break
        assert got == want


def test_smallest_dependent_subset_chunk_invariance():
    f = GF(13)
    rng = SplitMix64(321)
    cols = [tuple(rng.below(13) for _ in range(5)) for _ in range(12)]
    a = linalg.smallest_dependent_subset(f, cols, 6, chunk=7)
    b = linalg.smallest_dependent_subset(f, cols, 6, chunk=16384)
    c = linalg.smallest_dependent_subset(f, cols, 6, chunk=1)
    assert a == b == c


def test_wide_subsets_short_circuit():
    # any nrows+1 columns are dependent without any elimination
    f = GF(7)
    cols = [(1,), (2,), (3,)]
    assert linalg.smallest_dependent_subset(f, cols, 2) == (0, 1)


def test_independent_columns_return_none():
    f = GF(7)
    cols = [(1, 0), (0, 1)]
    assert linalg.smallest_dependent_subset(f, cols, 2) is None


def test_budget_guard():
    f = GF(13)
    cols = [tuple((i + j) % 13 for j in range(10)) for i in range(40)]
    assert linalg.subset_search_cost(40, 5) == sum(
        len(list(itertools.combinations(range(40), w))) for w in range(1, 6)
    )
    with pytest.raises(ValueError):
        linalg.smallest_dependent_subset(f, cols, 5, budget=1000)


@pytest.mark.parametrize("q", [13, 16, 27])
def test_vectorized_field_matches_scalar(q):
    f = GF(q)
    rng = SplitMix64(42 + q)
    a = np.array([rng.below(q) for _ in range(300)])
    b = np.array([rng.below(q) for _ in range(300)])
    assert np.array_equal(f.mul_array(a, b), np.array([f.mul(int(x), int(y)) for x, y in zip(a, b)]))
    assert np.array_equal(f.sub_array(a, b), np.array([f.sub(int(x), int(y)) for x, y in zip(a, b)]))
    nz = a[a != 0]
    assert np.array_equal(f.inv_table[nz], np.array([f.inv(int(x)) for x in nz]))
    rows = a.reshape(30, 10)
    sums = [functools.reduce(f.add, (int(x) for x in row), 0) for row in rows]
    assert np.array_equal(f.sum_array(rows, axis=1), np.array(sums))


def test_vectorized_tables_live_and_die_with_their_field():
    # tables are built once per field object and die with it, so a later
    # field never reads an earlier one's and counts of GF calls repeat
    f = GF(13)
    table = f.inv_table
    assert f.inv_table is table
    gone = weakref.ref(f)
    table_gone = weakref.ref(table)
    del f, table
    gc.collect()
    assert gone() is None
    assert table_gone() is None


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_rank_of_product_bounded(data):
    q = data.draw(st.sampled_from([5, 13, 16]))
    f = GF(q)
    nr = data.draw(st.integers(1, 4))
    nc = data.draw(st.integers(1, 4))
    rows = [[data.draw(st.integers(0, q - 1)) for _ in range(nc)] for _ in range(nr)]
    rk = linalg.rank(f, rows)
    assert 0 <= rk <= min(nr, nc)
    # appending a linear combination of rows never raises the rank
    coeffs = [data.draw(st.integers(0, q - 1)) for _ in range(nr)]
    combo = [0] * nc
    for cf, row in zip(coeffs, rows):
        for j in range(nc):
            combo[j] = f.add(combo[j], f.mul(cf, row[j]))
    assert linalg.rank(f, rows + [combo]) == rk
