import functools
import gc
import inspect
import itertools
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrckit import linalg
from lrckit.gf import GF
from lrckit.lrc import (
    DEFAULT_SUBSET_BUDGET,
    ParityCheckMatrix,
    build_parity_check,
    code_params_from_family,
    min_distance_witness,
    verify_distance_at_least,
)
from lrckit.rng import SplitMix64
from lrckit.setfam import SetFamily, greedy_family, random_family

from conftest import (
    SINGLETON_FAMILY,
    minors_dependent,
    minors_min_distance,
    reference_block_scan,
    reference_rref,
    reference_smallest_dependent_subset,
)


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


def _block_rows(m: int, width: int) -> list[list[int]]:
    return [[int(j // width == i) for j in range(m * width)] for i in range(m)]


def _columns(rows):
    return [tuple(row[j] for row in rows) for j in range(len(rows[0]))]


def test_smallest_dependent_subset_chunk_invariance(monkeypatch):
    rng = SplitMix64(321)
    plain = [tuple(rng.below(13) for _ in range(5)) for _ in range(12)]
    # 5 blocks of 3 on the powers 1..3 of 15 distinct elements of GF(16),
    # the last column repeating the powers of the one before: (13, 14) is
    # the only dependent pair and the last of the 15 candidate pairs
    g = GF(16)
    powers = [[g.pow(x, e) for x in range(1, 15)] + [g.pow(14, e)] for e in (1, 2, 3)]
    block = _columns(_block_rows(5, 3) + powers)
    for f, cols, max_size in ((GF(13), plain, 6), (g, block, 4)):
        found = []
        for chunk in (7, 16384, 1):
            monkeypatch.setattr(linalg, "_CHUNK", chunk)
            found.append(linalg.smallest_dependent_subset(f, cols, max_size))
        a, b, c = found
        assert a == b == c == reference_smallest_dependent_subset(f, cols, max_size)
    assert a == (13, 14)


def _counts_up_to(n, blocks, top):
    return [1, *itertools.islice(linalg._support_counts(n, blocks), top)]


def _block_respecting(n, width, w):
    # every w-subset of [0, n) that meets each block of `width` columns in 0 or >= 2
    return [
        c for c in itertools.combinations(range(n), w)
        if all(sum(1 for x in c if x // width == b) != 1 for b in range(n // width))
    ]


def test_support_counts_match_a_filter_of_combinations():
    for m in range(1, 6):
        for width in range(2, 7):
            n = m * width
            got = _counts_up_to(n, m, n)
            # each block holds 0 or 2..width of the chosen columns
            want = [0] * (n + 1)
            for sizes in itertools.product([0, *range(2, width + 1)], repeat=m):
                want[sum(sizes)] += math.prod(math.comb(width, s) for s in sizes)
            assert got == want
            if n <= 14:
                assert got == [len(_block_respecting(n, width, w)) for w in range(n + 1)]
    for n in range(1, 13):
        assert _counts_up_to(n, 0, n) == [math.comb(n, w) for w in range(n + 1)]


def _walked_leaves(n, blocks, w):
    # every leaf of the size-w prefix tree, batch by batch; each picked
    # column (with its offset from its block's first pick) gets a unit vector
    # of its own, so no support is dependent and the walk runs to its end
    _, width, least = linalg._groups(n, blocks)
    ends = linalg._reachable(n, blocks, w)
    diffs = np.eye(n * width, dtype=np.int64).reshape(n, width, n * width)
    got = []
    for picks, dep in linalg._leaves(GF(2), diffs, ends, width, least):
        # a batch holds at most _CHUNK leaves, or the children of one node
        assert len(picks) <= max(linalg._CHUNK, n) and not dep.any()
        got += [tuple(s) for s in picks.tolist()]
    return got


@pytest.mark.parametrize("m,width", [(1, 4), (2, 2), (2, 5), (3, 1), (3, 3), (4, 2)])
def test_support_generator_yields_the_filtered_combinations_in_order(monkeypatch, m, width):
    monkeypatch.setattr(linalg, "_CHUNK", 7)
    n = m * width
    counts = _counts_up_to(n, m, n)
    for w in range(1, n + 1):
        got = _walked_leaves(n, m, w)
        assert len(got) == counts[w]
        assert got == _block_respecting(n, width, w)


def test_leaf_walk_without_block_rows_yields_every_combination_in_order(monkeypatch):
    monkeypatch.setattr(linalg, "_CHUNK", 7)
    for n in range(1, 8):
        for w in range(1, n + 1):
            assert _walked_leaves(n, 0, w) == list(itertools.combinations(range(n), w))


@pytest.mark.parametrize("chunk", [1, 7])
def test_leaf_walk_makes_each_prefix_once(monkeypatch, chunk):
    # a walk with no dependent support makes one node per distinct prefix
    # of its supports, leaves included, however small its batches
    monkeypatch.setattr(linalg, "_CHUNK", chunk)
    made = []
    children = linalg._children

    def counted(*args):
        out = children(*args)
        made.append(len(out[1]))
        return out

    monkeypatch.setattr(linalg, "_children", counted)
    for m, width in [(0, 7), (2, 3), (2, 5), (3, 3), (4, 2)]:
        n = m * width if m else width
        for w in range(1, n + 1):
            supports = _block_respecting(n, width, w) if m else list(itertools.combinations(range(n), w))
            made.clear()
            _walked_leaves(n, m, w)
            assert sum(made) == len({s[:k] for s in supports for k in range(1, w + 1)})


def test_scan_stops_at_the_least_witness_with_nodes_still_waiting(monkeypatch):
    # with _CHUNK = 1 a step expands one node, so when the witness's batch
    # comes its parent's later siblings and nodes at every shallower depth
    # are still waiting: the walk must have yielded every earlier candidate
    # of the witness's size in order, none of them dependent, and stop there.
    # A Vandermonde block matrix is answered below p + 2 by its shortest
    # cycles, with no walk, so the block case has one power entry altered
    monkeypatch.setattr(linalg, "_CHUNK", 1)
    # Vandermonde columns over GF(101), any four independent, but column 6
    # is 1 * column 1 + 2 * column 3 + 3 * column 5
    f = GF(101)
    plain = [[pow(x, e, 101) for e in range(4)] for x in range(1, 9)]
    plain[6] = [(a + 2 * b + 3 * c) % 101 for a, b, c in zip(plain[1], plain[3], plain[5])]
    g = GF(16)
    powers = [[g.pow(x, e) for x in range(1, 15)] + [g.pow(14, e)] for e in (1, 2, 3)]
    altered = _columns(_block_rows(5, 3) + powers[:2] + [[7] + powers[2][1:]])
    walk = linalg._leaves
    for field, cols, witness, blocks, width in ((f, plain, (1, 3, 5, 6), 0, 8), (g, altered, (13, 14), 5, 3)):
        batches = []

        def recorded(*args):
            for picks, dep in walk(*args):
                batches.append((picks.tolist(), dep.tolist()))
                yield picks, dep

        monkeypatch.setattr(linalg, "_leaves", recorded)
        got = linalg.smallest_dependent_subset(field, cols, len(witness))
        assert got == witness == reference_smallest_dependent_subset(field, cols, len(witness))
        assert reference_block_scan(field, cols, len(witness)) == witness
        w = len(witness)
        walked = [tuple(p) for picks, _ in batches for p in picks if len(p) == w]
        want = _block_respecting(len(cols), width, w) if blocks else list(itertools.combinations(range(len(cols)), w))
        assert walked == want[: len(walked)]
        assert walked.index(witness) >= len(walked) - len(batches[-1][0])
        assert not any(any(dep) for _, dep in batches[:-1]) and any(batches[-1][1])


SCAN_QS = [2, 4, 8, 9, 13, 16, 25, 27, 101, 65536]


@functools.lru_cache(maxsize=None)
def _field(q):
    return GF(q)


def _draw_scan_matrix(data, f):
    """One of: the parity-check matrix of a random family (violating ones
    included), block-indicator rows stacked on up to four arbitrary rows, or
    arbitrary rows alone; the last two with zero entries and repeated
    columns."""
    q = f.q
    entry = st.integers(0, q - 1) | st.just(0)
    shape = data.draw(st.sampled_from(["code", "stacked", "plain"]))
    if shape == "code":
        r = data.draw(st.integers(1, min(4, q - 1)))
        d = data.draw(st.integers(5, 7))
        sets = data.draw(
            st.lists(st.lists(st.integers(0, q - 1), min_size=r + 1, max_size=r + 1, unique=True),
                     min_size=1, max_size=3)
        )
        return [list(row) for row in build_parity_check(SetFamily(q, r, (d - 1) // 2, sets), d, f).rows]
    if shape == "stacked":
        m, width = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        top, n = _block_rows(m, width), m * width
    else:
        top, n = [], data.draw(st.integers(1, 8))
    # block rows may stand alone: then every tested column is dependent
    nbelow = data.draw(st.integers(0 if top else 1, 4))
    below = [data.draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(nbelow)]
    for _ in range(data.draw(st.integers(0, 2))):
        # repeat a column's entries below the block rows, so block rows still tile
        src, dst = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        for row in below:
            row[dst] = row[src]
    return top + below


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_block_scan_matches_the_subset_loop(data):
    # the prefix walk against three slower routes: the block-aware scan it
    # replaced, the loop over every subset and, for prime q <= 13 and up to
    # 8 columns, sympy minors
    q = data.draw(st.sampled_from(SCAN_QS))
    f = _field(q)
    rows = _draw_scan_matrix(data, f)
    cols = _columns(rows)
    # the oracles scan sizes in ascending order, so one run up to the
    # largest max_size answers every smaller one
    top = len(rows) + 2
    want = reference_smallest_dependent_subset(f, cols, top)
    assert reference_block_scan(f, cols, top) == want
    if f.e == 1 and q <= 13 and len(cols) <= 8:
        minors = minors_min_distance(rows, len(cols), q, min(top, len(cols)))
        assert want == (None if minors is None else minors[1])
    chunk = data.draw(st.sampled_from([1, 7, linalg._CHUNK]))
    # one scan state, asked every max_size in a drawn order, answers as a
    # fresh scan does
    order = data.draw(st.permutations(range(1, top + 1)))
    state = linalg._ScanState(f, rows)
    with mock.patch.object(linalg, "_CHUNK", chunk):
        for max_size in order:
            expect = want if want is not None and len(want) <= max_size else None
            assert linalg.smallest_dependent_subset(f, cols, max_size) == expect
            assert linalg.smallest_dependent_subset(f, state.columns, max_size, state=state) == expect


@pytest.mark.parametrize("q", [5, 7, 13])
def test_block_scan_matches_minor_oracle(q):
    rng = SplitMix64(7100 + q)
    f = GF(q)
    for _ in range(8):
        m, width = 1 + rng.below(3), 2 + rng.below(2)
        n = m * width
        rows = _block_rows(m, width) + _random_matrix(rng, q, 1 + rng.below(3), n)
        cap = min(n, len(rows) + 1)
        oracle = minors_min_distance(rows, n, q, cap)
        got = linalg.smallest_dependent_subset(f, _columns(rows), cap)
        assert got == (None if oracle is None else oracle[1])


def _vandermonde_block_rows(f, x, m, p):
    """m block rows above the powers 1..p of the values x, entry by entry."""
    return _block_rows(m, len(x) // m) + [f.pow_array(np.array(x), e).tolist() for e in range(1, p + 1)]


def _assert_the_scan_matches_the_walk_and_the_oracles(f, rows, structured):
    # at every max_size, the scan of `rows` must find the least witness the
    # unpruned oracles find, and so must the walk on `rows` with a zero row
    # appended, which keeps every column dependency but fails the power
    # check (unless every value is 0: then it is one more power row).  A
    # matrix with the structure is answered up to size p + 1 with no walk
    state = linalg._ScanState(f, rows)
    assert (state.values is not None) == structured
    cols, top, n = _columns(rows), len(rows) + 1, len(rows[0])
    zero = linalg._ScanState(f, rows + [[0] * n])
    walk = zero.values is None
    assert walk or not any(rows[state.blocks])
    least = reference_smallest_dependent_subset(f, cols, top)
    assert reference_block_scan(f, cols, top) == least
    if f.e == 1 and f.q <= 13 and n <= 8:
        oracle = minors_min_distance(rows, n, f.q, min(n, top))
        assert least == (None if oracle is None else oracle[1])
    short = len(rows) - state.blocks + 1
    for max_size in range(top + 1):
        expect = least if least is not None and len(least) <= max_size else None
        with mock.patch.object(linalg, "_leaves", wraps=linalg._leaves) as leaves:
            assert linalg.smallest_dependent_subset(f, cols, max_size) == expect
            assert linalg.smallest_dependent_subset(f, state.columns, max_size, state=state) == expect
        assert not (structured and max_size <= short and leaves.called)
        if walk:
            assert linalg.smallest_dependent_subset(f, zero.columns, max_size, state=zero) == expect


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_shortest_cycles_of_vandermonde_blocks_match_the_walk_and_the_oracles(data):
    # block rows above the powers 1..p of one value per column, the values
    # drawn from a small pool so that values repeat within and across
    # blocks, zeros occur and whole blocks may be equal.  One altered power
    # entry fails the structure check, and the walk answers every size
    q = data.draw(st.sampled_from([5, 7, 13, 16, 27]))
    f = _field(q)
    m, width, p = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 4)), data.draw(st.integers(1, 3))
    n = m * width
    pool = data.draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=4, unique=True))
    x = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    if m > 1 and data.draw(st.booleans()):
        x[-width:] = x[:width]
    rows = _vandermonde_block_rows(f, x, m, p)
    altered = p >= 2 and data.draw(st.booleans())
    if altered:
        i, j = m + data.draw(st.integers(1, p - 1)), data.draw(st.integers(0, n - 1))
        rows[i][j] = data.draw(st.integers(0, q - 1).filter(lambda v: v != rows[i][j]))
    _assert_the_scan_matches_the_walk_and_the_oracles(f, rows, not altered)


@pytest.mark.parametrize("x,witness", [
    ([5, 5, 1, 2, 3, 4], (0, 1)),  # two columns of one block with one value: a 2-edge cycle
    ([1, 2, 3, 1, 2, 3], (0, 1, 3, 4)),  # a duplicated block: the least of its three 4-edge cycles
])
def test_a_two_edge_cycle_and_a_duplicated_block(x, witness):
    f = GF(13)
    rows = _vandermonde_block_rows(f, x, 2, 3)
    assert linalg._shortest_cycle(x, 3, 4) == witness
    assert linalg.smallest_dependent_subset(f, _columns(rows), 4) == witness
    _assert_the_scan_matches_the_walk_and_the_oracles(f, rows, True)


@pytest.mark.parametrize("call,want", [
    (lambda f: linalg.solve(f, [[1, 2], [3, 4]], [1]), "right-hand side length does not match row count"),
    (lambda f: linalg.solve(f, [], [1]), "right-hand side length does not match row count"),
    (lambda f: linalg.rref(f, []), ([], [])),
    (lambda f: linalg.nullspace_basis(f, []), []),
    (lambda f: linalg.detect_block_locality([]), None),
], ids=["solve-long", "solve-no-rows", "rref", "nullspace", "block-locality"])
def test_a_mismatched_right_hand_side_is_refused_and_no_rows_give_empty_answers(call, want):
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want):
            call(GF(13))
    else:
        assert call(GF(13)) == want


def test_wide_subsets_short_circuit():
    # any nrows+1 columns are dependent by counting
    f = GF(7)
    cols = [(1,), (2,), (3,)]
    assert linalg.smallest_dependent_subset(f, cols, 2) == (0, 1)


def test_independent_columns_return_none():
    f = GF(7)
    cols = [(1, 0), (0, 1)]
    assert linalg.smallest_dependent_subset(f, cols, 2) is None


def test_budget_guard():
    f = GF(13)
    assert linalg.subset_search_cost(40, 5) == sum(
        len(list(itertools.combinations(range(40), w))) for w in range(1, 6)
    )
    # the second case is the 1369 x 5464 GF(243) code of a greedy family:
    # its exact subset count has over a thousand digits, and the refusal
    # must stop counting once the budget is passed
    for n, max_size, budget in [(40, 5, 1000), (5464, 1370, DEFAULT_SUBSET_BUDGET)]:
        cols = [tuple((i + j) % 13 for j in range(10)) for i in range(n)]
        with pytest.raises(ValueError, match="budget exceeded") as exc:
            linalg.smallest_dependent_subset(f, cols, max_size, budget=budget)
        assert len(str(exc.value)) < 200


def test_negative_budget_is_refused():
    for cols in ([(1, 0), (0, 1)], []):
        with pytest.raises(ValueError, match="budget -1 must be non-negative"):
            linalg.smallest_dependent_subset(GF(7), cols, 2, budget=-1)
    # a budget of 0 is a budget: it passes at the first candidate
    with pytest.raises(ValueError, match="budget exceeded: 2 columns pass 0 subsets at size 1"):
        linalg.smallest_dependent_subset(GF(7), [(1, 2), (3, 4)], 2, budget=0)


def test_budget_counts_the_candidates_of_the_sizes_that_need_elimination(singleton_code):
    _, pcm, _ = singleton_code
    plain = [(1, 0, 0, 1, 1, 1), (0, 1, 0, 1, 2, 4), (0, 0, 1, 1, 3, 9)]
    # 3 blocks of 5 on 3 more rows: a size-6 candidate can touch 3 blocks
    # and leave 3 columns to test, from size 7 on none fits 3 rows; with no
    # block rows, sizes up to the row count need an elimination
    # the count runs from size 1 whatever the state has answered before,
    # so refusal begins at the same budget and size for every state
    for f, rows, blocks, last in ((pcm.field, pcm.rows, 3, 6), (GF(13), plain, 0, 3)):
        cols = _columns(rows)
        need = sum(_counts_up_to(len(cols), blocks, last)[1:])
        want = reference_smallest_dependent_subset(f, cols, last + 1)
        for cleared in range(len(want)):
            state = linalg._ScanState(f, rows)
            assert linalg.smallest_dependent_subset(f, state.columns, cleared, state=state) is None
            # the second round asks a state that has found the witness
            for _ in range(2):
                with pytest.raises(ValueError, match=f"at size {last}$"):
                    linalg.smallest_dependent_subset(f, state.columns, last + 1, budget=need - 1, state=state)
                assert linalg.smallest_dependent_subset(f, state.columns, last + 1, budget=need, state=state) == want


def test_the_walk_stops_at_the_first_size_dependent_by_counting():
    # however large max_size is, the one reachability table is built for the
    # first size past the counting break that has a candidate; with blocks of
    # width 2 that skips the odd size after the break, which has none
    plain = [[1] * 40, list(range(40))]
    block = _block_rows(4, 2) + [[1, 2, 3, 4, 5, 6, 7, 8]]
    for f, rows, top in ((GF(41), plain, 3), (GF(13), block, 4)):
        cols = _columns(rows)
        with mock.patch.object(linalg, "_reachable", wraps=linalg._reachable) as reach:
            got = linalg.smallest_dependent_subset(f, cols, len(cols))
        assert reach.call_args.args[2] == top and reach.call_count == 1
        assert got == reference_smallest_dependent_subset(f, cols, len(cols))


def test_a_scan_state_answers_only_for_the_matrix_it_was_built_from(singleton_code):
    _, pcm, _ = singleton_code
    state = linalg._ScanState(pcm.field, pcm.rows)
    other = [list(col) for col in state.columns]
    other[0][-1] = (other[0][-1] + 1) % 13
    # equal columns that are not the state's own are refused too: the state
    # never judges what it cannot vouch for
    for field, columns in ((pcm.field, other), (pcm.field, pcm.columns()), (pcm.field, state.columns.copy()),
                           (GF(13), state.columns)):
        with pytest.raises(ValueError, match="scan state was built for another matrix"):
            linalg.smallest_dependent_subset(field, columns, 5, state=state)
    assert linalg.smallest_dependent_subset(pcm.field, state.columns, 5, state=state) == (0, 1, 2, 3, 4)
    # only the scan takes a state: the rank builds its own
    assert list(inspect.signature(linalg.rank).parameters) == ["field", "rows"]


def test_the_scan_state_converts_the_rows_below_the_blocks_once_and_checks_their_powers_by_products():
    # a built H, the same H with no block rows, and block rows over power
    # rows with the square left out, so that a row is no power of the one
    # above it: the state converts only the rows below the block rows, once,
    # its columns write the block rows from the layout and read nothing more
    # of H, and its power check multiplies each kept row by row m, with no
    # exponentiation
    built = build_parity_check(SetFamily(13, 4, 2, SINGLETON_FAMILY), 6)
    f, m, n = built.field, 3, built.n
    for rows, values in ((built.rows, list(built.rows[m])), (built.rows[m:], None),
                         (built.rows[: m + 1] + built.rows[m + 2 :], None)):
        with mock.patch.object(f, "array", wraps=f.array) as array, \
                mock.patch.object(f, "pow_array", wraps=f.pow_array) as power:
            state = linalg._ScanState(f, rows)
            # the state keeps no reference to the rows: the columns and
            # values read only what it kept
            assert "rows" not in vars(state)
            columns, got = state.columns, state.values
        assert sum(np.size(c.args[0]) for c in array.call_args_list) == (len(rows) - state.blocks) * n
        assert power.call_count == 0
        assert columns.dtype == np.int64 and np.array_equal(columns, np.array(rows).T) and got == values


def test_a_scanned_matrix_stays_equal_to_an_unscanned_one():
    # what a matrix keeps of its scans, its one cache, is no constructor
    # parameter and no part of its value, equality, hash or repr
    fam = SetFamily(13, 4, 2, SINGLETON_FAMILY)
    scanned, fresh = build_parity_check(fam, 5), build_parity_check(fam, 5)
    assert verify_distance_at_least(scanned, 5) is None
    assert min_distance_witness(scanned) == (0, 1, 2, 3, 4)
    code_params_from_family(fam, 5, scanned)
    assert set(vars(scanned)) == {"rows", "field", "_state"} and set(vars(fresh)) == {"rows", "field"}
    assert scanned == fresh and hash(scanned) == hash(fresh) and repr(scanned) == repr(fresh)
    assert list(inspect.signature(ParityCheckMatrix).parameters) == ["rows", "field"]


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


RANK_QS = [2, 4, 13, 27, 4999]


def _draw_rank_matrix(data, q):
    """Block-indicator rows (widths from 1, where they form an identity, to
    the whole row, where they are one all-ones row) above 0 to 4 arbitrary
    rows, or arbitrary rows alone; zero entries and repeated columns below."""
    entry = st.integers(0, q - 1) | st.just(0)
    shape = data.draw(st.sampled_from(["blocks", "identity", "all-ones", "plain"]))
    if shape == "plain":
        top, n = [], data.draw(st.integers(1, 7))
    else:
        m = 1 if shape == "all-ones" else data.draw(st.integers(1, 4))
        width = 1 if shape == "identity" else data.draw(st.integers(1, 4))
        top, n = _block_rows(m, width), m * width
    below = [data.draw(st.lists(entry, min_size=n, max_size=n))
             for _ in range(data.draw(st.integers(0 if top else 1, 4)))]
    for _ in range(data.draw(st.integers(0, 2))):
        src, dst = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        for row in below:
            row[dst] = row[src]
    return top + below


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_rank_through_the_block_rows_matches_full_elimination(data):
    q = data.draw(st.sampled_from(RANK_QS))
    f = _field(q)
    rows = _draw_rank_matrix(data, q)
    want = len(linalg.rref(f, rows)[1])
    assert len(reference_rref(f, rows)[1]) == want
    for form in (rows, tuple(tuple(row) for row in rows), np.array(rows)):
        assert linalg.rank(f, form) == want
    if f.e == 1 and len(rows) * len(rows[0]) <= 30:
        assert _minors_rank(rows, q) == want


@pytest.mark.parametrize("seed", [1, 2])
def test_rank_of_the_construction_codes_matches_full_elimination(seed):
    for fam in (random_family(4999, 5, 3, seed), greedy_family(101, 5, 3, 4096, seed)):
        pcm = build_parity_check(fam, 7)
        assert linalg.rank(pcm.field, pcm.rows) == len(linalg.rref(pcm.field, pcm.rows)[1]) == fam.m + 5


@pytest.mark.parametrize(
    "q,sets,message",
    [
        # the gate takes no rank, so the locality refusal answers these
        (8, ((0, 1, 2, 3), (4, 5, 6, 7)), "locality r must be at least d-2"),
        (11, ((0, 1, 2, 4), (3, 6, 8, 9)), "locality r must be at least d-2"),
    ],
    ids=["q8", "q11"],
)
def test_rank_gate_refuses_a_deficient_code_with_the_full_rank(q, sets, message):
    # r = 3 < d - 2: two verifying sets give k = 1, and H's 7 rows have rank 6
    fam = SetFamily(q, 3, 3, sets)
    pcm = build_parity_check(fam, 7)
    assert len(linalg.rref(pcm.field, pcm.rows)[1]) == 6
    with pytest.raises(ValueError) as err:
        code_params_from_family(fam, 7)
    assert str(err.value) == message

