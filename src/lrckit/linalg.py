"""Dense linear algebra over GF(q).

Row reduction, rank, nullspace and solving take and return plain lists of
ints but eliminate on numpy arrays through the field's array operations
(table lookups for extension fields, modular arithmetic for prime ones).

The rank projects instead of eliminating the block rows.  When the leading
m rows B are block indicators above rows P, rank [B; P] = m + rank(P K)
for K whose columns e_j - e_f (f the first column of j's block) span ker B:
B has rank m, and a combination of P's rows lies in B's row space exactly
when it vanishes on ker B.  P K is each column of P less its block's first
column, the same differences the distance scan tests, made by one helper.
For the 96 x 546 parity-check matrix of a 91-block code only a 546 x 5
matrix is eliminated, and the block rows are read as tuples, never
converted to an array.

The search for small dependent column sets is the hot path of distance
verification.  A smallest dependent set is the support of one codeword, so
when the leading m rows are block indicators (as in every code `lrc`
builds) each of them sums that codeword over its block, and the support
meets every block in 0 or >= 2 columns: only such supports are scanned.
Solving each touched block's indicator row for its first chosen column
turns the test of a support into one of its other columns minus their
block's first column, on the rows below the block rows; these differences
are computed once per scan.  The supports of one size are walked once as a
tree of their sorted prefixes, each prefix made once.  Each node carries
the annihilator of its prefix's tested vectors, so a new column costs one
matrix-vector product and one rank-one update.  Leaves come in
lexicographic order, a batch at a time, so the returned witness is always
the lexicographically least dependent subset of the smallest size,
independent of batch sizes.
"""

from __future__ import annotations

from math import comb
from typing import Optional, Sequence

import numpy as np

from .gf import GF

Matrix = Sequence[Sequence[int]]

_CHUNK = 16384  # most leaves made per step of the walk in smallest_dependent_subset


def rref(field: GF, rows: Matrix) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form.

    Args:
        field: arithmetic context.
        rows: matrix as a sequence of equal-length rows (or a 2-D array).

    Returns:
        (reduced_rows, pivot_columns).  Pivoting is deterministic: for each
        column, the first row (top to bottom) with a nonzero entry becomes
        the pivot row.  Each pivot clears its column in every other row with
        one array operation, so the matrix is never walked element by element.
    """
    if len(rows) == 0:
        return [], []
    work = field.array(rows)
    nrows, ncols = work.shape
    pivots: list[int] = []
    prow = 0
    for col in range(ncols):
        nz = np.flatnonzero(work[prow:, col])
        if nz.size == 0:
            continue
        sel = prow + int(nz[0])
        work[[prow, sel]] = work[[sel, prow]]
        # columns left of `col` are zero in the pivot row, so only the rest moves
        pivot_row = field.mul_array(work[prow, col:], field.inv_table[work[prow, col]])
        work[prow, col:] = pivot_row
        factors = work[:, col].copy()
        factors[prow] = 0
        hit = np.flatnonzero(factors)
        if hit.size:
            work[hit, col:] = field.sub_array(
                work[hit, col:], field.mul_array(factors[hit, None], pivot_row[None, :])
            )
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    return work.tolist(), pivots


def rank(field: GF, rows: Matrix) -> int:
    """Rank of `rows`, eliminating only what the block rows leave open.

    When the leading m rows B are block indicators (_block_layout) above
    rows P, rank [B; P] = m + rank(P K) for any K whose columns span ker B.
    B has rank m, and a combination of P's rows lies in B's row space
    exactly when it vanishes on ker B, so the identity is exact for every
    P.  K's columns are e_j - e_f for each column j and the first column f
    of j's block, so P K is each column of P less its block's first column
    (_block_differences, the vectors the distance scan tests): zero for the
    first columns, which span nothing.  Only that (n x rows - m) matrix is
    eliminated.  With no block rows m = 0, and the matrix is P itself.
    """
    blocks, width = _block_layout(rows)
    if len(rows) == blocks:
        return blocks
    below = field.array(rows[blocks:]).T
    n = len(below)
    diffs = _block_differences(field, below, blocks, width)
    return blocks + len(rref(field, diffs[np.arange(n), np.arange(n) % width])[1])


def nullspace_basis(field: GF, rows: Matrix) -> list[list[int]]:
    """Basis of the right nullspace, one vector per non-pivot column.

    Vector for free column f has a 1 at position f and zeros at every other
    free position, so the basis is in systematic form with respect to the
    free columns (taken in ascending order).
    """
    if len(rows) == 0:
        return []
    red, pivots = rref(field, rows)
    ncols = len(red[0])
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    if pivots and free:
        pivot_rows = np.array(red[: len(pivots)], dtype=np.int64)
        basis[:, pivots] = field.sub_array(0, pivot_rows[:, free].T)
    return basis.tolist()


def solve(field: GF, a_rows: Matrix, b: Sequence[int]) -> tuple[str, Optional[list[int]]]:
    """Solve A x = b.  Returns (status, x) with status in {unique, none, many}.

    For 'many' a particular solution is returned (free variables set to 0);
    for 'none' the solution slot is None.
    """
    if len(a_rows) != len(b):
        raise ValueError("right-hand side length does not match row count")
    if len(a_rows) == 0:
        return "many", []
    ncols = len(a_rows[0])
    aug = np.column_stack([field.array(a_rows), field.array(b)])
    red, pivots = rref(field, aug)
    if ncols in pivots:
        return "none", None
    x = [0] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    status = "unique" if len(pivots) == ncols else "many"
    return status, x


def subset_search_cost(n: int, max_size: int) -> int:
    """Number of column subsets of sizes 1..max_size: what a scan blind to
    block rows would examine, and a bound on what smallest_dependent_subset
    examines."""
    return sum(comb(n, w) for w in range(1, min(max_size, n) + 1))


def _block_layout(rows: Matrix) -> tuple[int, int]:
    """(m, width) when the leading m rows mark m equal-width contiguous
    blocks that tile the columns left to right, row i the i-th block with
    1 on its columns and 0 elsewhere; (0, 1) otherwise.

    The rows are compared as tuples, so no more of the matrix than the
    block rows is read, and none of it is converted to an array.
    """
    if len(rows) == 0:
        return 0, 1
    first = tuple(rows[0])
    n = len(first)
    width = next((j for j, v in enumerate(first) if v != 1), n)
    if width == 0 or n % width or len(rows) < n // width:
        return 0, 1
    ones, m = (1,) * width, n // width
    for i in range(m):
        # ones on its block and n - width zeros leave no other entry
        row = tuple(rows[i])
        if len(row) != n or row[i * width : (i + 1) * width] != ones or row.count(0) != n - width:
            return 0, 1
    return m, width


def detect_block_locality(rows: Matrix) -> Optional[int]:
    """Recover r from leading block-indicator rows, or None.

    Looks for m leading 0/1 rows, row i marking the i-th of m equal-width
    contiguous blocks that tile the columns left to right; r is the width
    less one.  Matrices written by `build-code` always match; hand-made ones
    may need r given explicitly.
    """
    blocks, width = _block_layout(rows)
    return width - 1 if blocks else None


def _block_differences(field: GF, below: np.ndarray, blocks: int, width: int) -> np.ndarray:
    """diffs[y, o] for o < width: column y of the rows below the block rows
    (`below`, one row per column) less column y - o, clamped at column 0;
    column y itself when there are no block rows (width 1).  A block row
    sums a codeword over its block, so solving it for one column of the
    block turns each other column into its difference from that one."""
    n = len(below)
    base = below if blocks else np.zeros_like(below)
    return field.sub_array(below[:, None, :], base[np.maximum(np.arange(n)[:, None] - np.arange(width), 0)])


def _groups(n: int, blocks: int) -> tuple[int, int, int]:
    """(count, width, fewest columns a touched one holds) of the column
    groups a support is built from: the blocks, or single columns when
    there are no block rows."""
    return (blocks, n // blocks, 2) if blocks else (n, 1, 1)


def _support_counts(n: int, blocks: int):
    """Yield rows v = 0, 1, 2, ... of support counts: entry j of row v is
    the number of v-column supports within the last j groups, that is the
    coefficient of x**v in P(x)**j for P = 1 + sum C(width, s) x**s over
    the sizes s a touched group may have.  Each row comes from J. C. P.
    Miller's recurrence v a_v = sum_s ((j + 1) s - v) p_s a_(v-s), for all
    j at once, in exact integers."""
    groups, width, least = _groups(n, blocks)
    j = np.arange(groups + 1, dtype=object)
    rows = [np.ones(groups + 1, dtype=object)]
    yield rows[0]
    for v in range(1, n + 1):
        row = np.zeros(groups + 1, dtype=object)
        for s in range(least, min(v, width) + 1):
            row += ((j + 1) * s - v) * comb(width, s) * rows[v - s]
        rows.append(row // v)
        yield rows[v]


def _reachable(counts: list, n: int, blocks: int) -> np.ndarray:
    """The columns a pick may take with v picks still to come, for each
    v < len(counts), ascending and padded with n: entry [0, v] for a pick
    that continues its block, which then owes no more picks, and [1, v] for
    one that opens a block.  A column qualifies when enough columns follow
    it in its block for the picks its block still owes and the rest fit the
    later groups, whose support counts are the first rows of
    _support_counts."""
    groups, width, least = _groups(n, blocks)
    y = np.arange(n)
    later = np.stack(counts)[:, groups - 1 - y // width] > 0  # [v, y]
    reach = np.zeros((2, len(counts), n), dtype=bool)
    for e in range(min(len(counts), width)):
        # e more picks among the columns after y in its block
        fits = (y % width + e < width) & later[: len(counts) - e]
        reach[0, e:] |= fits
        if e >= least - 1:
            reach[1, e:] |= fits
    ends = np.argsort(~reach, axis=2, kind="stable")
    ends[y >= reach.sum(axis=2, keepdims=True)] = n
    return ends


def _children(level, width, least, x, c, limit):
    """Expand the first nodes of a depth, as many as keep their children
    within `limit` and at least one.  Returns how many were expanded and
    their children in order, as (parent, column, whether it continues its
    parent's block).

    A node is its last pick x and the c picks in x's block.  A child may
    take a later column of its parent's block or, once that block owes no
    more picks, any column after it.  `level` holds the columns a child may
    end in (_reachable), continuing a block and opening one.
    """
    cont, opens = level
    end = (x // width + 1) * width
    at = np.searchsorted(cont, x + 1)
    k_in = np.searchsorted(cont, end) - at
    op = np.searchsorted(opens, end)
    kids = k_in + np.where(c >= least, np.searchsorted(opens, len(opens)) - op, 0)
    upto = np.cumsum(kids)
    take = max(int(np.searchsorted(upto, limit, side="right")), 1)
    parent = np.repeat(np.arange(take), kids[:take])
    off = np.arange(len(parent)) - (upto - kids)[parent]
    inside = off < k_in[parent]
    y = np.where(inside, cont.take(at[parent] + off, mode="clip"),
                 opens.take(op[parent] + off - k_in[parent], mode="clip"))
    return take, parent, y, inside


def _leaves(field: GF, diffs: np.ndarray, ends: np.ndarray, width: int, least: int):
    """Walk the tree of prefixes of the supports of size w = ends.shape[1]
    once and yield its leaves in lexicographic order, in batches, as (picks,
    dependent): one sorted support per row and whether its columns are
    dependent.  The walk stops after the first batch with a dependent leaf.

    A node is a prefix of picks; its children (_children) are the later
    columns from which the support can still be completed, in ascending
    order.  Each depth keeps its unexpanded nodes in order, and each step
    expands the first nodes of the deepest depth that has any.  Every node
    waiting at a depth then precedes, in leaf order, every node waiting at a
    shallower one, so leaves come in lexicographic order and each prefix is
    made once.  A step makes at most a batch of children, which grows from
    _CHUNK / 64 to _CHUNK so that a scan whose witness comes early walks few
    leaves; below the leaves it makes at most an eighth of a batch (and at
    least _CHUNK / 64), so few nodes wait.

    Each node carries N, whose rows span the annihilator of its tested
    vectors: diffs[y, o] for a pick y whose block's first pick is y - o
    (o = 0 is that first pick, tested only with no block rows).  A child's
    vector is tested by u = N v: u = 0 means it lies in the prefix's span;
    otherwise N takes one rank-one update that clears the row of u's first
    nonzero entry.  Once N has no rows left, every tested vector gives
    u = 0.  Only leaves are judged: a proper prefix tests the vectors of a
    support of a smaller size (less its last pick when that opens a block),
    and smallest_dependent_subset walks a size only once every smaller one
    has no dependent support.
    """
    w, nrows = ends.shape[1], diffs.shape[2]
    # the root: no picks, a block that owes nothing, N the identity
    root = (np.empty((1, 0), dtype=np.int64), np.array([-1]), np.array([least]), np.array([-1]),
            np.eye(nrows, dtype=np.int64)[None], np.zeros(1, dtype=np.int64))
    waiting = [root] + [None] * (w - 1)
    size, i = max(_CHUNK >> 6, 1), 0
    while i >= 0:
        picks, x, c, anchor, ann, dim = waiting[i]
        leaf = i + 1 == w
        limit = size if leaf else max(size >> 3, _CHUNK >> 6)
        take, parent, y, inside = _children(ends[:, w - 1 - i], width, least, x, c, limit)
        waiting[i] = tuple(a[take:] for a in waiting[i]) if take < len(x) else None
        anc = np.where(inside, anchor[parent], y)
        sub = ann[parent]
        u = field.sum_array(field.mul_array(sub, diffs[y, y - anc][:, None, :]), axis=2)
        picks = np.concatenate([picks[parent], y[:, None]], axis=1)
        if leaf:
            # a leaf never opens a block, so each one's vector is tested
            dep = ~u.any(axis=1)
            yield picks, dep
            if dep.any():
                return
        elif len(y):
            # N's rows are nonzero exactly above row nrows - dim, dim the rank
            # of the tested vectors: the update clears the pivot's row and
            # moves the last nonzero row into it
            dim = dim[parent]
            hit = np.flatnonzero(u.any(axis=1))
            if hit.size:
                uh, row = u[hit], np.arange(hit.size)
                piv = np.argmax(uh != 0, axis=1)
                scale = field.mul_array(uh, field.inv_table[uh[row, piv]][:, None])
                upd = field.sub_array(sub[hit], field.mul_array(scale[:, :, None], sub[hit, piv][:, None, :]))
                last = nrows - 1 - dim[hit]
                upd[row, piv] = upd[row, last]
                upd[row, last] = 0
                sub[hit] = upd
                dim[hit] += 1
            cc = np.where(inside, c[parent] + 1, 1)
            waiting[i + 1] = (picks, y, cc, anc, sub[:, : nrows - dim.min()], dim)
        size = min(2 * size, _CHUNK)
        i = max((k for k in range(w) if waiting[k] is not None), default=-1)


def smallest_dependent_subset(
    field: GF,
    columns: Sequence[Sequence[int]],
    max_size: int,
    budget: Optional[int] = None,
    start: int = 1,
) -> Optional[tuple[int, ...]]:
    """Least dependent column subset of size <= max_size, or None.

    Sizes are scanned in ascending order and, within a size, subsets in
    lexicographic order, so the result is the lexicographically least
    witness of the smallest dependent size.  Only supports that meet every
    block of the leading block-indicator rows (detect_block_locality) in 0
    or >= 2 columns are candidates; with no block rows every subset is.
    Each size walks the prefix tree of its candidates once (_leaves): a
    column is tested against the annihilator of the vectors its prefix has
    tested, and only whole candidates are judged, since a proper prefix
    tests the vectors of a smaller candidate.  Once those vectors span
    the rows below the block rows every later tested column is dependent,
    so a size where every candidate has more columns to test than rows is
    answered by its first candidate (with no block rows: any nrows + 1
    columns).  `budget` caps the candidates examined: ValueError when it is
    negative and, before any is tested, as soon as the running count of
    candidates over the sizes that need a test passes it.

    `start` skips the walk of the sizes below it, for a caller that has
    proven them free of dependent sets; the walk relies on that, and with a
    dependent set below `start` its answer is undefined.  The budget still
    counts every size from 1, so `start` never changes whether or where a
    call is refused.  ValueError when `start` is below 1.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget {budget} must be non-negative")
    if start < 1:
        raise ValueError(f"start {start} must be at least 1")
    n = len(columns)
    if n == 0 or max_size < 1:
        return None
    cols = np.array(columns, dtype=np.int64)
    nrows = cols.shape[1]
    blocks, width = _block_layout(cols.T.tolist())
    sizes = range(1, min(max_size, n) + 1)
    more_counts = _support_counts(n, blocks)
    counts = [next(more_counts)]
    cost = 0
    for w in sizes:
        # a w-support touches at most min(blocks, w // 2) blocks, and
        # each touched block takes one column off the test
        if w - min(blocks, w // 2) > nrows - blocks:
            break  # this size and every larger one is dependent by counting
        counts.append(next(more_counts))
        cost += int(counts[w][-1])
        if budget is not None and cost > budget:
            raise ValueError(f"budget exceeded: {n} columns pass {budget} subsets at size {w}")
    least = _groups(n, blocks)[2]
    # the vector tested for column y when its block's first pick is y - o
    diffs = _block_differences(field, cols[:, blocks:], blocks, width)
    ends = _reachable(counts, n, blocks)
    for w in sizes[start - 1 :]:
        while len(counts) < w:
            counts.append(next(more_counts))
            ends = _reachable(counts, n, blocks)
        for picks, dep in _leaves(field, diffs, ends[:, :w], width, least):
            if dep.any():
                return tuple(int(v) for v in picks[int(np.argmax(dep))])
    return None
