"""Dense linear algebra over GF(q).

Row reduction, rank, nullspace and solving take and return plain lists of
ints but eliminate on numpy arrays through the field's array operations
(table lookups for extension fields, modular arithmetic for prime ones).

The search for small dependent column sets is the hot path of distance
verification.  A smallest dependent set is the support of one codeword, so
when the leading m rows are block indicators (as in every code `lrc`
builds) each of them sums that codeword over its block, and the support
meets every block in 0 or >= 2 columns: only such supports are scanned.
Solving each touched block's indicator row for its first chosen column
turns the test of a support into one of its other columns minus their
block's first column, on the rows below the block rows; these differences
are computed once per scan.  The supports of one size are walked as a tree
of their sorted prefixes.  Each node carries the annihilator of its
prefix's tested vectors, so a new column costs one matrix-vector product
and one rank-one update, and a dependent prefix settles its whole subtree.
Leaves come in lexicographic order, a slice of ranks at a time, so the
returned witness is always the lexicographically least dependent subset of
the smallest size, independent of slice boundaries.
"""

from __future__ import annotations

from math import comb
from typing import Optional, Sequence

import numpy as np

from .gf import GF

Matrix = Sequence[Sequence[int]]

_CHUNK = 16384  # leaf ranks walked per slice in smallest_dependent_subset


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
    return len(rref(field, rows)[1])


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


def detect_block_locality(rows: Matrix) -> Optional[int]:
    """Recover r from leading block-indicator rows, or None.

    Looks for m leading 0/1 rows, row i marking the i-th of m equal-width
    contiguous blocks that tile the columns left to right; r is the width
    less one.  Matrices written by `build-code` always match; hand-made ones
    may need r given explicitly.
    """
    a = np.asarray(rows)
    if a.ndim != 2 or a.size == 0:
        return None
    n = a.shape[1]
    width = int(np.argmin(a[0] == 1)) if (a[0] != 1).any() else n
    if width == 0 or n % width or a.shape[0] < n // width:
        return None
    tiling = np.arange(n) // width == np.arange(n // width)[:, None]
    return width - 1 if np.array_equal(a[: n // width], tiling) else None


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


def _completion_tables(counts: list, n: int, blocks: int) -> np.ndarray:
    """Completion counts of the supports of sizes up to len(counts) - 1,
    saturated where a frontier's rank arithmetic stays within int64;
    `counts` are the first rows of _support_counts.

    Entry [kind, v, y] counts the ways to make the last v picks with the
    first of them at column y or later: kind 0 when y's block holds no
    earlier pick, kind 1 + need when it does and needs `need` more.  It is
    the same for every support size.  Column n stands for past the end.
    """
    groups, width, least = _groups(n, blocks)
    w = len(counts) - 1
    y = np.arange(n)
    after = np.stack(counts)[:, groups - 1 - y // width]  # [v, y]: in the groups after y's
    table = np.zeros((1 + least, w + 1, n + 1), dtype=object)
    table[0, 0, n] = 1
    for e in range(min(w, width) + 1):
        # e picks among the columns from y to the end of its block
        ways = np.array([comb(width - o, e) for o in range(width)], dtype=object)[y % width]
        term = ways * after[: w + 1 - e]
        if e == 0 or e >= least:
            table[0, e:, :n] += term
        for need in range(min(e, least - 1) + 1):
            table[1 + need, e:, :n] += term
    # a node's children number at most 2n and each count is at most the cap,
    # so the leaf ranks summed over a frontier never reach 2**62
    return np.minimum(table, (1 << 59) // (n + 1)).astype(np.int64)


def _completions(table: np.ndarray, width: int, v, x: np.ndarray, need: int) -> np.ndarray:
    """Ways to make the last v picks of a support after a pick at x that
    leaves `need` more owed to x's block: the picks from x + 1 on, inside
    x's block or, once it needs none, after it (table[0] at the block end).
    v and x broadcast."""
    inside = x + 1 < (x // width + 1) * width
    return np.where(inside, table[1 + need, v, x + 1], np.where(need == 0, table[0, v, x + 1], 0))


def _children(width, least, level, x, c, first, lo, hi):
    """The children, in order, of the frontier nodes whose leaves meet ranks
    lo..hi-1, as (parent, column, whether it continues its parent's block,
    picks in its block, rank of its first leaf).

    A frontier node is its last pick x, the c picks in x's block and the
    rank of its first leaf.  A child may take a later column of its
    parent's block or, once that block owes no more picks, any column after
    it.  `level` holds, for a child that continues a block and for one that
    opens a block, the columns it may end in with leaves left below it,
    ascending and padded with n, and its leaf count by column.
    """
    cont, opens, below_cont, below_open = level
    end = (x // width + 1) * width
    at = np.searchsorted(cont, x + 1)
    k_in = np.searchsorted(cont, end) - at
    op = np.searchsorted(opens, end)
    kids = k_in + np.where(c >= least, np.searchsorted(opens, len(opens)) - op, 0)
    parent = np.repeat(np.arange(len(x)), kids)
    starts = np.cumsum(kids) - kids
    off = np.arange(len(parent)) - starts[parent]
    inside = off < k_in[parent]
    y = np.where(inside, cont.take(at[parent] + off, mode="clip"),
                 opens.take(op[parent] + off - k_in[parent], mode="clip"))
    leaves = np.where(inside, below_cont[y], below_open[y])
    # a child's first leaf rank: its parent's plus its elder siblings' leaves
    ranks = np.cumsum(leaves) - leaves
    fst = first[parent] + ranks - ranks[starts][parent]
    keep = np.flatnonzero((fst < hi) & (fst + leaves > lo))
    parent, y, inside = parent[keep], y[keep], inside[keep]
    return parent, y, inside, np.where(inside, c[parent] + 1, 1), fst[keep]


def _leaves(field: GF, diffs: np.ndarray, table: np.ndarray, width: int, least: int):
    """Walk the tree of prefixes of the supports of size w = table.shape[1] - 1
    and yield its leaves in lexicographic order, in slices of consecutive
    ranks, as (picks, dependent): one sorted support per row and whether its
    columns are dependent.  Slices grow from _CHUNK / 64 leaves to _CHUNK, so
    a scan whose witness comes early walks few leaves.  A slice ends at its
    first dependent leaf.

    A node is a prefix of picks; its children (_children) are the later
    columns from which the support can still be completed, in ascending
    order, so each level lists its nodes in the order of their leaves.  Each
    node carries N, whose rows span the annihilator of its tested vectors:
    diffs[y, o] for a pick y whose block's first pick is y - o (o = 0 is
    that first pick, tested only with no block rows).  A child's vector is
    tested by u = N v: u = 0 means it lies in the prefix's span, which
    makes the child and its whole subtree dependent; otherwise N takes one
    rank-one update that clears the row of u's first nonzero entry.  Once N
    has no rows left, every tested vector gives u = 0.
    """
    n, w, nrows = table.shape[2] - 1, table.shape[1] - 1, diffs.shape[2]
    total = int(table[0, w, 0])
    # row i of each: the leaves below a node at depth i + 1 by the column it
    # ends in, continuing a block (which owes no more picks) or opening one,
    # and the columns with any leaves, ascending and padded with n
    left = np.arange(w - 1, -1, -1)[:, None]
    below = [_completions(table, width, left, np.arange(n), need) for need in (0, least - 1)]
    ends = [np.argsort(b == 0, axis=1, kind="stable") for b in below]
    for e, b in zip(ends, below):
        e[np.arange(n) >= (b > 0).sum(axis=1, keepdims=True)] = n
    lo, size = 0, max(_CHUNK >> 6, 1)
    while lo < total:
        hi = min(lo + size, total)
        # the root: no picks, a block that owes nothing, leaf ranks from 0
        picks = np.empty((1, 0), dtype=np.int64)
        x, c, anchor, first, dim = (np.array([v], dtype=np.int64) for v in (-1, least, -1, 0, 0))
        ann = np.eye(nrows, dtype=np.int64)[None]
        dep = np.zeros(1, dtype=bool)
        for i in range(w):
            level = (ends[0][i], ends[1][i], below[0][i], below[1][i])
            parent, y, inside, cc, fst = _children(width, least, level, x, c, first, lo, hi)
            anc = np.where(inside, anchor[parent], y)
            sub = ann[parent]
            u = field.sum_array(field.mul_array(sub, diffs[y, y - anc][:, None, :]), axis=2)
            dep = dep[parent] | (~u.any(axis=1) & (inside | (least == 1)))
            if dep.any():
                # every later node's leaves follow the first dependent leaf
                cut = int(np.argmax(dep)) + 1
                parent, y, cc, anc, fst, sub, u, dep = (
                    a[:cut] for a in (parent, y, cc, anc, fst, sub, u, dep)
                )
            picks = np.concatenate([picks[parent], y[:, None]], axis=1)
            x, c, anchor, first, dim = y, cc, anc, fst, dim[parent]
            if i + 1 == w:
                break
            # N's rows are nonzero exactly above row nrows - dim, dim the rank
            # of the tested vectors: the update clears the pivot's row and
            # moves the last nonzero row into it
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
            ann = sub[:, : nrows - dim.min()]
        yield picks, dep
        if dep.any():
            return
        lo, size = hi, min(2 * size, _CHUNK)


def smallest_dependent_subset(
    field: GF,
    columns: Sequence[Sequence[int]],
    max_size: int,
    budget: Optional[int] = None,
) -> Optional[tuple[int, ...]]:
    """Least dependent column subset of size <= max_size, or None.

    Sizes are scanned in ascending order and, within a size, subsets in
    lexicographic order, so the result is the lexicographically least
    witness of the smallest dependent size.  Only supports that meet every
    block of the leading block-indicator rows (detect_block_locality) in 0
    or >= 2 columns are candidates; with no block rows every subset is.
    Each size walks the prefix tree of its candidates (_leaves): a column
    is tested against the annihilator of the vectors its prefix has tested,
    and a dependent prefix marks its whole subtree.  Once those vectors span
    the rows below the block rows every later tested column is dependent,
    so a size where every candidate has more columns to test than rows is
    answered by its first candidate (with no block rows: any nrows + 1
    columns).  `budget` caps the candidates examined: ValueError when it is
    negative and, before any is tested, as soon as the running count of
    candidates over the sizes that need a test passes it.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget {budget} must be non-negative")
    n = len(columns)
    if n == 0 or max_size < 1:
        return None
    cols = np.array(columns, dtype=np.int64)
    nrows = cols.shape[1]
    r = detect_block_locality(cols.T)
    blocks = 0 if r is None else n // (r + 1)
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
    _, width, least = _groups(n, blocks)
    # the vector tested for column y when its block's first pick is y - o:
    # their difference on the rows below the block rows, or y itself with
    # no block rows
    rest = cols[:, blocks:]
    base = rest if blocks else np.zeros_like(rest)
    diffs = field.sub_array(rest[:, None, :], base[np.maximum(np.arange(n)[:, None] - np.arange(width), 0)])
    table = _completion_tables(counts, n, blocks)
    for w in sizes:
        if len(counts) == w:
            counts.append(next(more_counts))
            table = _completion_tables(counts, n, blocks)
        for picks, dep in _leaves(field, diffs, table[:, : w + 1], width, least):
            if dep.any():
                return tuple(int(v) for v in picks[int(np.argmax(dep))])
    return None
