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
turns the test of W columns touching k blocks into one of the W - k other
columns minus their block's first column, on the R - m remaining rows, and
W - k > R - m is dependent without elimination.  Candidates are unranked
in chunks in lexicographic order, so the returned witness is always the
lexicographically least dependent subset of the smallest size, independent
of chunk boundaries.
"""

from __future__ import annotations

from math import comb
from typing import Optional, Sequence

import numpy as np

from .gf import GF

Matrix = Sequence[Sequence[int]]

_CHUNK = 16384  # candidate supports unranked and tested per batch in smallest_dependent_subset
_CAP = 1 << 62  # unranking tables saturate here so ranks fit int64; no scan gets this far


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


def _dependent_mask(field: GF, batch: np.ndarray) -> np.ndarray:
    """batch has shape (B, R, W), W <= R; True where the W columns are dependent."""
    nb, nrows, ncols = batch.shape
    dep = np.zeros(nb, dtype=bool)
    idx = np.arange(nb)
    for j in range(ncols):
        colpart = batch[:, j:, j]
        nzmask = colpart != 0
        has = nzmask.any(axis=1)
        dep |= ~has
        if dep.all():
            return dep
        piv = j + np.argmax(nzmask, axis=1)
        saved = batch[idx, j, :].copy()
        batch[idx, j, :] = batch[idx, piv, :]
        batch[idx, piv, :] = saved
        if j + 1 >= nrows:
            continue
        inv_piv = field.inv_table[batch[:, j, j]]
        factors = field.mul_array(batch[:, j + 1 :, j], inv_piv[:, None])
        batch[:, j + 1 :, j:] = field.sub_array(
            batch[:, j + 1 :, j:], field.mul_array(factors[:, :, None], batch[:, j : j + 1, j:])
        )
    return dep


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


def _unrank_tables(counts: list, n: int, blocks: int) -> np.ndarray:
    """Completion counts for unranking supports of size len(counts) - 1,
    saturated at _CAP; `counts` are the first rows of _support_counts.

    Entry [kind, v, y] counts the ways to make the last v picks with the
    first of them at column y or later: kind 0 when y's block holds no
    earlier pick, kind 1 + need when it does and needs `need` more.
    Column n stands for past the end.
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
    return np.minimum(table, _CAP).astype(np.int64)


def _unrank(table: np.ndarray, width: int, least: int, ranks: np.ndarray) -> np.ndarray:
    """The supports of lexicographic rank `ranks`, one sorted row each.

    Columns are picked left to right.  After a pick at x, with c picks in
    its block, the completions whose next pick lies at y or later number
    table[1 + need, v, y] for y inside x's block, need = max(least - c, 0),
    and, only when need is 0, table[0, v, y] from the end of the block on.
    Both fall as y grows, so the next pick is the last y whose count is
    still at least the completions at x + 1 less the rank.
    """
    n, w = table.shape[2] - 1, table.shape[1] - 1
    picks = np.empty((len(ranks), w), dtype=np.int64)
    x = np.full(len(ranks), -1, dtype=np.int64)
    c = np.full(len(ranks), least, dtype=np.int64)
    rank = ranks
    for i in range(w):
        count = table[:, w - i]
        end = (x // width + 1) * width
        need = np.maximum(least - c, 0)
        free = need == 0
        inside = x + 1 < end
        target = np.where(inside, count[1 + need, x + 1], np.where(free, count[0, x + 1], 0)) - rank
        leave = free & (count[0, end] >= target)
        y = np.searchsorted(-count[0], -target, side="right") - 1  # row 0 never rises
        stay = np.flatnonzero(~leave)
        if stay.size:
            lo, hi, kind, tgt = x[stay] + 1, end[stay], 1 + need[stay], target[stay]
            while (hi - lo > 1).any():
                mid = (lo + hi) // 2
                ok = count[kind, mid] >= tgt
                lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
            y[stay] = lo
        rank = np.where(leave, count[0, y], count[1 + need, y]) - target
        c = np.where(leave, 1, c + 1)
        x = picks[:, i] = y
    return picks


def _supports(counts: list, n: int, blocks: int):
    """Chunks of every support of size len(counts) - 1 meeting each block in
    0 or >= 2 columns, as sorted index rows in lexicographic order; `counts`
    are the first rows of _support_counts."""
    total = int(counts[-1][-1])
    if total == 0:
        return
    _, width, least = _groups(n, blocks)
    table = _unrank_tables(counts, n, blocks)
    for start in range(0, total, _CHUNK):
        yield _unrank(table, width, least, np.arange(start, min(start + _CHUNK, total), dtype=np.int64))


def _dependent_supports(field: GF, cols: np.ndarray, blocks: int, sel: np.ndarray) -> np.ndarray:
    """True for each support row of `sel` whose columns of `cols` are dependent.

    With block rows, each column other than the first of its block is tested
    as itself minus that first column on the rows below the block rows."""
    nsel, w = sel.shape
    rest = cols[:, blocks:]
    free_rows = rest.shape[1]
    first = np.zeros((nsel, w), dtype=bool)
    if blocks:
        block = sel // (len(cols) // blocks)
        first[:, 0] = True
        first[:, 1:] = block[:, 1:] != block[:, :-1]
        anchor = np.maximum.accumulate(np.where(first, np.arange(w), 0), axis=1)
    touched = first.sum(axis=1)
    dep = np.empty(nsel, dtype=bool)
    for k in np.unique(touched):
        at = np.flatnonzero(touched == k)
        tested = w - int(k)
        if tested > free_rows:
            dep[at] = True  # more columns than rows
            continue
        other = ~first[at]
        batch = rest[sel[at][other].reshape(len(at), tested)]
        if blocks:
            base = np.take_along_axis(sel[at], anchor[at], axis=1)
            batch = field.sub_array(batch, rest[base[other].reshape(len(at), tested)])
        dep[at] = _dependent_mask(field, batch.transpose(0, 2, 1).copy())
    return dep


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
    or >= 2 columns are candidates; with no block rows every subset is.  A
    size where every candidate has more columns to test than rows to test
    them on is answered by its first candidate without elimination (with
    no block rows: any nrows + 1 columns).  `budget` caps the candidates
    examined: before any is tested, ValueError as soon as the running
    count of candidates over the sizes that need elimination passes it.
    """
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
    if budget is not None:
        cost = 0
        for w in sizes:
            # a w-support touches at most min(blocks, w // 2) blocks, and
            # each touched block takes one column off the test
            if w - min(blocks, w // 2) > nrows - blocks:
                break  # this size and every larger one is answered untested
            counts.append(next(more_counts))
            cost += int(counts[w][-1])
            if cost > budget:
                raise ValueError(f"budget exceeded: {n} columns pass {budget} subsets at size {w}")
    for w in sizes:
        if len(counts) == w:
            counts.append(next(more_counts))
        for sel in _supports(counts[: w + 1], n, blocks):
            dep = _dependent_supports(field, cols, blocks, sel)
            if dep.any():
                return tuple(int(v) for v in sel[int(np.argmax(dep))])
    return None
