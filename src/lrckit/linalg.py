"""Dense linear algebra over GF(q).

Row reduction, rank, nullspace and solving take and return plain lists of
ints and share one elimination, rref, on numpy arrays through the field's
array operations (table lookups for extension fields, modular arithmetic
for prime ones).

The search for small dependent column sets is the hot path of distance
verification.  A smallest dependent set is the support of one codeword, so
when the leading m rows are block indicators (as in every code `lrc`
builds) each of them sums that codeword over its block, and the support
meets every block in 0 or >= 2 columns: only such supports are scanned.
Solving each touched block's indicator row for its first chosen column
turns the test of a support into one of its other columns minus their
block's first column, on the rows below the block rows; these differences
are built once per matrix (_ScanState).  The supports of one size are
walked once as a tree of their sorted prefixes, each prefix made once.
Each node carries the annihilator of its prefix's tested vectors, so a
new column costs one matrix-vector product and one rank-one update; the
products of a whole batch of nodes are one field kernel (GF.dot_array).
Leaves come in lexicographic order, a batch at a time, so the returned
witness is always the lexicographically least dependent subset of the
smallest size, independent of batch sizes.

When the p >= 1 rows below m >= 1 block rows are Vandermonde (row m + e
is row m raised to the power e + 1, entry by entry, as in every code `lrc`
builds), sizes up to p + 1 = d - 1 need no walk.  Read H as a bipartite
graph: one vertex per block, one per value (a column's entry in row m), and
one edge per column, from its block to its value.  A circuit S (a
dependent set whose proper subsets are independent) of at most p + 1
columns holds every value in S, 0 included, in at least two of its columns.
Proof: let c be a codeword with support S and C_v the sum of c_j over S's
columns of value v.  The block rows sum to the all-ones row, so with the
power rows sum_v C_v v**e = 0 for e = 0..p: p + 1 equations, a Vandermonde
system on the distinct values of S.  S has at most p + 1 of them, so every
C_v is 0, while a value held by one column j would give C_v = c_j != 0.  S
meets each block it touches twice or more too, so its edges have minimum
degree 2 and hold a cycle.  A cycle is dependent: coefficients +1 and -1
alternating around it cancel at each of its blocks and values (two columns
of one block with one value are a 2-edge cycle).  So S is that cycle, and
as every dependent set of the least size is a circuit, up to size p + 1 the
smallest dependent sets are the column sets of the shortest cycles
(_shortest_cycle).  The walk starts at p + 2, and the budget still counts
every candidate from size 1, so no refusal moves.
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
    """Rank of `rows`: the number of rref's pivots."""
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
    """diffs[y, a] for a < width: column y of the rows below the block rows
    (`below`, one row per column) less column a of y's block; column y
    itself when there are no block rows (width 1).  A block row sums a
    codeword over its block, so solving it for one column of the block
    turns each other column into its difference from that one."""
    n, nrows = below.shape
    base = below if blocks else np.zeros_like(below)
    return field.sub_array(below[:, None, :], base.reshape(n // width, width, nrows)[np.arange(n) // width])


class _ScanState:
    """The block structure of one matrix, built once from its rows for the
    scan and keeping no reference to them.  Only the rows below the block
    rows are converted to an array; they give the block differences, the
    scan's columns (the block rows written from the layout) and `values`:
    row m when the p >= 1 rows below m >= 1 block rows are its powers
    1..p (each row is the one above it times row m), else None."""

    def __init__(self, field: GF, rows: Matrix):
        self.field = field
        self.blocks, self.width = _block_layout(rows)
        n = np.shape(rows[:1])[-1]  # the column count, read from one row at most
        below = field.array(rows[self.blocks :]).reshape(len(rows) - self.blocks, n)
        self.diffs = _block_differences(field, below.T, self.blocks, self.width)
        self.least = _groups(n, self.blocks)[2]
        indicators = np.arange(n) // self.width == np.arange(self.blocks)[:, None]
        self.columns = np.vstack([indicators, below]).T
        powers = self.blocks and len(below) and np.array_equal(field.mul_array(below[:-1], below[0]), below[1:])
        self.values: Optional[list[int]] = below[0].tolist() if powers else None


def _shortest_cycle(x: Sequence[int], width: int, limit: int) -> Optional[tuple[int, ...]]:
    """Least sorted column tuple over the shortest cycles of at most `limit`
    edges, or None, in the graph with one edge per column j, from block
    j // width to value x[j].  Each cycle is grown from its least column c0:
    paths from c0's value through later columns, two edges a step (a column
    to a new block, another of that block's columns to a new value), closed
    by a later column of c0's block holding the last value.  A step grows
    every path, so c0's first closed paths are its shortest cycles, and a
    later c0 looks only for shorter ones."""
    holders: dict[int, list[int]] = {}
    for j, v in enumerate(x):
        holders.setdefault(v, []).append(j)
    best = None
    for c0, v0 in enumerate(x):
        home = c0 // width
        paths = [((), (home,), (v0,))]  # (columns after c0, blocks, values)
        for size in range(2, limit + 1, 2):
            closed = [cols + (c,) for cols, _, vals in paths for c in holders[vals[-1]]
                      if c > c0 and c // width == home]
            if closed:
                best, limit = (c0, *min(sorted(cols) for cols in closed)), size - 2
                break
            paths = [(cols + (c, e), blocks + (c // width,), vals + (x[e],))
                     for cols, blocks, vals in paths for c in holders[vals[-1]] if c > c0 and c // width not in blocks
                     for e in range(c - c % width, c - c % width + width) if e > c0 and e != c and x[e] not in vals]
    return best


def _groups(n: int, blocks: int) -> tuple[int, int, int]:
    """(count, width, fewest columns a touched one holds) of the column
    groups a support is built from: the blocks, or single columns when
    there are no block rows."""
    return (blocks, n // blocks, 2) if blocks else (n, 1, 1)


def _support_counts(n: int, blocks: int):
    """Yield, for v = 1, 2, ..., n, the number of v-column supports: the
    coefficient of x**v in P(x)**groups for P = 1 + sum C(width, s) x**s
    over the sizes s a touched group may have.  Each comes from J. C. P.
    Miller's recurrence v a_v = sum_s ((groups + 1) s - v) p_s a_(v-s), in
    exact integers.  Only the budget reads them; the walk decides by rule
    which columns can complete a support (_reachable)."""
    groups, width, least = _groups(n, blocks)
    a = [1]
    for v in range(1, n + 1):
        a.append(sum(((groups + 1) * s - v) * comb(width, s) * a[v - s]
                     for s in range(least, min(v, width) + 1)) // v)
        yield a[v]


def _reachable(n: int, blocks: int, w: int) -> np.ndarray:
    """The columns a pick of a w-support may take with v picks still to
    come, for each v < w, ascending and padded with n: entry [0, v] for a
    pick that continues its block, which then owes no more picks, and
    [1, v] for one that opens a group, which then owes least - 1.  Column y
    qualifies when, for some e no less than its group owes, e of the v
    picks fit after y in its group and the other u = v - e fit the j groups
    after y's: ceil(u / width), the fewest groups u columns need, is at
    most both j and u // least, the most groups they can touch."""
    groups, width, least = _groups(n, blocks)
    y = np.arange(n)
    later = groups - 1 - y // width
    reach = np.zeros((2, w, n), dtype=bool)
    for e in range(min(w, width)):
        # e more picks among the columns after y in its block, u for later groups
        u = np.arange(w - e)[:, None]
        fits = (y % width + e < width) & (-(-u // width) <= np.minimum(later, u // least))
        reach[0, e:] |= fits
        if e >= least - 1:
            reach[1, e:] |= fits
    ends = np.argsort(~reach, axis=2, kind="stable")
    ends[y >= reach.sum(axis=2, keepdims=True)] = n
    return ends


def _children(level, width, x, free, limit):
    """Expand the first nodes of a depth, as many as keep their children
    within `limit` and at least one.  Returns how many were expanded and
    their children in order, as (parent, column, whether it continues its
    parent's block).

    A node is its last pick x and whether x's group is free, owing no more
    picks.  A child may take a later column of its parent's block or, once
    that group is free, any column after it.  `level` holds the columns a
    child may end in (_reachable), continuing a block and opening a group.
    """
    cont, opens = level
    end = (x // width + 1) * width
    at = np.searchsorted(cont, x + 1)
    k_in = np.searchsorted(cont, end) - at
    op = np.searchsorted(opens, end)
    kids = k_in + np.where(free, np.searchsorted(opens, len(opens)) - op, 0)
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
    dependent.  The caller stops at the first batch with a dependent leaf.

    A node is a prefix of picks and whether its last pick's group is free,
    owing no more picks; its children (_children) are the later columns
    from which the support can still be completed (_reachable), in
    ascending order.  Each depth keeps its unexpanded nodes in order, and each step
    expands the first nodes of the deepest depth that has any.  Every node
    waiting at a depth then precedes, in leaf order, every node waiting at a
    shallower one, so leaves come in lexicographic order and each prefix is
    made once.  A leaf step makes at most a batch of leaves, which starts at
    _CHUNK / 64 and doubles after each leaf step up to _CHUNK, so that a
    scan whose witness comes early walks few leaves; a step below the leaves
    makes at most an eighth of a batch (and at least _CHUNK / 64), so few
    nodes wait.

    Each node carries N, whose rows span the annihilator of its tested
    vectors: diffs[y, a % width] for a pick y whose block's first pick is a
    (a = y for that first pick, tested only with no block rows).  A child's
    vector is tested by u = N v, one GF.dot_array call for the batch: u = 0
    means it lies in the prefix's span; otherwise N takes one rank-one
    update that clears the row of u's first nonzero entry.  Once N has no rows left, every tested vector gives
    u = 0.  Only leaves are judged: a proper prefix tests the vectors of a
    support of a smaller size (less its last pick when that opens a block),
    and smallest_dependent_subset walks a size only once every smaller one
    has no dependent support.
    """
    w, nrows = ends.shape[1], diffs.shape[2]
    # the root: no picks, a free group, N the identity
    root = (np.empty((1, 0), dtype=np.int64), np.array([-1]), np.array([True]), np.array([-1]),
            np.eye(nrows, dtype=np.int64)[None], np.zeros(1, dtype=np.int64))
    waiting = [root] + [None] * (w - 1)
    size, i = max(_CHUNK >> 6, 1), 0
    while i >= 0:
        picks, x, free, anchor, ann, dim = waiting[i]
        leaf = i + 1 == w
        limit = size if leaf else max(size >> 3, _CHUNK >> 6)
        take, parent, y, inside = _children(ends[:, w - 1 - i], width, x, free, limit)
        waiting[i] = tuple(a[take:] for a in waiting[i]) if take < len(x) else None
        anc = np.where(inside, anchor[parent], y)
        sub = ann[parent]
        u = field.dot_array(sub, diffs[y, anc % width][:, None, :], axis=2)
        picks = np.concatenate([picks[parent], y[:, None]], axis=1)
        if leaf:
            # a leaf never opens a block, so each one's vector is tested
            dep = np.einsum("ij->i", u) == 0
            yield picks, dep
            size = min(2 * size, _CHUNK)
        elif len(y):
            # N's rows are nonzero exactly above row nrows - dim, dim the rank
            # of the tested vectors: the update clears the pivot's row and
            # moves the last nonzero row into it
            dim = dim[parent]
            hit = np.flatnonzero(np.einsum("ij->i", u))
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
            # a pick that continues a block frees it; one that opens a group
            # frees it only when a group may hold one column (no block rows)
            waiting[i + 1] = (picks, y, inside | (least == 1), anc, sub[:, : nrows - dim.min()], dim)
        i = max((k for k in range(w) if waiting[k] is not None), default=-1)


def smallest_dependent_subset(
    field: GF,
    columns: Sequence[Sequence[int]],
    max_size: int,
    budget: Optional[int] = None,
    state: Optional[_ScanState] = None,
) -> Optional[tuple[int, ...]]:
    """Least dependent column subset of size <= max_size, or None.

    Sizes are scanned in ascending order and, within a size, subsets in
    lexicographic order, so the result is the lexicographically least
    witness of the smallest dependent size.  Only supports that meet every
    block of the leading block-indicator rows (detect_block_locality) in 0
    or >= 2 columns are candidates; with no block rows every subset is.
    Up to size nrows - blocks + 1, a matrix whose rows below the blocks
    are Vandermonde is answered by its shortest cycles (module docstring).
    Each size walks the prefix tree of its candidates once (_leaves): a
    column is tested against the annihilator of the vectors its prefix has
    tested, and only whole candidates are judged, since a proper prefix
    tests the vectors of a smaller candidate.  Once those vectors span
    the rows below the block rows every later tested column is dependent,
    so a size where every candidate has more columns to test than rows is
    answered by its first candidate (with no block rows: any nrows + 1
    columns).  `budget` caps the candidates counted from size 1 over the
    sizes that need a test, including the sizes the shortest cycles answer
    with no walk: ValueError when it is negative and, before any candidate
    is tested, as soon as that running count passes it.

    `state`, the matrix's _ScanState passed with its own field and `columns`
    (ValueError otherwise), saves rebuilding the block differences.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget {budget} must be non-negative")
    if state is None:
        state = _ScanState(field, np.array(columns, dtype=np.int64).T)
    elif columns is not state.columns or field is not state.field:
        raise ValueError("the scan state was built for another matrix")
    n, nrows = state.columns.shape
    blocks, top, cost = state.blocks, min(max_size, n), 0
    for w, count in zip(range(1, top + 1), _support_counts(n, blocks)):
        # a w-support touches at most min(blocks, w // 2) blocks, and
        # each touched block takes one column off the test
        if count and w - min(blocks, w // 2) > nrows - blocks:
            top = w  # this size and every larger one is dependent by counting
            break
        cost += count
        if budget is not None and cost > budget:
            raise ValueError(f"budget exceeded: {n} columns pass {budget} subsets at size {w}")
    first = 1
    if state.values is not None:
        short = nrows - blocks + 1
        cycle = _shortest_cycle(state.values, state.width, min(top, short))
        if cycle is not None:
            return cycle
        first = short + 1
    if first <= top:
        # the rows for v < w serve every walked size w
        ends = _reachable(n, blocks, top)
        for w in range(first, top + 1):
            for picks, dep in _leaves(field, state.diffs, ends[:, :w], state.width, state.least):
                if dep.any():
                    return tuple(int(v) for v in picks[int(np.argmax(dep))])
    return None
