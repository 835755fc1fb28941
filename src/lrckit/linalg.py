"""Dense linear algebra over GF(q).

Scalar routines (row reduction, rank, nullspace, solving) work on plain
lists of ints and are written for clarity.  The search for small dependent
column sets is the hot path of distance verification, so it batches
Gaussian elimination over many column subsets at once with numpy, using
table lookups for extension fields and modular arithmetic for prime ones.
Enumeration is chunked but strictly lexicographic: the returned witness is
always the lexicographically least dependent subset of the smallest size,
independent of chunk boundaries.
"""

from __future__ import annotations

import weakref
from math import comb
from typing import Optional, Sequence

import numpy as np

from .gf import GF

Matrix = Sequence[Sequence[int]]


def rref(field: GF, rows: Matrix) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form.

    Args:
        field: arithmetic context.
        rows: matrix as a sequence of equal-length rows.

    Returns:
        (reduced_rows, pivot_columns).  Pivoting is deterministic: for each
        column, the first row (top to bottom) with a nonzero entry becomes
        the pivot row.
    """
    work = [list(row) for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    prow = 0
    for col in range(ncols):
        sel = None
        for r in range(prow, len(work)):
            if work[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        work[prow], work[sel] = work[sel], work[prow]
        scale = field.inv(work[prow][col])
        if scale != 1:
            work[prow] = [field.mul(scale, v) for v in work[prow]]
        for r in range(len(work)):
            if r != prow and work[r][col] != 0:
                f = work[r][col]
                work[r] = [field.sub(v, field.mul(f, pv)) for v, pv in zip(work[r], work[prow])]
        pivots.append(col)
        prow += 1
        if prow == len(work):
            break
    return work, pivots


def rank(field: GF, rows: Matrix) -> int:
    return len(rref(field, rows)[1])


def nullspace_basis(field: GF, rows: Matrix) -> list[list[int]]:
    """Basis of the right nullspace, one vector per non-pivot column.

    Vector for free column f has a 1 at position f and zeros at every other
    free position, so the basis is in systematic form with respect to the
    free columns (taken in ascending order).
    """
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = field.neg(red[i][f])
        basis.append(vec)
    return basis


def solve(field: GF, a_rows: Matrix, b: Sequence[int]) -> tuple[str, Optional[list[int]]]:
    """Solve A x = b.  Returns (status, x) with status in {unique, none, many}.

    For 'many' a particular solution is returned (free variables set to 0);
    for 'none' the solution slot is None.
    """
    if len(a_rows) != len(b):
        raise ValueError("right-hand side length does not match row count")
    if not a_rows:
        return "many", []
    ncols = len(a_rows[0])
    aug = [list(row) + [bv] for row, bv in zip(a_rows, b)]
    red, pivots = rref(field, aug)
    if ncols in pivots:
        return "none", None
    x = [0] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    status = "unique" if len(pivots) == ncols else "many"
    return status, x


class _VecField:
    """numpy-vectorised field operations derived from a GF context."""

    def __init__(self, field: GF):
        self.q = field.q
        self.p = field.p
        self.e = field.e
        q = field.q
        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            inv[a] = field.inv(a)
        self.inv_table = inv
        if field.e > 1:
            assert field.exp_table is not None and field.log_table is not None
            self.exp = np.array(field.exp_table, dtype=np.int64)
            log = np.array(field.log_table, dtype=np.int64)
            log[0] = 0  # masked out before use
            self.log = log

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return (x * y) % self.p
        nz = (x != 0) & (y != 0)
        out = self.exp[(self.log[x] + self.log[y]) % (self.q - 1)]
        return np.where(nz, out, 0)

    def sub(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.e == 1:
            return (x - y) % self.p
        if self.p == 2:
            return x ^ y
        out = np.zeros(np.broadcast(x, y).shape, dtype=np.int64)
        xx, yy, mult = x, y, 1
        for _ in range(self.e):
            out += ((xx - yy) % self.p) * mult
            xx = xx // self.p
            yy = yy // self.p
            mult *= self.p
        return out


# keyed by the field object itself: an entry dies with its field, so a new
# field never picks up tables by reusing a freed field's id()
_VEC_CACHE: weakref.WeakKeyDictionary[GF, _VecField] = weakref.WeakKeyDictionary()


def _vec_field(field: GF) -> _VecField:
    vf = _VEC_CACHE.get(field)
    if vf is None:
        vf = _VecField(field)
        _VEC_CACHE[field] = vf
    return vf


def _dependent_mask(vf: _VecField, batch: np.ndarray) -> np.ndarray:
    """batch has shape (B, R, W); True where the W columns are dependent."""
    nb, nrows, ncols = batch.shape
    dep = np.zeros(nb, dtype=bool)
    if ncols > nrows:
        dep[:] = True
        return dep
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
        inv_piv = vf.inv_table[batch[:, j, j]]
        factors = vf.mul(batch[:, j + 1 :, j], inv_piv[:, None])
        batch[:, j + 1 :, j:] = vf.sub(
            batch[:, j + 1 :, j:], vf.mul(factors[:, :, None], batch[:, j : j + 1, j:])
        )
    return dep


def subset_search_cost(n: int, max_size: int) -> int:
    """Number of column subsets examined by smallest_dependent_subset."""
    return sum(comb(n, w) for w in range(1, min(max_size, n) + 1))


def smallest_dependent_subset(
    field: GF,
    columns: Sequence[Sequence[int]],
    max_size: int,
    budget: Optional[int] = None,
    chunk: int = 16384,
) -> Optional[tuple[int, ...]]:
    """Least dependent column subset of size <= max_size, or None.

    Sizes are scanned in ascending order and, within a size, subsets in
    lexicographic order, so the result is the lexicographically least
    witness of the smallest dependent size.  `budget` caps the number of
    subsets examined (ValueError when the scan would exceed it).
    """
    n = len(columns)
    if n == 0 or max_size < 1:
        return None
    if budget is not None:
        cost = subset_search_cost(n, max_size)
        if cost > budget:
            raise ValueError(f"subset scan of {cost} exceeds budget {budget}")
    nrows = len(columns[0])
    cols_np = np.array(columns, dtype=np.int64)
    vf = _vec_field(field)
    from itertools import combinations, islice

    for w in range(1, min(max_size, n) + 1):
        if w > nrows:
            return tuple(range(w))  # more columns than rows is always dependent
        gen = combinations(range(n), w)
        while True:
            block = list(islice(gen, chunk))
            if not block:
                break
            sel = np.array(block, dtype=np.intp)
            batch = cols_np[sel].transpose(0, 2, 1).copy()
            dep = _dependent_mask(vf, batch)
            if dep.any():
                return block[int(np.argmax(dep))]
    return None
