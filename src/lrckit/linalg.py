"""Dense linear algebra over GF(q).

Row reduction, rank, nullspace and solving take and return plain lists of
ints but eliminate on numpy arrays through the field's array operations
(table lookups for extension fields, modular arithmetic for prime ones).
The search for small dependent column sets is the hot path of distance
verification, so it batches Gaussian elimination over many column subsets
at once on the same operations.  Enumeration is chunked but strictly
lexicographic: the returned witness is always the lexicographically least
dependent subset of the smallest size, independent of chunk boundaries.
"""

from __future__ import annotations

from math import comb
from typing import Optional, Sequence

import numpy as np

from .gf import GF

Matrix = Sequence[Sequence[int]]


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
        inv_piv = field.inv_table[batch[:, j, j]]
        factors = field.mul_array(batch[:, j + 1 :, j], inv_piv[:, None])
        batch[:, j + 1 :, j:] = field.sub_array(
            batch[:, j + 1 :, j:], field.mul_array(factors[:, :, None], batch[:, j : j + 1, j:])
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
            dep = _dependent_mask(field, batch)
            if dep.any():
                return block[int(np.argmax(dep))]
    return None
