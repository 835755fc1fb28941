"""The benchmark's own correctness checks, independent of the code under test.

The coverage check uses the closed form for t <= 3 instead of the
package's collection walk, and rank and syndromes are computed here with
numpy (or plain elimination for small extension-field matrices).  Only
the field's scalar operations and log tables are borrowed from `GF`.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


class Mismatch(Exception):
    """A program output failed one of the benchmark's checks."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def coverage_ok(sets, r: int, t: int) -> bool:
    """Every s <= t sets cover at least s*r + 1 values (t in {2, 3}).

    s = 2 asks |A & B| <= 1.  Given that, three sets cover
    3(r+1) - |AB| - |AC| - |BC| + |ABC| values, which falls to 3r only
    when all three pairs meet and no element is common to all three.
    """
    if t not in (2, 3):
        raise ValueError("closed-form coverage check covers t = 2 and t = 3")
    blocks = [frozenset(s) for s in sets]
    owner: dict[tuple[int, int], int] = {}
    meets: dict[int, set[int]] = {i: set() for i in range(len(blocks))}
    for i, b in enumerate(blocks):
        for pair in combinations(sorted(b), 2):
            if pair in owner:
                return False  # two sets share two elements
            owner[pair] = i
    for i, j in combinations(range(len(blocks)), 2):
        if blocks[i] & blocks[j]:
            meets[i].add(j)
            meets[j].add(i)
    if t == 2:
        return True
    for i, j in combinations(range(len(blocks)), 2):
        if j not in meets[i]:
            continue
        for k in meets[i] & meets[j]:
            if k > j and not (blocks[i] & blocks[j] & blocks[k]):
                return False
    return True


def rank(field, rows) -> int:
    """Rank over GF(q): numpy mod p for prime fields, plain elimination otherwise."""
    if field.e == 1:
        p = field.p
        a = np.array(rows, dtype=np.int64) % p
        rk = 0
        for col in range(a.shape[1]):
            nz = np.nonzero(a[rk:, col])[0]
            if nz.size == 0:
                continue
            piv = rk + nz[0]
            a[[rk, piv]] = a[[piv, rk]]
            a[rk] = a[rk] * pow(int(a[rk, col]), p - 2, p) % p
            others = np.nonzero(a[:, col])[0]
            others = others[others != rk]
            a[others] = (a[others] - a[others, col][:, None] * a[rk]) % p
            rk += 1
            if rk == a.shape[0]:
                break
        return rk
    work = [list(row) for row in rows]
    rk = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rk, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rk], work[piv] = work[piv], work[rk]
        inv = field.inv(work[rk][col])
        work[rk] = [field.mul(inv, v) for v in work[rk]]
        for i in range(len(work)):
            if i != rk and work[i][col]:
                f = work[i][col]
                work[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(work[i], work[rk])]
        rk += 1
    return rk


def dependent(field, rows, cols) -> bool:
    """The columns `cols` of the matrix `rows` are linearly dependent."""
    return rank(field, [[row[j] for j in cols] for row in rows]) < len(cols)


def syndrome_is_zero(field, rows, word) -> bool:
    """H w = 0, computed with numpy for prime and characteristic-2 fields."""
    h = np.array(rows, dtype=np.int64)
    w = np.array(word, dtype=np.int64)
    if field.e == 1:
        return not np.any((h % field.p) @ w % field.p)
    if field.p == 2:
        log = np.array(field.log_table, dtype=np.int64)
        exp = np.array(field.exp_table, dtype=np.int64)
        nz = (h != 0) & (w != 0)[None, :]
        prod = np.where(nz, exp[(log[h] + log[w][None, :]) % (field.q - 1)], 0)
        return not np.any(np.bitwise_xor.reduce(prod, axis=1))
    raise ValueError("syndrome check covers prime and characteristic-2 fields")
