"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own linear algebra:
column dependence is decided through sympy integer determinants reduced
mod p, Berge cycles through exhaustive edge-tuple search, and collision
probabilities through bare enumeration of completions.  The coverage
verifier and the greedy generator are checked against exhaustive walks over
every index collection of size <= t, the array row reduction against a
row-by-row elimination through the field's scalar operations, and the
prefix-tree distance scan against two slower routes: the loop over every
column subset in `itertools.combinations` order, and `reference_block_scan`,
the block-aware scan as it was before it walked a prefix tree (it
generates the supports pick by pick, without the package's support
counts, and eliminates each on its own).  `ReferenceSplitMix64`
computes the seeded stream one output at a time with Python integers, as
the package did before it drew its outputs in numpy blocks; it feeds
`reference_greedy` and the differential tests of `lrckit.rng`.  Field
arithmetic is checked against the schoolbook product (`reference_mul` and
`reference_pow`: base-p digits multiplied as polynomials and reduced by the
field's modulus one term at a time) and the digit-wise sum
(`reference_add`); none of them reads a table.
`reference_derandomized_family` is the derandomized construction's loop
as it was before it scored only competing values in integers: it scores
the least value of every membership signature over all of range(q) and
sums the estimator as `Fraction`s, each term from
`reference_collection_numerator`, the hand-derived pair and triple kernels
the package used before its union-size chain.  `reference_bfs_greedy` is
the greedy construction as it was before its bitmask test: a pair set and a
breadth-first search over adjacency sets.  Tests compare package output
against these slower routes.

Bytecode writing is off for the whole run, before any `lrckit` import, so
a tested checkout holds no `__pycache__` under `src/`.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import Optional, Sequence

import numpy as np
import pytest
from sympy import Matrix

from lrckit import derand, linalg
from lrckit.gf import GF
from lrckit.rng import SplitMix64
from lrckit.setfam import (
    SetFamily,
    Violation,
    formula_target,
    greedy_family,
    remove_violations,
    verify_union_condition,
)


# ---------------------------------------------------------------- oracles


_MASK64 = (1 << 64) - 1


class ReferenceSplitMix64:
    """SplitMix64 one output at a time: advance the counter by the odd
    constant, then mix it, all in Python integers masked to 64 bits."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    @staticmethod
    def _mix(z: int) -> int:
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        return self._mix(self._state)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("bound must be positive")
        k = (n - 1).bit_length()
        if k == 0:
            return 0
        while True:
            v = self.next64() >> (64 - k)
            if v < n:
                return v

    def subset(self, n: int, k: int) -> tuple[int, ...]:
        if k > n:
            raise ValueError(f"cannot draw {k} distinct values from [0, {n})")
        picked: set[int] = set()
        while len(picked) < k:
            picked.add(self.below(n))
        return tuple(sorted(picked))

    def spawn(self) -> "ReferenceSplitMix64":
        return ReferenceSplitMix64(self.next64())


def minors_dependent(rows: Sequence[Sequence[int]], idx: Sequence[int], p: int) -> bool:
    """Columns `idx` are dependent mod p iff every maximal square minor
    vanishes.  Prime fields only; determinants are exact integers."""
    w = len(idx)
    if w > len(rows):
        return True
    sub = [[row[j] for j in idx] for row in rows]
    for rsel in itertools.combinations(range(len(rows)), w):
        if Matrix([sub[i] for i in rsel]).det() % p != 0:
            return False
    return True


def minors_min_distance(
    rows: Sequence[Sequence[int]], n: int, p: int, cap: int
) -> Optional[tuple[int, tuple[int, ...]]]:
    """Smallest dependent column set by brute enumeration, with witness."""
    for w in range(1, cap + 1):
        for idx in itertools.combinations(range(n), w):
            if minors_dependent(rows, idx, p):
                return w, idx
    return None


def berge_cycle_exists(edges: Sequence[frozenset[int]], max_len: int) -> bool:
    """Berge cycle of length 2..max_len: distinct edges e_1..e_l and
    distinct vertices v_1..v_l with v_i in e_i and in e_{i+1} (cyclically).
    Pure backtracking over ordered edge tuples; exponential but tiny here."""

    def distinct_reps(cands: list[set[int]]) -> bool:
        def rec(i: int, used: set[int]) -> bool:
            if i == len(cands):
                return True
            for v in cands[i] - used:
                if rec(i + 1, used | {v}):
                    return True
            return False

        return rec(0, set())

    for length in range(2, max_len + 1):
        for combo in itertools.permutations(range(len(edges)), length):
            cands = [
                set(edges[combo[i]] & edges[combo[(i + 1) % length]])
                for i in range(length)
            ]
            if all(cands) and distinct_reps(cands):
                return True
    return False


def collision_probability(q: int, size: int, fixed: Sequence[frozenset[int]]) -> Fraction:
    """P(|union| <= (size-1)*s) over uniform completions of the partially
    fixed sets, by full enumeration."""
    s = len(fixed)
    pools = []
    for f in fixed:
        rest = [x for x in range(q) if x not in f]
        pools.append(list(itertools.combinations(rest, size - len(f))))
    total = 0
    bad = 0

    def rec(i: int, acc: list[set[int]]) -> None:
        nonlocal total, bad
        if i == s:
            total += 1
            if len(set().union(*acc)) <= (size - 1) * s:
                bad += 1
            return
        for comp in pools[i]:
            rec(i + 1, acc + [set(fixed[i]) | set(comp)])

    rec(0, [])
    return Fraction(bad, total)


def kernel_probability(q: int, size: int, fixed: Sequence[frozenset[int]]) -> Fraction:
    """The derandomized estimator's collection probability: its integer
    numerator over the product of the sets' weights."""
    denom = prod(derand._weight(q, size, len(f)) for f in fixed)
    return Fraction(derand._collection_numerator(q, size, list(fixed)), denom)


def _reference_tail(pop: int, succ: int, draws: int, lo: int) -> int:
    """Sum of C(succ, x) * C(pop - succ, draws - x) over x >= lo."""
    if lo <= 0:
        return comb(pop, draws)
    total = 0
    for x in range(lo, min(succ, draws) + 1):
        total += comb(succ, x) * comb(pop - succ, draws - x)
    return total


@lru_cache(maxsize=None)
def _reference_pair(q: int, size: int, fa: int, fb: int, c0: int) -> int:
    """P(|X_a intersect X_b| >= 2) for partially revealed sets, times the
    weight product.  X_a has fa fixed elements, c0 of which are shared with
    X_b's fb fixed ones; the remaining size-fa elements are a uniform subset
    of the q-fa unused values (likewise for X_b, independently)."""
    ua, ub = size - fa, size - fb
    na, nb = q - fa, q - fb
    if c0 >= 2:
        return comb(na, ua) * comb(nb, ub)
    ka = fb - c0  # fixed values of b that R_a can still hit
    num = 0
    for a1 in range(min(ua, ka) + 1):
        wa = comb(ka, a1) * comb(na - ka, ua - a1)
        if wa == 0:
            continue
        g_fix = fa - c0  # fixed values of a outside b's fixed part
        g_rand = ua - a1  # revealed-to-be-random values of a outside b's fixed part
        rest = nb - g_fix - g_rand
        if rest < 0:
            continue
        need = 2 - c0 - a1
        for b1 in range(min(ub, g_fix) + 1):
            for b2 in range(min(ub - b1, g_rand) + 1):
                if b1 + b2 < need:
                    continue
                num += wa * comb(g_fix, b1) * comb(g_rand, b2) * comb(rest, ub - b1 - b2)
    return num


@lru_cache(maxsize=None)
def _reference_triple(
    q: int, size: int, fa: int, fb: int, fc: int, fab: int, fac: int, fbc: int, fabc: int
) -> int:
    """P(the three sets cover at most 3*size - 3 values), i.e. the overlap
    excess |X_a ^ X_b| + |X_c ^ (X_a u X_b)| reaches 3, times the weight
    product.  Stage 1 spreads X_a's random part over the cells of [q] \\ F_a
    cut by (F_b, F_c) membership; stage 2 spreads X_b's random part over
    (inside X_a, inside the still-uncovered part of F_c, elsewhere); stage 3
    is a plain hypergeometric tail for X_c's random part hitting the union."""
    ua, ub, uc = size - fa, size - fb, size - fc
    na, nb, nc = q - fa, q - fb, q - fc
    n11 = fbc - fabc
    n10 = fb - fab - n11
    n01 = fc - fac - n11
    n00 = na - n11 - n10 - n01
    num = 0
    for a11 in range(min(ua, n11) + 1):
        for a10 in range(min(ua - a11, n10) + 1):
            w_10 = comb(n11, a11) * comb(n10, a10)
            for a01 in range(min(ua - a11 - a10, n01) + 1):
                a00 = ua - a11 - a10 - a01
                w1 = w_10 * comb(n01, a01) * comb(n00, a00)
                if w1 == 0:
                    continue
                in_b = fab + a11 + a10  # |X_a ^ F_b|
                in_c = fac + a11 + a01  # |X_a ^ F_c|
                g_xa = size - in_b  # X_a \ F_b, reachable by R_b
                g_newc = n01 - a01  # F_c \ (F_b u X_a), fresh coverage for R_b
                g_other = nb - g_xa - g_newc
                if g_other < 0:
                    continue
                fixed_bc = fbc - fabc - a11  # F_b ^ F_c outside X_a
                for b1 in range(min(ub, g_xa) + 1):
                    for b2 in range(min(ub - b1, g_newc) + 1):
                        w2 = comb(g_xa, b1) * comb(g_newc, b2) * comb(g_other, ub - b1 - b2)
                        if w2 == 0:
                            continue
                        k_ab = in_b + b1  # |X_a ^ X_b|
                        u2c = in_c + fixed_bc + b2  # |(X_a u X_b) ^ F_c|
                        union2 = 2 * size - k_ab
                        succ = union2 - u2c
                        assert succ >= 0
                        need = 3 - k_ab - u2c
                        num += w1 * w2 * _reference_tail(nc, succ, uc, need)
    return num


def reference_collection_numerator(q: int, size: int, fixed: Sequence[frozenset[int]]) -> int:
    """The collection numerator from the hand-derived overlap kernels the
    package used before its union-size chain: a pair fails when its sets
    share two values, a triple when its overlap excess reaches 3."""
    if len(fixed) == 2:
        a, b = fixed
        return _reference_pair(q, size, len(a), len(b), len(a & b))
    if len(fixed) == 3:
        a, b, c = fixed
        return _reference_triple(
            q, size, len(a), len(b), len(c), len(a & b), len(a & c), len(b & c), len(a & b & c)
        )
    raise ValueError("only collections of 2 or 3 sets are supported")


def reference_derandomized_pool(q: int, r: int, t: int) -> tuple[list[frozenset[int]], int]:
    """The 2m tracked sets of derandomized_family before violation removal:
    every value of range(q) outside the pivot set gets a membership
    signature, the least value of each signature is scored, and the
    estimator is summed as `Fraction`s, keeping the first minimum.  Also
    returns how many positions found every value outside the pivot set in
    another set, so that no value had the empty signature."""
    if t not in (2, derand.MAX_T):
        raise ValueError(f"supported t values are 2..{derand.MAX_T}")
    if r < 1 or r + 1 > q:
        raise ValueError("need 1 <= r and r+1 <= q")
    if q > derand.MAX_Q:
        raise ValueError(f"q={q} exceeds the supported maximum {derand.MAX_Q}")
    m = formula_target(q, r, t)
    nsets = 2 * m
    if nsets > derand.MAX_SETS:
        raise ValueError(
            f"target of {m} sets needs {nsets} tracked sets, above the cap {derand.MAX_SETS}"
        )
    size = r + 1

    def phi_over(parts: list[frozenset[int]], pivot: int) -> Fraction:
        others = [k for k in range(nsets) if k != pivot]
        total = Fraction(0)
        for s in range(2, t + 1):
            for rest in itertools.combinations(others, s - 1):
                fixed = [parts[pivot]] + [parts[k] for k in rest]
                denom = prod(comb(q - len(f), size - len(f)) for f in fixed)
                total += Fraction(reference_collection_numerator(q, size, fixed), denom)
        return total

    parts: list[frozenset[int]] = [frozenset() for _ in range(nsets)]
    exhausted = 0
    for i in range(nsets):
        for _ in range(size):
            before = phi_over(parts, i)
            rep: dict[tuple[bool, ...], int] = {}
            for c in range(q):
                if c in parts[i]:
                    continue
                sig = tuple(c in parts[k] for k in range(nsets) if k != i)
                if sig not in rep:
                    rep[sig] = c
            exhausted += (False,) * (nsets - 1) not in rep
            best_val: Optional[Fraction] = None
            best_c = -1
            for c in sorted(rep.values()):
                trial = parts.copy()
                trial[i] = parts[i] | {c}
                val = phi_over(trial, i)
                if best_val is None or val < best_val:
                    best_val, best_c = val, c
            assert best_val is not None and best_val <= before, "estimator must not increase"
            parts[i] = parts[i] | {best_c}
    return parts, exhausted


def reference_derandomized_family(q: int, r: int, t: int) -> SetFamily:
    """derandomized_family from `reference_derandomized_pool`."""
    pool, _ = reference_derandomized_pool(q, r, t)
    family = SetFamily(q, r, t, tuple(tuple(sorted(s)) for s in pool))
    return remove_violations(family, verify_union_condition(family))


def reference_violations(family: SetFamily) -> list[Violation]:
    """Minimal failing collections by walking every index collection of
    size 2..t in ascending size, lexicographically within a size, skipping
    any that contains an already-reported violation."""
    sets = [frozenset(s) for s in family.sets]
    m = len(sets)
    r = family.r
    found: list[Violation] = []
    found_keys: list[frozenset[int]] = []
    for size in range(2, min(family.t, m) + 1):
        limit = r * size

        def walk(start: int, chosen: tuple[int, ...], union: frozenset[int]) -> None:
            if len(chosen) == size:
                key = frozenset(chosen)
                if not any(v <= key for v in found_keys):
                    found.append(Violation(chosen, len(union)))
                    found_keys.append(key)
                return
            need = size - len(chosen)
            for i in range(start, m - need + 1):
                nu = union | sets[i]
                if len(nu) > limit:
                    continue  # unions only grow; this branch cannot fail at `size`
                walk(i + 1, chosen + (i,), nu)

        walk(0, (), frozenset())
    return found


def reference_greedy(
    q: int, r: int, t: int, candidate_budget: int, seed: int, target_m: Optional[int] = None
) -> SetFamily:
    """greedy_family with admissibility decided against every combination
    of up to t-1 accepted sets, from the same draws: a depth-first walk over
    the accepted sets in index order, from the candidate alone, that drops a
    branch once its union exceeds r * t."""
    rng = ReferenceSplitMix64(seed)
    accepted: list[frozenset[int]] = []

    def fails(start: int, size: int, union: frozenset[int]) -> bool:
        # the `size` sets walked so far, whose union is `union`, extend by
        # accepted sets from index `start` on to a collection of at most t
        # sets whose union has at most r elements per set
        for i in range(start, len(accepted)):
            nu = union | accepted[i]
            if len(nu) > r * t:
                continue  # unions only grow; no collection of <= t sets fits
            if len(nu) <= r * (size + 1) or (size + 1 < t and fails(i + 1, size + 1, nu)):
                return True
        return False

    for _ in range(candidate_budget):
        cand = frozenset(rng.subset(q, r + 1))
        if not fails(0, 1, cand):
            accepted.append(cand)
            if target_m is not None and len(accepted) >= target_m:
                break
    return SetFamily(q, r, t, tuple(tuple(sorted(s)) for s in accepted))


def _reference_bfs_joins(adj: dict[int, set[int]], values: Sequence[int], t: int) -> bool:
    """Whether a path of length <= t - 1 in `adj` joins two of the distinct
    `values`: floor(t/2) breadth-first layers grown from all of them at
    once, each value its own source, until an edge meets two sources."""
    source = {v: v for v in values}
    depth = dict.fromkeys(values, 0)
    layer = list(values)
    for d in range(t // 2):
        grown = []
        for u in layer:
            for w in adj.get(u, ()):
                sw = source.get(w)
                if sw is None:
                    source[w], depth[w] = source[u], d + 1
                    grown.append(w)
                elif sw != source[u] and d + depth[w] < t - 1:
                    return True
        layer = grown
    return False


def reference_bfs_greedy(
    q: int, r: int, t: int, candidate_budget: int, seed: int, target_m: Optional[int] = None
) -> SetFamily:
    """greedy_family as it was before its bitmask test, from the same draws
    taken one at a time: a pair set refuses a shared pair of values, and for
    t >= 3 the breadth-first search above, over the accepted sets' 2-section
    graph kept as adjacency sets, refuses any longer path of length <= t - 1."""
    rng = ReferenceSplitMix64(seed)
    accepted: list[tuple[int, ...]] = []
    adj: dict[int, set[int]] = {}
    pairs: set[tuple[int, int]] = set()
    for _ in range(candidate_budget):
        drawn = rng.subset(q, r + 1)
        if not pairs.isdisjoint(itertools.combinations(drawn, 2)):
            continue
        if t > 2 and _reference_bfs_joins(adj, drawn, t):
            continue
        for v in drawn:
            adj.setdefault(v, set()).update(w for w in drawn if w != v)
        pairs.update(itertools.combinations(drawn, 2))
        accepted.append(drawn)
        if len(accepted) == target_m:
            break
    return SetFamily(q, r, t, tuple(accepted))


def reference_rref(field: GF, rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form by scalar field calls, one row at a time,
    pivoting on the first nonzero row from the top in each column."""
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


_REFERENCE_CHUNK = 16384  # supports generated and eliminated per batch by reference_block_scan


def _reference_dependent_mask(field: GF, batch: np.ndarray) -> np.ndarray:
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


def _reference_supports(n: int, blocks: int, w: int):
    """Every w-subset of range(n) that meets each of `blocks` equal blocks
    of consecutive columns in 0 or >= 2 columns (every w-subset when blocks
    is 0), as sorted tuples in lexicographic order.  Columns are picked left
    to right, and a pick that is alone in its block so far may only be
    followed by another pick in that block."""
    width = n // blocks if blocks else n

    def extend(picks):
        x = picks[-1] if picks else -1
        alone = bool(blocks and picks) and (len(picks) < 2 or picks[-2] // width != x // width)
        if len(picks) == w:
            if not alone:
                yield picks
            return
        for y in range(x + 1, (x // width + 1) * width if alone else n):
            yield from extend(picks + (y,))

    return extend(())


def _reference_dependent_supports(field: GF, cols: np.ndarray, blocks: int, sel: np.ndarray) -> np.ndarray:
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
        dep[at] = _reference_dependent_mask(field, batch.transpose(0, 2, 1).copy())
    return dep


def reference_block_scan(
    field: GF, columns: Sequence[Sequence[int]], max_size: int
) -> Optional[tuple[int, ...]]:
    """Least dependent column subset of size <= max_size, or None, as the
    block-aware scan found it before it walked a prefix tree: the supports
    that meet each block in 0 or >= 2 columns come in lexicographic order
    from a generator of its own, and each is eliminated on its own, its
    non-first columns minus their block's first column below the block
    rows."""
    n = len(columns)
    if n == 0 or max_size < 1:
        return None
    cols = np.array(columns, dtype=np.int64)
    r = linalg.detect_block_locality(cols.T)
    blocks = 0 if r is None else n // (r + 1)
    for w in range(1, min(max_size, n) + 1):
        supports = _reference_supports(n, blocks, w)
        while batch := list(itertools.islice(supports, _REFERENCE_CHUNK)):
            sel = np.array(batch, dtype=np.int64)
            dep = _reference_dependent_supports(field, cols, blocks, sel)
            if dep.any():
                return tuple(int(v) for v in sel[int(np.argmax(dep))])
    return None


def reference_smallest_dependent_subset(
    field: GF, columns: Sequence[Sequence[int]], max_size: int
) -> Optional[tuple[int, ...]]:
    """Least dependent column subset of size <= max_size, or None, by
    eliminating every subset of each size in `itertools.combinations` order,
    blind to block rows; any nrows + 1 columns are dependent, so that size
    is answered without a subset."""
    n = len(columns)
    if n == 0 or max_size < 1:
        return None
    nrows = len(columns[0])
    cols = np.array(columns, dtype=np.int64)
    for w in range(1, min(max_size, n) + 1):
        if w > nrows:
            return tuple(range(w))
        gen = itertools.combinations(range(n), w)
        while True:
            block = list(itertools.islice(gen, 16384))
            if not block:
                break
            batch = cols[np.array(block, dtype=np.intp)].transpose(0, 2, 1).copy()
            dep = _reference_dependent_mask(field, batch)
            if dep.any():
                return block[int(np.argmax(dep))]
    return None


def reference_add(field: GF, a: int, b: int) -> int:
    """a + b with the base-p digits added mod p (integers mod p when e = 1)."""
    p = field.p
    return sum((a // p**i + b // p**i) % p * p**i for i in range(field.e))


def reference_mul(field: GF, a: int, b: int) -> int:
    """a * b by the schoolbook product: the base-p digits of a and b are
    multiplied as polynomials over GF(p), then the product is reduced by the
    monic `field.modulus` from the top degree down (integers mod p when
    e = 1)."""
    p, e = field.p, field.e
    if e == 1:
        return a * b % p
    da = [a // p**i % p for i in range(e)]
    db = [b // p**i % p for i in range(e)]
    prod = [0] * (2 * e - 1)
    for i, ca in enumerate(da):
        for j, cb in enumerate(db):
            prod[i + j] = (prod[i + j] + ca * cb) % p
    for k in range(2 * e - 2, e - 1, -1):
        c = prod[k]
        for j, mj in enumerate(field.modulus):
            prod[k - e + j] = (prod[k - e + j] - c * mj) % p
    return sum(prod[i] * p**i for i in range(e))


def reference_pow(field: GF, a: int, n: int) -> int:
    """a**n for n >= 0 by square and multiply through `reference_mul`,
    with 0**0 = 1."""
    out = 1
    while n:
        if n & 1:
            out = reference_mul(field, out, a)
        a = reference_mul(field, a, a)
        n >>= 1
    return out


# ---------------------------------------------------------------- corpus

CORPUS_QS = [11, 13, 16, 17, 19, 23, 25, 27, 29, 31]
CORPUS_RS = [3, 4, 5]
CORPUS_DS = [5, 6, 7]


def _forced_triple(q: int, r: int, t: int) -> Optional[SetFamily]:
    # three sets chained through single shared elements: pairwise fine,
    # union 3r, so the size-3 coverage test fails
    pool = list(range(q))
    a = pool[: r + 1]
    b = [a[0]] + pool[r + 1 : 2 * r + 1]
    c = [a[1], b[1]] + pool[2 * r + 1 : 3 * r]
    if len(c) != r + 1 or len(set(a) | set(b) | set(c)) != 3 * r:
        return None
    return SetFamily(q, r, t, (tuple(a), tuple(sorted(b)), tuple(sorted(c))))


def build_equivalence_corpus() -> list[tuple[SetFamily, int]]:
    """Mixed corpus for the two equivalence suites: raw random draws
    (violations arise naturally at small q), greedy-verified families,
    and deliberately broken variants of the verified ones."""
    corpus: list[tuple[SetFamily, int]] = []
    rng = SplitMix64(20260814)
    for q in CORPUS_QS:
        for r in CORPUS_RS:
            for d in CORPUS_DS:
                t = (d - 1) // 2
                m_hi = 3 if (r == 5 and d == 7) else 5
                for _ in range(3):
                    m = 2 + rng.below(m_hi - 1)
                    sets = tuple(rng.subset(q, r + 1) for _ in range(m))
                    corpus.append((SetFamily(q, r, t, sets), d))
                fam = greedy_family(q, r, t, 512, seed=rng.next64() & 0xFFFF, target_m=min(m_hi, 4))
                if fam.m < 2:
                    continue
                corpus.append((fam, d))
                # overwrite set 1 so it shares two elements with set 0
                s0 = list(fam.sets[0])
                others = [x for x in range(q) if x not in s0[:2]]
                bad = tuple(sorted(s0[:2] + others[: r - 1]))
                corpus.append((SetFamily(q, r, t, (fam.sets[0], bad) + fam.sets[2:]), d))
                # duplicate set 0 outright
                corpus.append((SetFamily(q, r, t, (fam.sets[0],) + fam.sets), d))
                if t >= 3:
                    tripled = _forced_triple(q, r, t)
                    if tripled is not None:
                        corpus.append((tripled, d))
    return corpus


@pytest.fixture(scope="session")
def equivalence_corpus() -> list[tuple[SetFamily, int]]:
    return build_equivalence_corpus()


# ------------------------------------------------- fixed reference codes

SINGLETON_FAMILY = ((0, 1, 2, 3, 4), (0, 5, 6, 7, 8), (1, 5, 9, 10, 11))
ODD_Q_D6_FAMILY = ((0, 1, 2, 3, 4, 5), (0, 6, 7, 8, 9, 10))
ADJUSTED_FAMILY = ((0, 1, 2, 3), (0, 4, 5, 6), (1, 4, 7, 8))


@pytest.fixture(scope="session")
def singleton_code():
    """q=13, r=4, d=5 reference code: n=15, k=9, distance 5."""
    from lrckit.lrc import build_parity_check, code_params_from_family

    fam = SetFamily(13, 4, 2, SINGLETON_FAMILY)
    pcm = build_parity_check(fam, 5)
    params = code_params_from_family(fam, 5, pcm)
    return fam, pcm, params


@pytest.fixture(scope="session")
def odd_q_d6_code():
    """q=17, r=5, d=6 reference code: n=12, k=6, distance 6."""
    from lrckit.lrc import build_parity_check, code_params_from_family

    fam = SetFamily(17, 5, 2, ODD_Q_D6_FAMILY)
    pcm = build_parity_check(fam, 6)
    params = code_params_from_family(fam, 6, pcm)
    return fam, pcm, params


@pytest.fixture(scope="session")
def adjusted_code():
    """q=13, r=3, d=5 reference code: n=12, k=6, distance 5 = adjusted bound."""
    from lrckit.lrc import build_parity_check, code_params_from_family

    fam = SetFamily(13, 3, 2, ADJUSTED_FAMILY)
    pcm = build_parity_check(fam, 5)
    params = code_params_from_family(fam, 5, pcm)
    return fam, pcm, params
