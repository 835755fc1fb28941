"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own linear algebra:
column dependence is decided through sympy integer determinants reduced
mod p, Berge cycles through exhaustive edge-tuple search, and collision
probabilities through bare enumeration of completions.  The coverage
verifier and the greedy generator are checked against exhaustive walks over
every index collection of size <= t, the array row reduction against a
row-by-row elimination through the field's scalar operations, and the
block-aware distance scan against the loop over every column subset in
`itertools.combinations` order that it replaced.  `ReferenceSplitMix64`
computes the seeded stream one output at a time with Python integers, as
the package did before it drew its outputs in numpy blocks; it feeds
`reference_greedy` and the differential tests of `lrckit.rng`.  Field
arithmetic is checked against the schoolbook product (`reference_mul` and
`reference_pow`: base-p digits multiplied as polynomials and reduced by the
field's modulus one term at a time) and the digit-wise sum
(`reference_add`); none of them reads a table.  Tests compare package
output against these slower routes.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
import pytest
from sympy import Matrix

from lrckit import linalg
from lrckit.gf import GF
from lrckit.rng import SplitMix64
from lrckit.setfam import SetFamily, Violation, greedy_family


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
    of up to t-1 accepted sets, from the same draws."""
    rng = ReferenceSplitMix64(seed)
    accepted: list[frozenset[int]] = []

    def admissible(cand: frozenset[int]) -> bool:
        for size in range(2, t + 1):
            for others in itertools.combinations(range(len(accepted)), size - 1):
                if len(cand.union(*(accepted[i] for i in others))) <= r * size:
                    return False
        return True

    for _ in range(candidate_budget):
        cand = frozenset(rng.subset(q, r + 1))
        if admissible(cand):
            accepted.append(cand)
            if target_m is not None and len(accepted) >= target_m:
                break
    return SetFamily(q, r, t, tuple(tuple(sorted(s)) for s in accepted))


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
            dep = linalg._dependent_mask(field, batch)
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
