"""Deterministic family construction by the method of conditional probabilities.

Model: 2m sets, each an independent uniformly random (r+1)-subset of [q],
revealed one element at a time.  For an index collection S the bad event
Y_S is "the sets of S cover at most r*|S| values".  The estimator

    Phi = sum over S of P(Y_S = 1 | elements fixed so far)

is the exact conditional expectation of the number of failing collections
(linearity of expectation), so fixing each element to a value minimizing
Phi never increases it, and the final Phi equals the true violation count.
Each conditional probability is computed exactly: the unrevealed part of a
set is a uniform subset of the values not already used by that set, and the
overlap statistics of two or three such subsets are finite hypergeometric
sums evaluated in integer arithmetic.

After all elements are fixed, the same violation-removal step as the
randomized construction runs; survivors always verify.  The whole procedure
is a pure function of (q, r, t): repeated calls are identical, byte for
byte, regardless of platform or thread count.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .setfam import SetFamily, formula_target, _repair_removals, verify_union_condition

# Work caps.  Collections of up to t=3 sets need the triple kernel below;
# larger t would need deeper overlap patterns.  The element loop touches
# q * (number of sets)^t states, so both are bounded.
MAX_T = 3
MAX_Q = 512
MAX_SETS = 12


def _tail_numerator(pop: int, succ: int, draws: int, lo: int) -> int:
    """Sum of C(succ, x) * C(pop - succ, draws - x) over x >= lo."""
    if lo <= 0:
        return comb(pop, draws)
    total = 0
    for x in range(lo, min(succ, draws) + 1):
        total += comb(succ, x) * comb(pop - succ, draws - x)
    return total


@lru_cache(maxsize=None)
def _pair_prob(q: int, size: int, fa: int, fb: int, c0: int) -> Fraction:
    """P(|X_a intersect X_b| >= 2) for partially revealed sets.

    X_a has fa fixed elements, c0 of which are shared with X_b's fb fixed
    ones; the remaining size-fa elements are a uniform subset of the q-fa
    unused values (likewise for X_b, independently).
    """
    if c0 >= 2:
        return Fraction(1)
    ua, ub = size - fa, size - fb
    na, nb = q - fa, q - fb
    ka = fb - c0  # fixed values of b that R_a can still hit
    denom = comb(na, ua) * comb(nb, ub)
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
    return Fraction(num, denom)


@lru_cache(maxsize=None)
def _triple_prob(
    q: int,
    size: int,
    fa: int,
    fb: int,
    fc: int,
    fab: int,
    fac: int,
    fbc: int,
    fabc: int,
) -> Fraction:
    """P(the three sets cover at most 3*size - 3 values), i.e. the overlap
    excess |X_a ^ X_b| + |X_c ^ (X_a u X_b)| reaches 3.

    Stage 1 spreads X_a's random part over the cells of [q] \\ F_a cut by
    (F_b, F_c) membership; stage 2 spreads X_b's random part over (inside
    X_a, inside the still-uncovered part of F_c, elsewhere); stage 3 is a
    plain hypergeometric tail for X_c's random part hitting the union.
    """
    ua, ub, uc = size - fa, size - fb, size - fc
    na, nb, nc = q - fa, q - fb, q - fc
    n11 = fbc - fabc
    n10 = fb - fab - n11
    n01 = fc - fac - n11
    n00 = na - n11 - n10 - n01
    denom = comb(na, ua) * comb(nb, ub) * comb(nc, uc)
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
                        num += w1 * w2 * _tail_numerator(nc, succ, uc, need)
    return Fraction(num, denom)


def _collection_prob(q: int, size: int, fixed: list[frozenset[int]]) -> Fraction:
    if len(fixed) == 2:
        a, b = fixed
        return _pair_prob(q, size, len(a), len(b), len(a & b))
    if len(fixed) == 3:
        a, b, c = fixed
        return _triple_prob(
            q,
            size,
            len(a),
            len(b),
            len(c),
            len(a & b),
            len(a & c),
            len(b & c),
            len(a & b & c),
        )
    raise ValueError("only collections of 2 or 3 sets are supported")


def _phi_over(q: int, size: int, t: int, parts: list[frozenset[int]], pivot: int) -> Fraction:
    """Sum of P(Y_S) over collections S of size 2..t that contain `pivot`.

    Terms avoiding the pivot set do not change when one of its elements is
    fixed, so comparing candidate values only needs this partial sum.
    """
    from itertools import combinations

    others = [k for k in range(len(parts)) if k != pivot]
    total = Fraction(0)
    for s in range(2, t + 1):
        for rest in combinations(others, s - 1):
            total += _collection_prob(q, size, [parts[pivot]] + [parts[k] for k in rest])
    return total


def derandomized_family(q: int, r: int, t: int) -> SetFamily:
    """Deterministic analogue of the randomized construction.

    Elements are fixed set by set, position by position; each position takes
    the smallest value of [q] minimizing the estimator.  Candidate values
    that lie in exactly the same fixed sets give identical estimator values,
    so only one representative per membership signature is evaluated.
    Supported envelope: t in {2, 3}, q <= 512, and a target size small
    enough that 2m <= 12 sets are tracked.
    """
    if t not in (2, MAX_T):
        raise ValueError(f"supported t values are 2..{MAX_T}")
    if r < 1 or r + 1 > q:
        raise ValueError("need 1 <= r and r+1 <= q")
    if q > MAX_Q:
        raise ValueError(f"q={q} exceeds the supported maximum {MAX_Q}")
    m = formula_target(q, r, t)
    nsets = 2 * m
    if nsets > MAX_SETS:
        raise ValueError(
            f"target of {m} sets needs {nsets} tracked sets, above the cap {MAX_SETS}"
        )
    size = r + 1
    parts: list[frozenset[int]] = [frozenset() for _ in range(nsets)]
    for i in range(nsets):
        for _ in range(size):
            before = _phi_over(q, size, t, parts, i)
            rep: dict[tuple[bool, ...], int] = {}
            for c in range(q):
                if c in parts[i]:
                    continue
                sig = tuple(c in parts[k] for k in range(nsets) if k != i)
                if sig not in rep:
                    rep[sig] = c
            best_val: Fraction | None = None
            best_c = -1
            for c in sorted(rep.values()):
                trial = parts.copy()
                trial[i] = parts[i] | {c}
                val = _phi_over(q, size, t, trial, i)
                if best_val is None or val < best_val:
                    best_val, best_c = val, c
            assert best_val is not None and best_val <= before, "estimator must not increase"
            parts[i] = parts[i] | {best_c}
    sets = tuple(tuple(sorted(s)) for s in parts)
    pool = SetFamily(q, r, t, sets)
    removed = _repair_removals(verify_union_condition(pool))
    survivors = tuple(s for i, s in enumerate(sets) if i not in removed)
    family = SetFamily(q, r, t, survivors)
    leftover = verify_union_condition(family)
    assert not leftover, "violation removal must leave a verifying family"
    return family
