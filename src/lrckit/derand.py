"""Deterministic family construction by the method of conditional probabilities.

Model: 2m sets, each an independent uniformly random (r+1)-subset of [q],
revealed one element at a time.  For an index collection S the bad event
Y_S is "the sets of S cover at most r*|S| values".  The estimator

    Phi = sum over S of P(Y_S = 1 | elements fixed so far)

is the exact conditional expectation of the number of failing collections
(linearity of expectation), so fixing each element to a value minimizing
Phi never increases it, and the final Phi equals the true violation count.
Each conditional probability is computed exactly, in integers: the
unrevealed part of a set with f fixed elements is one of its
C(q - f, size - f) equally likely completions (the set's weight), so the
probability of a collection is an integer numerator over the product of
its sets' weights.  A collection fails when its union stays small; as its
sets are completed one by one, the union grows by a hypergeometric number
of values that depends only on its current size, so one recursion over
that chain gives the numerator for any number of sets.  It is memoized per
overlap pattern: the fixed counts and the fixed values' union size.  Phi
itself is kept as one numerator over the product of every tracked set's
weight; all candidates for one position share that denominator, so they
compare as plain integers.

After all elements are fixed, the violation-removal step of the randomized
construction, `setfam.remove_violations`, runs on the verifier's minimal
violations.  The survivors always verify without a second check: every
failing collection contains a minimal violation, and each minimal violation
loses a set.  The whole procedure is a pure function of (q, r, t): repeated
calls are identical, byte for byte, regardless of platform or thread count.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from itertools import combinations
from math import comb, prod

from .setfam import SetFamily, formula_target, remove_violations, verify_union_condition

# Work caps.  The chain below handles collections of any size, so the caps
# bound only work: the element loop touches q * (number of sets)^t states.
MAX_T = 3
MAX_Q = 512
MAX_SETS = 12


def _weight(q: int, size: int, fixed: int) -> int:
    """Number of equally likely completions of a set with `fixed` elements."""
    return comb(q - fixed, size - fixed)


def _chain_numerator(q: int, size: int, counts: tuple[int, ...], union: int, limit: int) -> int:
    """P(the union ends with at most `limit` values), times the weight
    product of the sets still to be revealed, with `counts` fixed elements
    each; the union holds `union` values so far, every fixed value among them.

    A set with f fixed elements draws its u = size-f other values uniformly
    from the q-f values outside its fixed part: h land among the union's
    union-f other values and u-h are new, and these weights sum over h to
    the set's weight.
    """
    if not counts:
        return int(union <= limit)
    f, rest = counts[0], counts[1:]
    u = size - f
    # h keeps the new union within [q] and, as unions only grow, the limit
    return sum(
        comb(union - f, h)
        * comb(q - union, u - h)
        * _chain_numerator(q, size, rest, union + u - h, limit)
        for h in range(max(0, u - (q - union), union + u - limit), min(u, union - f) + 1)
    )


# Memoized per collection, not per chain level: the levels below a
# collection are few and cheap, and their entries would cost memory.
_pattern_numerator = lru_cache(maxsize=None)(_chain_numerator)


def _collection_numerator(q: int, size: int, fixed: list[frozenset[int]]) -> int:
    """P(the sets cover at most (size-1)*len(fixed) values), times the
    product of their weights.  Full sets (weight 1) add nothing to the
    union, so the chain skips them."""
    return _pattern_numerator(
        q,
        size,
        tuple(len(f) for f in fixed if len(f) < size),
        len(frozenset().union(*fixed)),
        (size - 1) * len(fixed),
    )


def _phi_over(q: int, size: int, t: int, parts: list[frozenset[int]], pivot: int) -> Callable[[frozenset[int]], int]:
    """Sum of P(Y_S) over collections S of size 2..t that contain `pivot`,
    times the product of every set's weight, as a function of the pivot
    set's part.

    Terms avoiding the pivot set do not change while it fills, so comparing
    candidate values only needs this partial sum.  The other sets are read
    once: each collection keeps its other parts and its share of the common
    denominator, the weights of the non-pivot sets outside it.
    """
    others = [k for k in range(len(parts)) if k != pivot]
    weight = {k: _weight(q, size, len(parts[k])) for k in others}
    scale = prod(weight.values())
    terms = [
        ([parts[k] for k in rest], scale // prod(weight[k] for k in rest))
        for s in range(2, t + 1)
        for rest in combinations(others, s - 1)
    ]
    return lambda part: sum(_collection_numerator(q, size, [part, *rest]) * w for rest, w in terms)


def derandomized_family(q: int, r: int, t: int) -> SetFamily:
    """Deterministic analogue of the randomized construction.

    Elements are fixed set by set, position by position; each position takes
    the smallest value of [q] minimizing the estimator.  Values that lie in
    exactly the same tracked sets give identical estimator values, so only
    the least value of each membership pattern is scored: the least value of
    each pattern met in the other sets, plus the least value in no set at
    all, when one is left.  Phi's terms are set up once per set, and each
    step's minimum is the next step's Phi before, so the minima are Phi's
    trajectory.  Raises RuntimeError if the chosen value would increase
    Phi, which exact arithmetic rules out.
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
        others = [k for k in range(nsets) if k != i]
        phi = _phi_over(q, size, t, parts, i)
        before = phi(parts[i])
        for _ in range(size):
            used = frozenset().union(*parts)
            rep: dict[tuple[bool, ...], int] = {}
            for c in sorted(used - parts[i]):
                rep.setdefault(tuple(c in parts[k] for k in others), c)
            fresh = next((c for c in range(q) if c not in used), None)
            if fresh is not None:
                rep[(False,) * len(others)] = fresh
            candidates = sorted(rep.values())
            vals = [phi(parts[i] | {c}) for c in candidates]
            best = min(vals)
            # Phi before and after share every weight but the pivot's
            fixed = len(parts[i])
            if best * _weight(q, size, fixed) > before * _weight(q, size, fixed + 1):
                raise RuntimeError(f"estimator increased at set {i}, position {fixed}")
            parts[i] = parts[i] | {candidates[vals.index(best)]}
            before = best
    pool = SetFamily(q, r, t, tuple(tuple(sorted(s)) for s in parts))
    return remove_violations(pool, verify_union_condition(pool))
