"""Families of (r+1)-element subsets of [q] and their coverage verification.

A family A_1, ..., A_m supports a distance-d local code when every
collection of s <= t of its sets covers at least s*r + 1 distinct values,
where t = floor((d-1)/2).  This module holds the family type, the exact
verifier for that coverage condition, the equivalent Berge-cycle view of it,
size bounds, and randomized generators.  The derandomized generator lives in
`derand`.

The condition is local.  A minimal failing collection is connected in the
intersection graph (i ~ j when A_i and A_j share a value): were it split
into parts with disjoint unions, each part, being a single set or a
collection that passes, would cover at least r*(its size) + 1 values, so
the whole would cover more than r*s.  The verifier and the greedy generator
therefore grow collections only through an element -> sets index, one set
at a time, and drop a collection once its union exceeds r*t; their cost is
the incidences plus the connected collections of small union, not C(m, t).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Optional, Sequence

from .rng import SplitMix64


class GenerationError(RuntimeError):
    """A generator exhausted its attempt or candidate budget."""


@dataclass(frozen=True)
class SetFamily:
    """m sets of r+1 distinct values drawn from [0, q), each stored sorted.

    t is the largest collection size the coverage condition is meant to be
    checked at; it must be at least 2.  Duplicate sets are legal as verifier
    input (they fail verification) but generators never produce them.
    """

    q: int
    r: int
    t: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError("q must be at least 2")
        if self.r < 1:
            raise ValueError("r must be at least 1")
        if self.t < 2:
            raise ValueError("t must be at least 2")
        if self.r + 1 > self.q:
            raise ValueError("set size r+1 cannot exceed q")
        norm = []
        for s in self.sets:
            tup = tuple(sorted(s))
            if len(tup) != self.r + 1 or len(set(tup)) != self.r + 1:
                raise ValueError(f"set {s} does not have r+1={self.r + 1} distinct elements")
            if tup[0] < 0 or tup[-1] >= self.q:
                raise ValueError(f"set {s} has elements outside [0, {self.q})")
            norm.append(tup)
        object.__setattr__(self, "sets", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.sets)

    @property
    def n(self) -> int:
        return self.m * (self.r + 1)


@dataclass(frozen=True)
class Violation:
    """Index collection whose sets cover too few values: union_size <= r*len(indices)."""

    indices: tuple[int, ...]
    union_size: int


_Collections = dict[tuple[int, ...], frozenset[int]]  # sorted set indices -> their union


def _grow(
    sets: Sequence[frozenset[int]],
    index: dict[int, list[int]],
    level: _Collections,
    limit: int,
) -> _Collections:
    """Each collection of `level` plus one set that meets its union, keyed by
    sorted indices, kept while the union holds at most `limit` values.

    Counting a neighbour's hits in the index gives how many values it shares
    with the union, so a union that would exceed `limit` is never built.
    """
    grown: _Collections = {}
    for members, union in level.items():
        shared: dict[int, int] = {}
        for v in union:
            for j in index.get(v, ()):
                shared[j] = shared.get(j, 0) + 1
        room = limit - len(union)
        for j, common in shared.items():
            if len(sets[j]) - common > room or j in members:
                continue
            key = tuple(sorted(members + (j,)))
            if key not in grown:
                grown[key] = union | sets[j]
    return grown


def verify_union_condition(family: SetFamily) -> list[Violation]:
    """Every minimal failing index collection of size 2..t, or [] when none.

    Violations come in ascending size and, within a size, in lexicographic
    order of their indices.  A collection that contains an already-reported
    violation is skipped, so only minimal violations are returned.

    Only connected collections are grown (see the module docstring): size
    s+1 extends the passing collections of size s by a set that meets their
    union, and a union above r*t is dropped, since no collection of size <= t
    containing it can fail.  A minimal violation minus a leaf of a spanning
    tree is connected and passes, so every one is reached.  Two sets fail
    together exactly when they share two values, which the index count at
    size 2 shows directly.  The cost is the index hits of the connected
    collections whose union stays within r*t, not the C(m, t) collections
    of an exhaustive walk.
    """
    sets = [frozenset(s) for s in family.sets]
    index: dict[int, list[int]] = {}
    for i, s in enumerate(sets):
        for v in s:
            index.setdefault(v, []).append(i)
    found: list[Violation] = []
    found_keys: set[tuple[int, ...]] = set()
    level: _Collections = {(i,): s for i, s in enumerate(sets)}
    for size in range(2, min(family.t, len(sets)) + 1):
        level = _grow(sets, index, level, family.r * family.t)
        limit = family.r * size
        for key in sorted(k for k, u in level.items() if len(u) <= limit):
            if not any(sub in found_keys for w in range(2, size) for sub in combinations(key, w)):
                found.append(Violation(key, len(level[key])))
                found_keys.add(key)
        level = {k: u for k, u in level.items() if len(u) > limit}
    return found


@dataclass(frozen=True)
class Hypergraph:
    """Uniform hypergraph on vertices [0, vertex_count) with ordered edges."""

    vertex_count: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        sizes = {len(e) for e in self.edges}
        if len(sizes) > 1:
            raise ValueError("edges must all have the same size")
        for e in self.edges:
            if len(set(e)) != len(e):
                raise ValueError(f"edge {e} repeats a vertex")
            if any(v < 0 or v >= self.vertex_count for v in e):
                raise ValueError(f"edge {e} leaves the vertex range")


def to_hypergraph(family: SetFamily) -> Hypergraph:
    return Hypergraph(family.q, family.sets)


@dataclass(frozen=True)
class BergeCycle:
    """Distinct vertices v_1..v_k and distinct edges e_1..e_k such that
    {v_{i-1}, v_i} lies in e_i for i = 2..k and {v_1, v_k} lies in e_1."""

    vertices: tuple[int, ...]
    edge_indices: tuple[int, ...]


def is_berge_cycle(h: Hypergraph, cyc: BergeCycle) -> bool:
    k = len(cyc.vertices)
    if k < 2 or len(cyc.edge_indices) != k:
        return False
    if len(set(cyc.vertices)) != k or len(set(cyc.edge_indices)) != k:
        return False
    if any(i < 0 or i >= len(h.edges) for i in cyc.edge_indices):
        return False
    edges = [set(h.edges[i]) for i in cyc.edge_indices]
    v = cyc.vertices
    for i in range(1, k):
        if v[i - 1] not in edges[i] or v[i] not in edges[i]:
            return False
    return v[0] in edges[0] and v[k - 1] in edges[0]


def find_berge_cycle(h: Hypergraph, max_len: int) -> Optional[BergeCycle]:
    """Some Berge cycle of length 2..max_len, or None.

    Lengths are tried in ascending order; within a length the search is a
    depth-first scan anchored at the smallest edge index of the cycle, so
    the result is deterministic.  A length-2 cycle is two edges sharing two
    vertices.
    """
    edges = [frozenset(e) for e in h.edges]
    ne = len(edges)

    def close(chain: list[int], connectors: list[int]) -> Optional[BergeCycle]:
        last, first = edges[chain[-1]], edges[chain[0]]
        for v in sorted(last & first):
            if v not in connectors:
                verts = tuple(connectors) + (v,)
                # chain edges aligned so edge i covers {v_{i-1}, v_i}
                return BergeCycle(verts, tuple(chain))
        return None

    def extend(length: int, chain: list[int], connectors: list[int]) -> Optional[BergeCycle]:
        if len(chain) == length:
            return close(chain, connectors)
        for nxt in range(chain[0] + 1, ne):
            if nxt in chain:
                continue
            common = edges[chain[-1]] & edges[nxt]
            for v in sorted(common):
                if v in connectors:
                    continue
                got = extend(length, chain + [nxt], connectors + [v])
                if got is not None:
                    return got
        return None

    for length in range(2, max_len + 1):
        if length > ne:
            break
        for anchor in range(ne):
            got = extend(length, [anchor], [])
            if got is not None:
                return got
    return None


def equivalence_check(family: SetFamily) -> bool:
    """True iff the coverage verdict and the Berge-cycle verdict agree.

    Passing the coverage condition must coincide with the absence of Berge
    cycles of length <= t in the family's hypergraph, so exactly one of
    "passes" and "cycle found" holds for a consistent pair of verdicts.
    """
    passes = not verify_union_condition(family)
    cycle_found = find_berge_cycle(to_hypergraph(family), family.t) is not None
    return passes != cycle_found


def _iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) by Newton iteration on integers."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x


def formula_target(q: int, r: int, t: int) -> int:
    """ceil(q**(t/(t-1)) / (2 t^2 (r+1)**(2t/(t-1)))) for any t >= 2.

    `target_family_size` is this value behind its t >= 3 and range checks;
    the derandomized construction aims at it for t = 2 as well.
    """
    # evaluated exactly: the least M with M**(t-1) * B >= A for A = q**t,
    # B = 2**(t-1) * t**(2t-2) * (r+1)**(2t).
    a = q**t
    b = 2 ** (t - 1) * t ** (2 * t - 2) * (r + 1) ** (2 * t)
    lo, hi = 1, 1
    while hi ** (t - 1) * b < a:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** (t - 1) * b >= a:
            hi = mid
        else:
            lo = mid + 1
    return lo


def target_family_size(q: int, r: int, t: int) -> int:
    """Family size the randomized construction is guaranteed to reach.

    Evaluates ceil(q**(1 + 1/(t-1)) / (2 t**2 (r+1)**(2 + 2/(t-1)))) with
    exact integer arithmetic (binary search against the (t-1)-th power), so
    values sitting on integer boundaries round correctly.
    """
    if t < 3:
        raise ValueError("the randomized construction needs t >= 3")
    if r < 1 or q < 2:
        raise ValueError("need r >= 1 and q >= 2")
    return formula_target(q, r, t)


def family_size_upper_bound(q: int, r: int, t: int) -> int:
    """Largest family size compatible with the coverage condition at n = q.

    For odd t the bound is floor((q/r) * (q/(r+1))**(2/(t-1)) + q/(r+1));
    for even t it is floor((q/(r(r+1))) * q**(2/t) + q/(r+1)).  The floor is
    taken exactly: rational exponents are bracketed by scaled integer roots
    at increasing precision until the floor is unambiguous.
    """
    if t < 2:
        raise ValueError("need t >= 2")
    if r < 1 or q < 2:
        raise ValueError("need r >= 1 and q >= 2")
    if t % 2 == 1:
        u = (t - 1) // 2
        coeff = Fraction(q, r)
        base = Fraction(q, r + 1)
    else:
        u = t // 2
        coeff = Fraction(q, r * (r + 1))
        base = Fraction(q)
    offset = Fraction(q, r + 1)
    if u == 1:
        return int(coeff * base + offset)  # Fraction floor via int()
    nroot = _iroot(base.numerator, u)
    droot = _iroot(base.denominator, u)
    if nroot**u == base.numerator and droot**u == base.denominator:
        return int(coeff * Fraction(nroot, droot) + offset)
    # base**(1/u) is irrational; bracket it by scaled integer roots until the
    # floor of the whole expression is pinned down
    shift = 16
    while True:
        scale = 1 << shift
        root = _iroot(base.numerator * scale**u // base.denominator, u)
        lo = coeff * Fraction(root, scale) + offset
        hi = coeff * Fraction(root + 1, scale) + offset
        if int(lo) == int(hi):
            return int(lo)
        shift *= 2


def _repair_removals(violations: list[Violation]) -> set[int]:
    # break every violation by removing its lowest-index set, skipping
    # collections already broken by an earlier removal
    removed: set[int] = set()
    for v in violations:
        if removed.isdisjoint(v.indices):
            removed.add(min(v.indices))
    return removed


def random_family(
    q: int,
    r: int,
    t: int,
    seed: int,
    max_attempts: int = 20,
    target_m: Optional[int] = None,
) -> SetFamily:
    """Randomized construction: oversample, then delete sets that witness
    coverage failures.

    Draws 2m uniformly random (r+1)-subsets of [q] (m is the guaranteed
    target size unless overridden), removes one constituent set per minimal
    violation, and returns the first m survivors once the survivor family
    verifies.  Each retry reseeds from a child stream of `seed`; identical
    arguments always reproduce the same family.
    """
    if t < 3:
        raise ValueError("the randomized construction needs t >= 3")
    m = target_m if target_m is not None else target_family_size(q, r, t)
    if m < 1:
        raise ValueError("target family size must be positive")
    base = SplitMix64(seed)
    for _ in range(max_attempts):
        rng = base.spawn()
        sets = [rng.subset(q, r + 1) for _ in range(2 * m)]
        pool = SetFamily(q, r, t, tuple(sets))
        removed = _repair_removals(verify_union_condition(pool))
        survivors = [s for i, s in enumerate(sets) if i not in removed]
        if len(survivors) < m:
            continue
        if verify_union_condition(SetFamily(q, r, t, tuple(survivors))):
            continue  # repair left a violation; resample
        return SetFamily(q, r, t, tuple(survivors[:m]))
    raise GenerationError(
        f"no verifying family of {m} sets within {max_attempts} attempts "
        f"(q={q}, r={r}, t={t}, seed={seed})"
    )


def greedy_family(
    q: int,
    r: int,
    t: int,
    candidate_budget: int,
    seed: int,
    target_m: Optional[int] = None,
) -> SetFamily:
    """Accept random candidate sets one at a time, keeping the coverage
    condition intact at every step.

    A candidate is accepted iff every collection of size <= t that includes
    it still covers enough values; collections not involving the candidate
    were verified when their own newest member arrived, so the output always
    passes full verification.  Stops after `candidate_budget` draws or once
    `target_m` sets (when given) are accepted.  May return fewer sets than
    the target; the family can even be empty for tiny budgets.

    As the accepted sets already verify, any failing collection with the
    candidate contains a minimal one that holds the candidate and is
    connected, so only collections grown from the candidate through an
    incrementally kept element -> sets index are checked.  Each draw costs
    the incidences of those collections, not C(accepted, t - 1) unions.
    """
    if t < 2:
        raise ValueError("need t >= 2")
    if r + 1 > q:
        raise ValueError("set size r+1 cannot exceed q")
    rng = SplitMix64(seed)
    accepted: list[frozenset[int]] = []
    index: dict[int, list[int]] = {}
    pairs: set[tuple[int, int]] = set()  # value pairs inside accepted sets

    def admissible(drawn: tuple[int, ...], cand: frozenset[int]) -> bool:
        # a failing pair shares two values, so the pair set settles size 2
        if not pairs.isdisjoint(combinations(drawn, 2)):
            return False
        if t == 2:
            return True
        # larger collections are joined through the candidate; keys hold the
        # accepted indices only, and no pair in the first level fails
        level = _grow(accepted, index, {(): cand}, r * t)
        for size in range(3, t + 1):
            level = _grow(accepted, index, level, r * t)
            if any(len(union) <= r * size for union in level.values()):
                return False
        return True

    for _ in range(candidate_budget):
        drawn = rng.subset(q, r + 1)
        cand = frozenset(drawn)
        if admissible(drawn, cand):
            for v in drawn:
                index.setdefault(v, []).append(len(accepted))
            pairs.update(combinations(drawn, 2))
            accepted.append(cand)
            if target_m is not None and len(accepted) >= target_m:
                break
    return SetFamily(q, r, t, tuple(tuple(sorted(s)) for s in accepted))


def packing_ceiling(q: int, r: int) -> int:
    """Hard cap on the size of any verifying family.

    The pairwise coverage requirement forces |A_i ∩ A_j| <= 1, so the
    C(r+1, 2) element pairs inside each set are globally distinct and
    m * C(r+1, 2) <= C(q, 2).
    """
    return comb(q, 2) // comb(r + 1, 2)
