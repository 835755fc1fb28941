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
the whole would cover more than r*s.  The verifier therefore grows
collections only through an element -> sets index, one set at a time, and
drops a collection once its union exceeds r*t; its cost is the incidences
plus the connected collections of small union, not C(m, t).

The greedy generator asks a distance question instead.  In the 2-section
graph of the accepted sets (values adjacent when one set holds both), a
candidate fails iff two of its values are joined by a path of length
<= t - 1: a shortest one takes each step in a different set, so with the
candidate it forms a Berge cycle of length <= t, and every failing
collection holds such a cycle.  `_admitted` answers with one int per value,
its closed neighbourhood as a bitmask over labels given in order of first
acceptance; `find_berge_cycle` asks each set in turn, and only for the
first that fails does `_closing_edge` trace the path breadth-first.

`greedy_family` stops once no r+1 values lie pairwise at distance >= t.
Values in no accepted set are far from all; the labelled ones must hold a
clique of the rest, two joined when neither is in the other's ball of
radius t - 1.  The search runs when the refusals since the last admission
equal the draws up to it and when that streak doubles, and visits at most
as many nodes as draws so far, so it at most doubles the walk's work.

The randomized and derandomized constructions aim at `target_family_size`
and share `remove_violations`, the one removal step: it runs the verifier
itself and drops the lowest-index set of each minimal violation not
already broken.  Its result always verifies, because every failing
collection contains a minimal violation and each minimal violation loses a
set; no caller verifies it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice, zip_longest
from math import comb
from typing import Iterable, Iterator, Optional, Sequence

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
class BergeCycle:
    """Distinct vertices v_1..v_k and distinct edges e_1..e_k such that
    {v_{i-1}, v_i} lies in e_i for i = 2..k and {v_1, v_k} lies in e_1.

    Edges are indices into the sets of a `SetFamily`, which is the hypergraph.
    """

    vertices: tuple[int, ...]
    edge_indices: tuple[int, ...]


def is_berge_cycle(family: SetFamily, cyc: BergeCycle) -> bool:
    k = len(cyc.vertices)
    if k < 2 or len(cyc.edge_indices) != k:
        return False
    if len(set(cyc.vertices)) != k or len(set(cyc.edge_indices)) != k:
        return False
    if any(i < 0 or i >= family.m for i in cyc.edge_indices):
        return False
    edges = [set(family.sets[i]) for i in cyc.edge_indices]
    v = cyc.vertices
    for i in range(1, k):
        if v[i - 1] not in edges[i] or v[i] not in edges[i]:
            return False
    return v[0] in edges[0] and v[k - 1] in edges[0]


def _joins(label: dict[int, int], near: list[int], values: Sequence[int], t: int) -> bool:
    """Whether `_admitted`'s graph joins two of the distinct `values` by a
    path of length <= t - 1: whether a value's ball, grown by ORing its
    newest members' masks, meets the union of the earlier values' balls of
    radius floor(t/2) at a radius up to floor((t-1)/2)."""
    seen = 0
    for i in [label[v] for v in values if v in label]:
        ball = frontier = 1 << i
        for _ in range(t // 2):
            if ball & seen:
                return True
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= near[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & ~ball
            ball |= grown
        if t % 2 and ball & seen:
            return True
        seen |= ball
    return False


def _maximal(near: list[int], q: int, k: int, t: int, budget: int) -> Optional[bool]:
    """Whether no k of the values [0, q) lie pairwise at distance >= t in the
    graph of closed neighbourhoods `near` over its labelled values, the others
    having no neighbour; None once the clique search (see the module
    docstring) visits more than `budget` nodes.  Balls grow as in `_joins`.
    """
    if q - len(near) >= k:
        return False
    far: dict[int, int] = {}  # a visited value's bit -> the complement of its ball
    nodes = 0

    def lacks(cands: int, size: int) -> Optional[bool]:
        # whether `cands` holds no clique of `size`, taking its least member first
        nonlocal nodes
        if size == 0:
            return False
        while cands.bit_count() >= size:
            nodes += 1
            if nodes > budget:
                return None
            low = cands & -cands
            cands ^= low
            if low not in far:
                ball = frontier = low
                for _ in range(t - 1):
                    grown = 0
                    while frontier:
                        bit = frontier & -frontier
                        grown |= near[bit.bit_length() - 1]
                        frontier ^= bit
                    frontier = grown & ~ball
                    ball |= grown
                far[low] = ~ball
            verdict = lacks(cands & far[low], size - 1)
            if verdict is not True:
                return verdict
        return True

    return lacks((1 << len(near)) - 1, k - q + len(near))


def _admitted(
    candidates: Iterable[tuple[int, ...]], t: int, q: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """The candidates, in order, no two of whose values a path of length
    <= t - 1 joins in the 2-section graph of those admitted before; t >= 2.

    A pair set answers t = 2.  Otherwise near[label[v]] is v's closed
    neighbourhood as a mask over labels, given in order of first admission;
    a value without a label has no neighbour, so it is skipped.  One AND per
    value answers distance <= 2, all of t = 3, before `_joins` grows balls.
    Given q, the walk ends once `_maximal` proves that no subset of [0, q)
    could be admitted: the graph changes only on an admission.
    """
    last = check = 0  # the count at the last admission; the count to check at
    if t == 2:
        pairs: set[tuple[int, int]] = set()
        for n, c in enumerate(candidates, 1):
            if pairs.isdisjoint(combinations(c, 2)):
                pairs.update(combinations(c, 2))
                last, check = n, 2 * n
                yield c
            elif n == check and q is not None:
                label = {v: i for i, v in enumerate({v for pair in pairs for v in pair})}
                near = [1 << i for i in range(len(label))]
                for a, b in (*pairs, *((b, a) for a, b in pairs)):
                    near[label[a]] |= 1 << label[b]
                if _maximal(near, q, len(c), t, n):
                    return
                check += check - last
        return
    label: dict[int, int] = {}
    near: list[int] = []
    for n, c in enumerate(candidates, 1):
        seen = 0
        for v in c:
            i = label.get(v)
            if i is not None:
                if near[i] & seen:
                    break
                seen |= near[i]
        else:
            if t == 3 or not _joins(label, near, c, t):
                old = [label[v] for v in c if v in label]
                fresh = [v for v in c if v not in label]  # they take the next bits
                mask = sum(1 << i for i in old) | ((1 << len(fresh)) - 1) << len(near)
                for i in old:
                    near[i] |= mask
                label.update(zip(fresh, range(len(near), len(near) + len(fresh))))
                near += [mask] * len(fresh)
                last, check = n, 2 * n
                yield c
                continue
        if n == check and q is not None:
            if _maximal(near, q, len(c), t, n):
                return
            check += check - last


def _closing_edge(adj: dict[int, dict[int, int]], values: Sequence[int], t: int) -> list[int]:
    """A path of length <= t - 1 in the graph `adj` joining two of the
    distinct `values`; the caller has found that such a path exists.

    One breadth-first search of floor(t/2) layers runs from all of `values`
    at once, and each vertex it labels keeps its trail: the path by which
    the search first reached it from its source value.  An edge u-w between
    trails of different sources closes the path u's trail, then w's
    reversed, whose length is one less than the trails' vertices.  A
    shortest joining path has such an edge with one end at depth <
    floor(t/2), so that many layers suffice.
    """
    trail = {v: (v,) for v in values}
    layer: Sequence[int] = values
    for _ in range(t // 2):
        grown: list[int] = []
        for u in layer:
            tu = trail[u]
            for w in adj.get(u, ()):
                tw = trail.get(w)
                if tw is None:
                    trail[w] = tu + (w,)
                    grown.append(w)
                elif tw[0] != tu[0] and len(tu) + len(tw) <= t:
                    return [*tu, *reversed(tw)]
        layer = grown
    raise AssertionError(f"no path of length <= {t - 1} joins two of {values}")


def find_berge_cycle(family: SetFamily, max_len: int) -> Optional[BergeCycle]:
    """A Berge cycle of length 2..max_len among the family's sets, or None.

    The sets enter the 2-section graph in index order, and each is first
    asked whether a path of length <= max_len - 1 joins two of its values
    through the earlier sets (`_admitted`, the test `greedy_family` runs).
    The first set that has one closes the returned cycle, so
    `edge_indices[0]` is the least i for which sets[:i+1] holds a cycle of
    length <= max_len.  The earlier sets hold none, so no two of them share
    two values: each step of the path lies in exactly one earlier set, the
    one the graph records on that edge.  The cycle need not be a shortest
    one; the verdict is exact.

    Only that set's path is traced (`_closing_edge`, on the earlier sets):
    u's trail, then w's reversed, each a shortest path from one of the
    set's values.  No set holds two of the path's steps.  One holding two
    steps of a trail would shorten that trail.  One holding a step of each
    trail holds an edge between the two sources that the search meets
    before u-w: at an earlier layer, or, for u and w's parent on its trail,
    earlier in u's layer, whose vertices sit grouped by source in the order
    of the set's values.
    """
    if max_len < 2:
        return None  # a Berge cycle has at least two edges
    # the admitted sets part from the family at the first refused set (a later
    # set with the same values cannot be admitted in its place: the graph grows)
    kept = zip_longest(family.sets, _admitted(family.sets, max_len))
    i = next((i for i, (s, a) in enumerate(kept) if s != a), None)
    if i is None:
        return None
    adj: dict[int, dict[int, int]] = {}  # value -> {neighbour: the set holding both}
    for j, e in enumerate(family.sets[:i]):
        for v in e:
            adj.setdefault(v, {}).update((w, j) for w in e if w != v)
    path = _closing_edge(adj, family.sets[i], max_len)
    return BergeCycle(tuple(path), (i, *(adj[a][b] for a, b in zip(path, path[1:]))))


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


def target_family_size(q: int, r: int, t: int) -> int:
    """ceil(q**(t/(t-1)) / (2 t^2 (r+1)**(2t/(t-1)))), the size the
    randomized construction is guaranteed to reach (t >= 3) and the
    derandomized one aims at (also t = 2); exact, by an integer root.
    """
    if t < 2:
        raise ValueError("need t >= 2")
    if r < 1 or q < 2:
        raise ValueError("need r >= 1 and q >= 2")
    # the least M with M**(t-1) * B >= A for A = q**t,
    # B = 2**(t-1) * t**(2t-2) * (r+1)**(2t), i.e. M**(t-1) >= ceil(A/B);
    # the least such M is one more than the largest M with M**(t-1) < ceil(A/B)
    a = q**t
    b = 2 ** (t - 1) * t ** (2 * t - 2) * (r + 1) ** (2 * t)
    return _iroot(-(-a // b) - 1, t - 1) + 1


def family_size_upper_bound(q: int, r: int, t: int) -> int:
    """Largest family size compatible with the coverage condition at n = q.

    For odd t the bound is floor((q/r) * (q/(r+1))**(2/(t-1)) + q/(r+1));
    for even t it is floor((q/(r(r+1))) * q**(2/t) + q/(r+1)).  Both are
    floor(x**(1/u) + offset) for a rational x = coeff**u * base, and the
    floor is taken exactly: with n = floor(x**(1/u)) + floor(offset), it is
    n + 1 if (n + 1 - offset)**u <= x and n otherwise.
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
    x = coeff**u * base
    # floor(x**(1/u)) is the integer root of floor(x); the fractional parts
    # of the root and of offset add up to less than 2
    n = _iroot(int(x), u) + int(offset)
    return n + 1 if (n + 1 - offset) ** u <= x else n


def remove_violations(family: SetFamily) -> SetFamily:
    """`family` without one set of each minimal violation, the rest in order.

    Each violation of `verify_union_condition(family)` that no earlier
    removal has broken loses its lowest-index set.  The result always
    verifies: every failing collection of size <= t contains a minimal
    violation (singletons never fail, so shrinking a failing collection
    until no proper part fails ends at one of size 2..t), the verifier
    reports every minimal violation, and each of them loses a set.  Any
    sub-family of the result verifies too, since a failing collection of
    the sub-family is one of the result.
    """
    removed: set[int] = set()
    for v in verify_union_condition(family):
        if removed.isdisjoint(v.indices):
            removed.add(min(v.indices))
    kept = tuple(s for i, s in enumerate(family.sets) if i not in removed)
    return SetFamily(family.q, family.r, family.t, kept)


_MAX_ATTEMPTS = 20  # random_family's draws of 2m sets before it gives up


def random_family(
    q: int,
    r: int,
    t: int,
    seed: int,
    target_m: Optional[int] = None,
) -> SetFamily:
    """Randomized construction: oversample, then delete sets that witness
    coverage failures.

    Draws 2m uniformly random (r+1)-subsets of [q] (m is the guaranteed
    target size unless overridden), removes one constituent set per minimal
    violation, and returns the first m survivors.  `remove_violations`
    guarantees that the survivors verify, so an attempt fails only when
    fewer than m sets survive.  Each retry reseeds from a child stream of
    `seed`; identical arguments always reproduce the same family.
    """
    if t < 3:
        raise ValueError("the randomized construction needs t >= 3")
    m = target_m if target_m is not None else target_family_size(q, r, t)
    if m < 1:
        raise ValueError("target family size must be positive")
    base = SplitMix64(seed)
    for _ in range(_MAX_ATTEMPTS):
        pool = SetFamily(q, r, t, tuple(base.spawn().subsets(q, r + 1, 2 * m)))
        survivors = remove_violations(pool)
        if survivors.m >= m:
            return SetFamily(q, r, t, survivors.sets[:m])
    raise GenerationError(
        f"no verifying family of {m} sets within {_MAX_ATTEMPTS} attempts "
        f"(q={q}, r={r}, t={t}, seed={seed})"
    )


def _draws(rng: SplitMix64, q: int, k: int, budget: int) -> Iterator[tuple[int, ...]]:
    """`budget` k-subsets of [0, q) from `rng`, drawn in batches of 16, 64,
    256 and then 1024: a run that stops after a few draws computes few, and
    a long one pays a batch's fixed cost rarely."""
    size = 16
    while budget > 0:
        batch = rng.subsets(q, k, min(size, budget))
        yield from batch
        budget -= len(batch)
        size = min(4 * size, 1024)


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
    passes full verification.  Stops after `candidate_budget` draws, once
    `target_m` sets (when given) are accepted, or once no set can be
    admitted.  May return fewer sets than the target; the family can even be
    empty for tiny budgets.  A target below 1 or a negative budget is a
    ValueError.

    `_admitted` asks each draw the distance question of the module docstring.
    """
    if t < 2:
        raise ValueError("need t >= 2")
    if r + 1 > q:
        raise ValueError("set size r+1 cannot exceed q")
    if target_m is not None and target_m < 1:
        raise ValueError("target family size must be positive")
    if candidate_budget < 0:
        raise ValueError("candidate budget must be non-negative")
    draws = _draws(SplitMix64(seed), q, r + 1, candidate_budget)
    return SetFamily(q, r, t, tuple(islice(_admitted(draws, t, q), target_m)))


def packing_ceiling(q: int, r: int) -> int:
    """Hard cap on the size of any verifying family.

    The pairwise coverage requirement forces |A_i ∩ A_j| <= 1, so the
    C(r+1, 2) element pairs inside each set are globally distinct and
    m * C(r+1, 2) <= C(q, 2).
    """
    return comb(q, 2) // comb(r + 1, 2)
