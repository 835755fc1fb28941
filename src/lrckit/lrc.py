"""Parity-check construction and exact distance analysis for local codes.

A verifying family of m sets over GF(q) yields an (m + d - 2) x m(r+1)
parity-check matrix: one 0/1 block-indicator row per set, then d - 2 rows
of consecutive powers (exponents 1..d-2) of the set elements.  The block
indicator makes every block of r+1 coordinates sum to zero in any codeword,
which is what gives each symbol an r-symbol repair group.  Distance claims
are checked exactly by `linalg.smallest_dependent_subset`, which scans only
the column sets that meet each block in 0 or >= 2 columns because H's own
block-indicator rows rule the others out.  Up to size d - 1 it reads H as
a bipartite graph, one vertex per block and per value of the first power
row, one edge per column: there the smallest dependent sets are exactly the
column sets of the shortest cycles (the `linalg` module docstring has the
proof), so no walk runs.  The cycle search reads H, never the coverage
verdict, and nothing here relies on the coverage condition being
sufficient, so the two verdicts stay independent.

A `ParityCheckMatrix` is its rows over a field and nothing more: its
length and block count are read from the rows, so a matrix read from a
file asks the same distance questions as a built one.  It keeps, built on
first use, its scan state (`linalg._ScanState`: H's entries read once, the
block rows written from their layout), on which every distance scan runs;
no distance answer takes a rank or runs an elimination.  The state holds
only H's structure and the budget counts every size from 1, so a call's
answer or refusal never depends on what ran before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

from . import linalg
from .gf import GF, check_order
from .setfam import SetFamily, find_berge_cycle

DEFAULT_SUBSET_BUDGET = 30_000_000


@dataclass(frozen=True)
class ParityCheckMatrix:
    """A parity-check matrix H: its rows, each a tuple of elements of
    `field`, at least one row and one column (ValueError otherwise).  Two
    matrices are equal when their rows and field orders are.  The code
    length n is the column count."""

    rows: tuple[tuple[int, ...], ...]
    field: GF

    def __post_init__(self) -> None:
        if not self.rows or not self.rows[0]:
            raise ValueError("parity-check matrix must have at least one row and one column")

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.rows))

    # per instance, not a field: no part of the value, and replace() starts afresh
    @cached_property
    def _state(self) -> linalg._ScanState:
        return linalg._ScanState(self.field, self.rows)


def build_parity_check(family: SetFamily, d: int, field: Optional[GF] = None) -> ParityCheckMatrix:
    """Assemble the block-indicator plus power rows for design distance d.

    Requires d >= 5 and a family whose t covers floor((d-1)/2).  Column
    order follows the family: block i occupies columns i(r+1)..(i+1)(r+1)-1,
    elements ascending inside a block.
    """
    _check_design(family, d)
    fld = field if field is not None else GF(family.q)
    if fld.q != family.q:
        raise ValueError("field order does not match the family")
    width = family.r + 1
    rows = [[0] * family.n for _ in range(family.m)]
    for i, row in enumerate(rows):
        row[i * width : (i + 1) * width] = [1] * width
    flat = fld.array([a for s in family.sets for a in s])
    for power in range(1, d - 1):
        rows.append(fld.pow_array(flat, power).tolist())
    return ParityCheckMatrix(tuple(tuple(rw) for rw in rows), fld)


def _check_design(family: SetFamily, d: int) -> None:
    if d < 5:
        raise ValueError(f"design distance d={d} is below the supported minimum 5")
    if family.t < (d - 1) // 2:
        raise ValueError(f"family checked at t={family.t} cannot back distance d={d}")


def verify_distance_at_least(
    pcm: ParityCheckMatrix, d: int, budget: int = DEFAULT_SUBSET_BUDGET
) -> Optional[tuple[int, ...]]:
    """None when every d-1 columns are independent, else a witness subset.

    The scan runs over subset sizes 1..d-1 in ascending order and short
    circuits at the first dependency, so a witness is always one of minimum
    size (and lexicographically least among those).  It doubles as the
    support of a minimum-weight codeword when the verdict is negative at
    the true distance.
    """
    state = pcm._state
    return linalg.smallest_dependent_subset(pcm.field, state.columns, d - 1, budget=budget, state=state)


def min_distance_witness(
    pcm: ParityCheckMatrix, budget: int = DEFAULT_SUBSET_BUDGET
) -> tuple[int, ...]:
    """Lexicographically least dependent column set of minimum size.

    Any len(rows) + 1 columns are dependent, as their rank is at most the
    row count, so the scan is capped there with no rank taken, and a matrix
    of full column rank, which has no dependent set (its code is {0}), is a
    ValueError.  The least dependent size is at most rank + 1, so the
    witness is the one a cap at rank + 1 finds; on a matrix without full
    row rank the budget may also count sizes past rank + 1, and refuse."""
    state = pcm._state
    witness = linalg.smallest_dependent_subset(pcm.field, state.columns, len(pcm.rows) + 1,
                                               budget=budget, state=state)
    if witness is None:
        raise ValueError(
            f"all {pcm.n} columns are independent: the code is {{0}} and has no minimum distance"
        )
    return witness


def exact_min_distance(pcm: ParityCheckMatrix, budget: int = DEFAULT_SUBSET_BUDGET) -> int:
    """Exhaustive minimum distance: the smallest number of dependent columns,
    through min_distance_witness, so the budget counts as there."""
    return len(min_distance_witness(pcm, budget))


def singleton_bound(n: int, k: int, r: int) -> int:
    """Distance ceiling n - k - ceil(k/r) + 2 for locality r."""
    if n < 1 or k < 1 or r < 1:
        raise ValueError("need n, k, r >= 1")
    if k > n:
        raise ValueError(f"dimension k={k} exceeds length n={n}")
    return n - k - (-(-k // r)) + 2


@dataclass(frozen=True)
class CodeParams:
    q: int
    n: int
    k: int
    d: int
    r: int
    m: int
    t: int

    def __post_init__(self) -> None:
        if self.d < 5:
            raise ValueError("d must be at least 5")
        if self.t < 2:
            raise ValueError("t must be at least 2")
        if self.r < self.d - 2:
            raise ValueError("locality r must be at least d-2")
        if self.n % (self.r + 1) != 0:
            raise ValueError("block length must be a multiple of r+1")
        if not 1 <= self.k < self.n:
            raise ValueError("dimension k must satisfy 1 <= k < n")


class OptimalityKind(Enum):
    SINGLETON = "singleton"
    ADJUSTED = "adjusted"
    NOT_OPTIMAL = "not-optimal"


@dataclass(frozen=True)
class OptimalityVerdict:
    kind: OptimalityKind
    bound_value: int


def optimality_check(params: CodeParams, actual_d: int) -> OptimalityVerdict:
    """Compare an exact distance against the applicable locality bound.

    When actual_d - 2 is congruent to r mod r+1 the distance ceiling
    n - k - ceil(k/r) + 2 is out of reach and optimal means hitting the
    adjusted ceiling one below it.  Otherwise optimal means meeting the
    ceiling exactly, together with the redundancy identity
    n - k = n/(r+1) + d - 2 - floor((d-2)/(r+1)) that equality forces.
    """
    n, k, r = params.n, params.k, params.r
    if (actual_d - 2) % (r + 1) == r:
        bound = singleton_bound(n, k, r) - 1
        kind = OptimalityKind.ADJUSTED if actual_d == bound else OptimalityKind.NOT_OPTIMAL
    else:
        bound = singleton_bound(n, k, r)
        redundancy_ok = n - k == n // (r + 1) + actual_d - 2 - (actual_d - 2) // (r + 1)
        kind = (
            OptimalityKind.SINGLETON
            if (actual_d == bound and redundancy_ok)
            else OptimalityKind.NOT_OPTIMAL
        )
    return OptimalityVerdict(kind, bound)


def code_params_from_family(
    family: SetFamily, d: int, pcm: Optional[ParityCheckMatrix] = None
) -> CodeParams:
    """Derive [n, k] from a verifying family and a design distance.

    k = n - m - (d - 2): H has rank m + d - 2 when r >= d - 2, and below
    that CodeParams refuses the locality.  If block rows B_i and power rows
    combine to sum_i c_i B_i + P(x) = 0, P(X) = sum_{e=1..d-2} a_e X^e, then
    on block i P + c_i, of degree <= d - 2, has r + 1 >= d - 1 distinct
    roots, so all a_e and c_i are 0.  build_parity_check's refusals come
    with no H or field built; a given `pcm` must equal that H, field included.
    """
    t_needed = (d - 1) // 2
    # no Berge cycle of length <= t is the coverage condition at t
    if find_berge_cycle(family, max(t_needed, 2)) is not None:
        raise ValueError("family fails the coverage condition for this distance")
    if pcm is None:
        _check_design(family, d)
        check_order(family.q)
    elif pcm.field.q != family.q or pcm != build_parity_check(family, d, pcm.field):
        raise ValueError("parity-check matrix was not built from this family at this distance")
    k = family.n - family.m - (d - 2)
    if k < 1:
        raise ValueError(f"parameters give dimension k={k}; need k >= 1")
    return CodeParams(q=family.q, n=family.n, k=k, d=d, r=family.r, m=family.m, t=t_needed)
