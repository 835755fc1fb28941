"""Parity-check construction and exact distance analysis for local codes.

A verifying family of m sets over GF(q) yields an (m + d - 2) x m(r+1)
parity-check matrix: one 0/1 block-indicator row per set, then d - 2 rows
of consecutive powers (exponents 1..d-2) of the set elements.  The block
indicator makes every block of r+1 coordinates sum to zero in any codeword,
which is what gives each symbol an r-symbol repair group.  Distance claims
are checked exactly by `linalg.smallest_dependent_subset`, which scans only
the column sets that meet each block in 0 or >= 2 columns because H's own
block-indicator rows rule the others out.  The pruning reads H, never the
coverage verdict, and nothing here relies on the coverage condition being
sufficient, so the two verdicts stay independent.

A `ParityCheckMatrix` remembers what its completed scans proved: the
largest s such that no s or fewer of its columns are dependent, and its
rank once computed.  The distance functions share one scan body, which
resumes a matrix's scan at s + 1, so finding the exact distance after the
design-distance verdict walks no size twice.  Every remembered value is a
proven fact about H, so a call's result never depends on what ran before
it.  The budget still counts the candidates of every size from 1, so a
call is refused, with the same message, whatever ran before it, and a
refused call proves nothing and changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Optional, Sequence

from . import linalg
from .gf import GF
from .setfam import SetFamily, find_berge_cycle

DEFAULT_SUBSET_BUDGET = 30_000_000


@dataclass
class _Proven:
    """Facts about one matrix, each set only by a completed computation:
    no `clear` or fewer columns are dependent, and the rank (None until
    computed)."""

    clear: int = 0
    rank: Optional[int] = None


@dataclass(frozen=True)
class ParityCheckMatrix:
    q: int
    m: int
    r: int
    d: int
    rows: tuple[tuple[int, ...], ...]
    field: GF = dc_field(repr=False, compare=False)
    _proven: _Proven = dc_field(default_factory=_Proven, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.m * (self.r + 1)

    def columns(self) -> list[tuple[int, ...]]:
        return list(zip(*self.rows))


def build_parity_check(family: SetFamily, d: int, field: Optional[GF] = None) -> ParityCheckMatrix:
    """Assemble the block-indicator plus power rows for design distance d.

    Requires d >= 5 and a family whose t covers floor((d-1)/2).  Column
    order follows the family: block i occupies columns i(r+1)..(i+1)(r+1)-1,
    elements ascending inside a block.
    """
    if d < 5:
        raise ValueError(f"design distance d={d} is below the supported minimum 5")
    t_needed = (d - 1) // 2
    if family.t < t_needed:
        raise ValueError(f"family checked at t={family.t} cannot back distance d={d}")
    fld = field if field is not None else GF(family.q)
    if fld.q != family.q:
        raise ValueError("field order does not match the family")
    m, r = family.m, family.r
    n = m * (r + 1)
    rows: list[list[int]] = []
    for i in range(m):
        row = [0] * n
        for j in range(i * (r + 1), (i + 1) * (r + 1)):
            row[j] = 1
        rows.append(row)
    flat = fld.array([a for s in family.sets for a in s])
    for power in range(1, d - 1):
        rows.append(fld.pow_array(flat, power).tolist())
    return ParityCheckMatrix(family.q, m, r, d, tuple(tuple(rw) for rw in rows), fld)


def _rank(field: GF, rows: Sequence[Sequence[int]], proven: _Proven) -> int:
    if proven.rank is None:
        proven.rank = linalg.rank(field, rows)
    return proven.rank


def _scan(
    field: GF, rows: Sequence[Sequence[int]], max_size: Optional[int], budget: int, proven: _Proven
) -> Optional[tuple[int, ...]]:
    """The one distance scan: the least dependent column set of size <=
    max_size, or None.  With max_size None the scan is exact: capped at
    rank + 1, since any rank + 1 columns are dependent, and ValueError when
    every column is independent.  The walk resumes after the sizes
    `proven` has cleared (the budget still counts them), and a completed
    walk clears the sizes below its witness, or up to max_size."""
    exact = max_size is None
    if exact:
        max_size = _rank(field, rows, proven) + 1
    columns = list(zip(*rows))
    witness = linalg.smallest_dependent_subset(
        field, columns, max_size, budget=budget, start=proven.clear + 1
    )
    proven.clear = max(proven.clear, max_size if witness is None else len(witness) - 1)
    if exact and witness is None:
        raise ValueError(
            f"all {len(columns)} columns are independent: the code is {{0}} and has no minimum distance"
        )
    return witness


def verify_distance_at_least(
    pcm: ParityCheckMatrix, d: Optional[int] = None, budget: int = DEFAULT_SUBSET_BUDGET
) -> Optional[tuple[int, ...]]:
    """None when every d-1 columns are independent, else a witness subset.

    The scan runs over subset sizes 1..d-1 in ascending order and short
    circuits at the first dependency, so a witness is always one of minimum
    size (and lexicographically least among those).  It doubles as the
    support of a minimum-weight codeword when the verdict is negative at
    the true distance.  The walk resumes after the sizes earlier scans of
    `pcm` cleared; the budget counts candidates from size 1 regardless.
    """
    dd = pcm.d if d is None else d
    return _scan(pcm.field, pcm.rows, dd - 1, budget, pcm._proven)


def least_dependent_columns(
    field: GF, rows: Sequence[Sequence[int]], budget: int = DEFAULT_SUBSET_BUDGET
) -> tuple[int, ...]:
    """Lexicographically least dependent column set of minimum size.

    Any rank+1 columns are dependent, so the scan is capped there; instances
    whose candidate count exceeds `budget` are rejected up front.  A matrix of
    full column rank has no dependent set (its code is {0}): ValueError.
    """
    return _scan(field, rows, None, budget, _Proven())


def min_distance_witness(
    pcm: ParityCheckMatrix, budget: int = DEFAULT_SUBSET_BUDGET
) -> tuple[int, ...]:
    """Lexicographically least dependent column set of minimum size, as
    least_dependent_columns finds it.  The scan resumes after the sizes
    earlier scans of `pcm` cleared, and the rank cap is computed once per
    matrix; the budget counts candidates from size 1 regardless."""
    return _scan(pcm.field, pcm.rows, None, budget, pcm._proven)


def exact_min_distance(pcm: ParityCheckMatrix, budget: int = DEFAULT_SUBSET_BUDGET) -> int:
    """Exhaustive minimum distance: the smallest number of dependent columns,
    through min_distance_witness, so the scan resumes and the budget counts
    as there."""
    return len(min_distance_witness(pcm, budget))


def singleton_bound(n: int, k: int, r: int) -> int:
    """Distance ceiling n - k - ceil(k/r) + 2 for locality r."""
    if n < 1 or k < 1 or r < 1:
        raise ValueError("need n, k, r >= 1")
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
        bound = n - k - (-(-k // r)) + 1
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

    n = m(r+1) and k = n - m - (d - 2), taking the parity-check matrix at
    full rank; a rank-deficient matrix, a failing family, or k < 1 is
    rejected.
    """
    t_needed = (d - 1) // 2
    # no Berge cycle of length <= t is the coverage condition at t
    if find_berge_cycle(family, max(t_needed, 2)) is not None:
        raise ValueError("family fails the coverage condition for this distance")
    if pcm is None:
        pcm = build_parity_check(family, d)
    n = family.m * (family.r + 1)
    k = n - family.m - (d - 2)
    if k < 1:
        raise ValueError(f"parameters give dimension k={k}; need k >= 1")
    got_rank = _rank(pcm.field, pcm.rows, pcm._proven)
    if got_rank < family.m + d - 2:
        raise ValueError(
            f"parity-check rank {got_rank} is below m + d - 2 = {family.m + d - 2}"
        )
    return CodeParams(q=family.q, n=n, k=k, d=d, r=family.r, m=family.m, t=t_needed)
