"""Encoding, local repair, and erasure decoding against a parity-check matrix.

Received words are lists over GF(q) with None marking an erased symbol.
Local repair exploits the block-indicator rows: the r+1 symbols of a repair
group sum to zero, so a single missing symbol is the negated sum of its r
group mates.  Everything else is linear algebra on the erased columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import linalg
from .gf import GF

Received = Sequence[Optional[int]]


class DecodingError(Exception):
    pass


class UnrecoverableError(DecodingError):
    """The erased positions admit two or more completions."""


class InconsistentWordError(DecodingError):
    """No completion of the received symbols satisfies the parity checks."""


class LocalRepairError(DecodingError):
    """Single-symbol repair was asked for but its preconditions fail."""


def generator_from_parity(field: GF, h_rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """k x n generator matrix spanning the right nullspace of H.

    Systematic on the non-pivot columns of H's reduced echelon form (a
    deterministic information set): row i has a 1 on the i-th free column
    and zeros on the others.
    """
    basis = linalg.nullspace_basis(field, h_rows)
    if not basis:
        raise ValueError("parity-check matrix has a trivial nullspace; k = 0")
    return basis


def encode(field: GF, g_rows: Sequence[Sequence[int]], message: Sequence[int]) -> list[int]:
    if len(message) != len(g_rows):
        raise ValueError(f"message length {len(message)} != k = {len(g_rows)}")
    n = len(g_rows[0])
    out = [0] * n
    for coeff, row in zip(message, g_rows):
        if coeff == 0:
            continue
        for j in range(n):
            out[j] = field.add(out[j], field.mul(coeff, row[j]))
    return out


def syndrome(field: GF, h_rows: Sequence[Sequence[int]], word: Sequence[int]) -> list[int]:
    out = []
    for row in h_rows:
        acc = 0
        for hv, wv in zip(row, word):
            acc = field.add(acc, field.mul(hv, wv))
        out.append(acc)
    return out


def is_codeword(field: GF, h_rows: Sequence[Sequence[int]], word: Sequence[int]) -> bool:
    return all(v == 0 for v in syndrome(field, h_rows, word))


def repair_groups(n: int, r: int) -> list[tuple[int, ...]]:
    """Coordinate blocks [i(r+1), (i+1)(r+1)) partitioning [0, n)."""
    if n % (r + 1) != 0:
        raise ValueError("n must be a multiple of r+1")
    width = r + 1
    return [tuple(range(i, i + width)) for i in range(0, n, width)]


def local_repair(field: GF, received: Received, r: int) -> tuple[int, int]:
    """(position, value) for the unique erasure, read from its r group mates.

    Fails unless exactly one symbol is erased and the rest of its repair
    group is intact.
    """
    erased = [i for i, v in enumerate(received) if v is None]
    if len(erased) != 1:
        raise LocalRepairError(f"local repair needs exactly one erasure, found {len(erased)}")
    pos = erased[0]
    width = r + 1
    group = range((pos // width) * width, (pos // width + 1) * width)
    acc = 0
    for j in group:
        if j == pos:
            continue
        v = received[j]
        assert v is not None
        acc = field.add(acc, v)
    return pos, field.neg(acc)


def _check_length(h_rows: Sequence[Sequence[int]], received: Received) -> int:
    n = len(h_rows[0]) if h_rows else len(received)
    if len(received) != n:
        raise ValueError(f"received word length {len(received)} != n = {n}")
    return n


def erasure_decode(field: GF, h_rows: Sequence[Sequence[int]], received: Received) -> list[int]:
    """Fill every erasure by solving the parity checks restricted to them.

    Raises InconsistentWordError when the present symbols violate every
    completion, and UnrecoverableError when more than one completion fits
    (always the case past d-1 erasures on a singular restriction).
    """
    _check_length(h_rows, received)
    erased = [j for j, v in enumerate(received) if v is None]
    if not erased:
        if not is_codeword(field, h_rows, [v for v in received if v is not None]):
            raise InconsistentWordError("word is complete but fails the parity checks")
        return [v for v in received if v is not None]  # type: ignore[misc]
    a_rows = []
    b = []
    for row in h_rows:
        a_rows.append([row[j] for j in erased])
        acc = 0
        for j, wv in enumerate(received):
            if wv is not None:
                acc = field.add(acc, field.mul(row[j], wv))
        b.append(field.neg(acc))
    status, x = linalg.solve(field, a_rows, b)
    if status == "none":
        raise InconsistentWordError("present symbols are inconsistent with the parity checks")
    if status == "many":
        raise UnrecoverableError(
            f"{len(erased)} erasures leave the restricted system singular"
        )
    assert x is not None
    out = list(received)
    for j, v in zip(erased, x):
        out[j] = v
    return out  # type: ignore[return-value]


@dataclass(frozen=True)
class RepairResult:
    word: tuple[int, ...]
    method: str  # "local", "global", or "none"
    symbols_read: int


def repair(field: GF, h_rows: Sequence[Sequence[int]], r: int, received: Received) -> RepairResult:
    """Restore all erasures, preferring per-group local repair.

    Groups with a single erasure are fixed by reading their r mates; if any
    group has two or more erasures the whole word falls back to global
    erasure decoding, reading every present symbol.  A word whose length is
    not the number of columns of H, or not a multiple of r+1, is refused
    with ValueError.
    """
    n = _check_length(h_rows, received)
    if n % (r + 1) != 0:
        raise ValueError(f"n = {n} is not a multiple of r+1 = {r + 1}")
    erased = [i for i, v in enumerate(received) if v is None]
    if not erased:
        return RepairResult(tuple(v for v in received if v is not None), "none", 0)
    width = r + 1
    per_group: dict[int, list[int]] = {}
    for pos in erased:
        per_group.setdefault(pos // width, []).append(pos)
    if all(len(v) == 1 for v in per_group.values()):
        out = list(received)
        for g, positions in per_group.items():
            pos = positions[0]
            acc = 0
            for j in range(g * width, (g + 1) * width):
                if j != pos:
                    v = received[j]
                    assert v is not None
                    acc = field.add(acc, v)
            out[pos] = field.neg(acc)
        return RepairResult(tuple(out), "local", r * len(per_group))  # type: ignore[arg-type]
    decoded = erasure_decode(field, h_rows, received)
    return RepairResult(tuple(decoded), "global", len(received) - len(erased))
