"""Encoding, local repair, and erasure decoding against a parity-check matrix.

Received words are lists over GF(q) with None marking an erased symbol.
Local repair exploits the block-indicator rows: the r+1 symbols of a repair
group sum to zero, so a single missing symbol is the negated sum of its r
group mates.  Everything else is linear algebra on the erased columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

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
    products = field.mul_array(field.array(message)[:, None], field.array(g_rows))
    return field.sum_array(products, axis=0).tolist()


def _parity_array(field: GF, h_rows: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """H as a (rows, n) array for a word of length n; ValueError unless H
    has n columns (an H with no rows has any number)."""
    h = field.array(h_rows)
    if len(h) == 0:
        return h.reshape(0, n)
    if h.ndim != 2 or h.shape[1] != n:
        raise ValueError(f"received word length {n} != n = {h.shape[-1]}")
    return h


def syndrome(field: GF, h_rows: Sequence[Sequence[int]], word: Sequence[int]) -> list[int]:
    products = field.mul_array(_parity_array(field, h_rows, len(word)), field.array(word)[None, :])
    return field.sum_array(products, axis=1).tolist()


def is_codeword(field: GF, h_rows: Sequence[Sequence[int]], word: Sequence[int]) -> bool:
    return all(v == 0 for v in syndrome(field, h_rows, word))


def repair_groups(n: int, r: int) -> list[tuple[int, ...]]:
    """Coordinate blocks [i(r+1), (i+1)(r+1)) partitioning [0, n)."""
    if n % (r + 1) != 0:
        raise ValueError("n must be a multiple of r+1")
    width = r + 1
    return [tuple(range(i, i + width)) for i in range(0, n, width)]


def _restore_from_group(field: GF, received: Received, r: int, pos: int) -> int:
    # the r+1 symbols of a repair group sum to zero, so the erased one is
    # the negated sum of its r mates
    start = pos - pos % (r + 1)
    mates = [received[j] for j in range(start, start + r + 1) if j != pos]
    return int(field.sub_array(0, field.sum_array(field.array(mates), axis=0)))


def local_repair(field: GF, received: Received, r: int) -> tuple[int, int]:
    """(position, value) for the unique erasure, read from its r group mates.

    Fails unless exactly one symbol is erased and the rest of its repair
    group is intact; r < 1 is refused with ValueError.
    """
    if r < 1:
        raise ValueError(f"locality r = {r} must be at least 1")
    erased = [i for i, v in enumerate(received) if v is None]
    if len(erased) != 1:
        raise LocalRepairError(f"local repair needs exactly one erasure, found {len(erased)}")
    return erased[0], _restore_from_group(field, received, r, erased[0])


def erasure_decode(field: GF, h_rows: Sequence[Sequence[int]], received: Received) -> list[int]:
    """Fill every erasure by solving the parity checks restricted to them.

    Raises InconsistentWordError when the present symbols violate every
    completion, and UnrecoverableError when more than one completion fits
    (always the case past d-1 erasures on a singular restriction).
    """
    h = _parity_array(field, h_rows, len(received))
    erased = [j for j, v in enumerate(received) if v is None]
    if not erased:
        if not is_codeword(field, h, received):  # type: ignore[arg-type]
            raise InconsistentWordError("word is complete but fails the parity checks")
        return list(received)  # type: ignore[arg-type]
    # erased symbols enter the syndrome as zeros: H_E x = -(H w with w_E = 0)
    known = syndrome(field, h, [0 if v is None else v for v in received])
    b = field.sub_array(0, field.array(known))
    status, x = linalg.solve(field, h[:, erased], b)
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

    Groups with a single erasure are fixed by reading their r mates, and the
    repaired word must then pass every parity check of H (else
    InconsistentWordError); if any group has two or more erasures the whole
    word falls back to global erasure decoding, reading every present
    symbol.  r < 1, or a word whose length is not the number of columns of
    H or not a multiple of r+1, is refused with ValueError.
    """
    if r < 1:
        raise ValueError(f"locality r = {r} must be at least 1")
    h = _parity_array(field, h_rows, len(received))
    n = len(received)
    if n % (r + 1) != 0:
        raise ValueError(f"n = {n} is not a multiple of r+1 = {r + 1}")
    erased = [i for i, v in enumerate(received) if v is None]
    if not erased:
        return RepairResult(tuple(v for v in received if v is not None), "none", 0)
    groups = {pos // (r + 1) for pos in erased}
    if len(groups) == len(erased):
        out = list(received)
        for pos in erased:
            out[pos] = _restore_from_group(field, received, r, pos)
        if not is_codeword(field, h, out):  # type: ignore[arg-type]
            raise InconsistentWordError("locally repaired word fails the parity checks")
        return RepairResult(tuple(out), "local", r * len(erased))  # type: ignore[arg-type]
    decoded = erasure_decode(field, h, received)
    return RepairResult(tuple(decoded), "global", len(received) - len(erased))
