"""Encoding, local repair, and erasure decoding against a parity-check matrix.

Received words are lists over GF(q) with None marking an erased symbol.
Local repair exploits the block-indicator rows: the r+1 symbols of a repair
group sum to zero, so a single missing symbol is the negated sum of its r
group mates.  Everything else is linear algebra on the erased columns.
Every word `repair` and `erasure_decode` return passes the parity checks of
H; a received word that no completion fits raises InconsistentWordError.
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
    return field.dot_array(field.array(message)[:, None], field.array(g_rows), axis=0).tolist()


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
    return field.dot_array(_parity_array(field, h_rows, len(word)), field.array(word)[None, :], axis=1).tolist()


def is_codeword(field: GF, h_rows: Sequence[Sequence[int]], word: Sequence[int]) -> bool:
    return all(v == 0 for v in syndrome(field, h_rows, word))


def repair_groups(n: int, r: int) -> list[tuple[int, ...]]:
    """The repair groups of `repair`: coordinate blocks [i(r+1), (i+1)(r+1))
    partitioning [0, n).  ValueError for r < 1, or for an n that is not a
    multiple of r+1."""
    if r < 1:
        raise ValueError(f"locality r = {r} must be at least 1")
    if n % (r + 1) != 0:
        raise ValueError(f"n = {n} is not a multiple of r+1 = {r + 1}")
    return [tuple(range(i, i + r + 1)) for i in range(0, n, r + 1)]


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
    """Restore all erasures, preferring per-group local repair; every word
    returned passes the parity checks of H, else InconsistentWordError.

    If each group of repair_groups(n, r) holds at most one erasure, the
    erased symbol is the negated sum of its r present mates (a complete
    word is checked as it is, method "none"); otherwise the whole word is
    decoded globally, reading every present symbol.  r < 1, then a length
    other than H's column count, then one not a multiple of r+1, is
    refused with ValueError.
    """
    n = len(received)
    repair_groups(0, r)  # refuses r < 1 before the word's length is read
    h = _parity_array(field, h_rows, n)
    groups = repair_groups(n, r)
    erased = [j for j, v in enumerate(received) if v is None]
    touched = [g for g in groups if any(received[j] is None for j in g)]
    if len(touched) < len(erased):
        return RepairResult(tuple(erasure_decode(field, h, received)), "global", n - len(erased))
    out = list(received)
    for group in touched:
        # the r+1 symbols of a group sum to zero
        (pos,) = (j for j in group if received[j] is None)
        mates = field.array([received[j] for j in group if j != pos])
        out[pos] = int(field.sub_array(0, field.sum_array(mates, axis=0)))
    if not is_codeword(field, h, out):  # type: ignore[arg-type]
        raise InconsistentWordError(
            "locally repaired word fails the parity checks" if erased
            else "word is complete but fails the parity checks"
        )
    return RepairResult(tuple(out), "local" if erased else "none", r * len(erased))  # type: ignore[arg-type]
