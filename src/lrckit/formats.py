"""Plain-text file formats for families, matrices, and (possibly erased) words.

All three formats are whitespace-delimited integers with a one-line header:

    family   "q r t m"      then m lines of r+1 sorted elements
    matrix   "rows cols q"  then row-major entries, one row per line
    word     "n q"          then n entries on one line, "?" for an erasure

Writers emit a single canonical byte representation (fixed separators and a
trailing newline) so identical inputs always produce identical files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

from .setfam import SetFamily

PathLike = Union[str, Path]
ERASURE_MARK = "?"


class FormatError(ValueError):
    pass


def _tokens(path: PathLike) -> list[str]:
    text = Path(path).read_text()
    return text.split()


def _ints(tokens: list[str], what: str) -> list[int]:
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise FormatError(f"bad {what} token {tok!r}") from None
    return out


def write_family(path: PathLike, family: SetFamily) -> None:
    lines = [f"{family.q} {family.r} {family.t} {family.m}"]
    for s in family.sets:
        lines.append(" ".join(str(v) for v in s))
    Path(path).write_text("\n".join(lines) + "\n")


def read_family(path: PathLike) -> SetFamily:
    toks = _tokens(path)
    if len(toks) < 4:
        raise FormatError("family file needs a 'q r t m' header")
    q, r, t, m = _ints(toks[:4], "header")
    body = _ints(toks[4:], "element")
    if len(body) != m * (r + 1):
        raise FormatError(f"expected {m * (r + 1)} elements, found {len(body)}")
    width = r + 1
    sets = tuple(tuple(body[i * width : (i + 1) * width]) for i in range(m))
    try:
        return SetFamily(q, r, t, sets)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_matrix(path: PathLike, rows: Sequence[Sequence[int]], q: int) -> None:
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    lines = [f"{nrows} {ncols} {q}"]
    for row in rows:
        if len(row) != ncols:
            raise FormatError("ragged matrix")
        lines.append(" ".join(str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix(path: PathLike) -> tuple[tuple[tuple[int, ...], ...], int]:
    toks = _tokens(path)
    if len(toks) < 3:
        raise FormatError("matrix file needs a 'rows cols q' header")
    nrows, ncols, q = _ints(toks[:3], "header")
    if nrows < 1 or ncols < 1:
        raise FormatError(f"matrix must have at least one row and one column, got {nrows}x{ncols}")
    body = _ints(toks[3:], "entry")
    if len(body) != nrows * ncols:
        raise FormatError(f"expected {nrows * ncols} entries, found {len(body)}")
    if any(v < 0 or v >= q for v in body):
        raise FormatError(f"matrix entry outside [0, {q})")
    rows = tuple(tuple(body[i * ncols : (i + 1) * ncols]) for i in range(nrows))
    return rows, q


def write_word(path: PathLike, symbols: Sequence[Optional[int]], q: int) -> None:
    lines = [f"{len(symbols)} {q}"]
    lines.append(" ".join(ERASURE_MARK if v is None else str(v) for v in symbols))
    Path(path).write_text("\n".join(lines) + "\n")


def read_word(path: PathLike) -> tuple[list[Optional[int]], int]:
    toks = _tokens(path)
    if len(toks) < 2:
        raise FormatError("word file needs an 'n q' header")
    n, q = _ints(toks[:2], "header")
    body = toks[2:]
    if len(body) != n:
        raise FormatError(f"expected {n} symbols, found {len(body)}")
    out: list[Optional[int]] = []
    for tok in body:
        if tok == ERASURE_MARK:
            out.append(None)
            continue
        try:
            v = int(tok)
        except ValueError:
            raise FormatError(f"bad symbol {tok!r}") from None
        if v < 0 or v >= q:
            raise FormatError(f"symbol {v} outside [0, {q})")
        out.append(v)
    return out, q

