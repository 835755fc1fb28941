"""Command-line interface.

Subcommands cover the full pipeline: generate a set family, verify it,
build the parity-check matrix, measure distance, then encode / erase /
repair / decode words.  Every command that consumes randomness takes a
64-bit ``--seed`` and produces byte-identical files on reruns.

Exit codes: 0 success, 1 verification or decoding failure, 2 usage
error, 3 generation failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from typing import Optional, Sequence

from . import codec, derand, formats, linalg, lrc, setfam
from .gf import GF, MAX_ORDER
from .rng import SplitMix64


def _t_from_d(d: int) -> int:
    # t = floor((d-1)/2) must be >= 2, i.e. d >= 5.
    if d < 5:
        raise formats.FormatError(f"d={d} too small: need d >= 5 so that t = (d-1)//2 >= 2")
    return (d - 1) // 2


def _check_d(d: int, family: setfam.SetFamily) -> None:
    t = _t_from_d(d)
    if t > family.t:
        raise formats.FormatError(f"family was built for t={family.t}; d={d} needs t >= {t}")


def _check_budget(budget: Optional[int]) -> None:
    if budget is not None and budget < 0:
        raise formats.FormatError(f"--budget {budget} must be non-negative")


def cmd_gen_family(args: argparse.Namespace) -> int:
    t = _t_from_d(args.d)
    if args.q > MAX_ORDER:
        raise formats.FormatError(
            f"--q {args.q} exceeds {MAX_ORDER}, the largest field order a code can use"
        )
    if args.r < 1:
        raise formats.FormatError(f"--r {args.r} must be at least 1")
    _check_budget(args.budget)
    target: Optional[int] = None
    if args.n is not None:
        if args.n < args.r + 1:
            raise formats.FormatError(f"--n {args.n} must be at least r+1 = {args.r + 1}")
        if args.n % (args.r + 1) != 0:
            raise formats.FormatError(f"--n {args.n} is not a multiple of r+1 = {args.r + 1}")
        target = args.n // (args.r + 1)
        ceiling = setfam.packing_ceiling(args.q, args.r)
        if target > ceiling:
            raise formats.FormatError(
                f"target of {target} sets exceeds the packing ceiling {ceiling} for q={args.q}, r={args.r}"
            )

    started = time.perf_counter()
    if args.method == "random":
        family = setfam.random_family(args.q, args.r, t, args.seed, target_m=target)
    elif args.method == "greedy":
        budget = args.budget if args.budget is not None else 4096
        family = setfam.greedy_family(args.q, args.r, t, budget, args.seed, target_m=target)
    else:
        family = derand.derandomized_family(args.q, args.r, t)
        if target is not None:
            # any sub-family of a verifying family verifies
            family = setfam.SetFamily(args.q, args.r, t, family.sets[:target])
    elapsed = time.perf_counter() - started

    formats.write_family(args.out, family)
    print(f"method: {args.method}")
    print(f"q: {args.q}  r: {args.r}  t: {t}  d: {args.d}")
    print(f"seed: {args.seed}")
    print(f"sets: {family.m}")
    print(f"target size: {setfam.formula_target(args.q, args.r, t)}")
    print(f"size upper bound: {setfam.family_size_upper_bound(args.q, args.r, t)}")
    print(f"wall time: {elapsed:.3f}s")
    print(f"wrote: {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    _check_budget(args.budget)
    if args.full and args.d is None:
        raise formats.FormatError("--full needs --d to pick the code distance")
    family = formats.read_family(args.infile)
    d = args.d
    if d is not None:
        _check_d(d, family)
    violations = setfam.verify_union_condition(family)
    if violations:
        first = violations[0]
        idx = ",".join(str(i) for i in first.indices)
        print(f"union condition: FAIL  sets ({idx}) cover {first.union_size} "
              f"<= {family.r * len(first.indices)} values")
        return 1
    print(f"union condition: pass  (m={family.m}, t={family.t})")
    if not args.full:
        return 0

    pcm = lrc.build_parity_check(family, d)
    params = lrc.code_params_from_family(family, d, pcm)
    witness = lrc.min_distance_witness(pcm, budget=args.budget)
    actual = len(witness)
    print(f"code: n={params.n} k={params.k} over GF({params.q})")
    print(f"minimum distance: {actual}")
    if actual < d:
        print(f"distance check: FAIL  dependent columns {list(witness)}")
        return 1
    verdict = lrc.optimality_check(params, actual)
    print(f"optimality: {_verdict_text(verdict, actual)}")
    return 0


def _verdict_text(verdict: lrc.OptimalityVerdict, actual: int) -> str:
    if verdict.kind is lrc.OptimalityKind.SINGLETON:
        return f"OPTIMAL (Singleton-type bound, d = {verdict.bound_value})"
    if verdict.kind is lrc.OptimalityKind.ADJUSTED:
        return f"OPTIMAL (adjusted bound, d = {verdict.bound_value})"
    return f"NOT OPTIMAL (d = {actual}, applicable bound {verdict.bound_value})"


def cmd_build_code(args: argparse.Namespace) -> int:
    family = formats.read_family(args.infile)
    _check_d(args.d, family)
    violations = setfam.verify_union_condition(family)
    if violations:
        idx = ",".join(str(i) for i in violations[0].indices)
        print(f"family fails verification: sets ({idx}) cover too few values")
        return 1
    pcm = lrc.build_parity_check(family, args.d)
    params = lrc.code_params_from_family(family, args.d, pcm)
    formats.write_matrix(args.out, pcm.rows, family.q)
    print(f"parity-check matrix: {len(pcm.rows)} x {pcm.n} over GF({family.q})")
    print(f"code: n={params.n} k={params.k} designed d={args.d} locality r={params.r}")
    print(f"wrote: {args.out}")
    return 0


def cmd_distance(args: argparse.Namespace) -> int:
    _check_budget(args.budget)
    if args.d is not None and args.d < 1:
        raise formats.FormatError(f"--d {args.d} must be at least 1")
    rows, q = formats.read_matrix(args.infile)
    pcm = lrc.ParityCheckMatrix(rows, GF(q))
    if args.d is None:
        witness = lrc.min_distance_witness(pcm, budget=args.budget)
        print(f"minimum distance: {len(witness)}")
        print(f"witness columns: {list(witness)}")
        return 0
    witness = lrc.verify_distance_at_least(pcm, args.d, budget=args.budget)
    if witness is None:
        print(f"distance >= {args.d}: pass")
        return 0
    print(f"distance >= {args.d}: FAIL  dependent columns {list(witness)}")
    return 1


def _read_word_over(path: str, q: int, what: str) -> list[Optional[int]]:
    """A word file's symbols; FormatError naming `what` unless it is over GF(q)."""
    symbols, wq = formats.read_word(path)
    if wq != q:
        raise formats.FormatError(f"{what} alphabet {wq} does not match matrix field {q}")
    return symbols


def cmd_encode(args: argparse.Namespace) -> int:
    rows, q = formats.read_matrix(args.matrix)
    field = GF(q)
    gen = codec.generator_from_parity(field, rows)
    k = len(gen)
    if args.infile is not None:
        symbols = _read_word_over(args.infile, q, "message")
        if any(s is None for s in symbols):
            raise formats.FormatError("message file contains erasures")
        message = [int(s) for s in symbols]  # type: ignore[arg-type]
    else:
        rng = SplitMix64(args.seed)
        message = [rng.below(q) for _ in range(k)]
    word = codec.encode(field, gen, message)
    formats.write_word(args.out, word, q)
    print(f"encoded k={k} message symbols into n={len(word)} codeword symbols over GF({q})")
    print(f"wrote: {args.out}")
    return 0


def cmd_erase(args: argparse.Namespace) -> int:
    symbols, q = formats.read_word(args.infile)
    n = len(symbols)
    if args.positions is not None:
        try:
            positions = sorted({int(p) for p in args.positions.split(",")})
        except ValueError as exc:
            raise formats.FormatError(f"bad --positions list: {exc}") from exc
        if positions and not (0 <= positions[0] and positions[-1] < n):
            raise formats.FormatError(f"erasure positions must lie in [0, {n})")
    else:
        if args.count is None:
            raise formats.FormatError("erase needs --positions or --count")
        if not 0 <= args.count <= n:
            raise formats.FormatError(f"--count must lie in [0, {n}]")
        positions = list(SplitMix64(args.seed).subset(n, args.count))
    out: list[Optional[int]] = list(symbols)
    for p in positions:
        out[p] = None
    formats.write_word(args.out, out, q)
    print(f"erased {len(positions)} of {n} positions: {positions}")
    print(f"wrote: {args.out}")
    return 0


def cmd_repair(args: argparse.Namespace) -> int:
    rows, q = formats.read_matrix(args.matrix)
    symbols = _read_word_over(args.infile, q, "word")
    r = linalg.detect_block_locality(rows)
    if args.r is not None:
        # codec.repair refuses r < 1; a wrong r would split the word into
        # groups that are not the code's blocks
        if r is not None and args.r != r:
            raise formats.FormatError(
                f"--r {args.r} disagrees with the matrix's block rows, which give r = {r}"
            )
        r = args.r
    if r is None:
        raise formats.FormatError("cannot infer locality from the matrix; pass --r")
    field = GF(q)
    try:
        result = codec.repair(field, rows, r, symbols)
    except codec.DecodingError as exc:
        print(f"repair failed: {exc}")
        return 1
    formats.write_word(args.out, result.word, q)
    print(f"repair path: {result.method}")
    print(f"symbols read: {result.symbols_read}")
    print(f"wrote: {args.out}")
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    rows, q = formats.read_matrix(args.matrix)
    symbols = _read_word_over(args.infile, q, "word")
    field = GF(q)
    erased = sum(1 for s in symbols if s is None)
    try:
        word = codec.erasure_decode(field, rows, symbols)
    except codec.UnrecoverableError as exc:
        print(f"unrecoverable: {exc}")
        return 1
    except codec.InconsistentWordError as exc:
        print(f"inconsistent word: {exc}")
        return 1
    formats.write_word(args.out, word, q)
    print(f"restored {erased} erased symbols from {len(word) - erased} known ones")
    print(f"wrote: {args.out}")
    return 0


# built once per process: each main call only parses with it
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrckit",
        description="Locally recoverable codes from sparse hypergraphs: "
        "generation, verification, and erasure repair.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-family", help="generate a verified set family")
    p.add_argument("--q", type=int, required=True, help="alphabet / field size")
    p.add_argument("--r", type=int, required=True, help="locality (sets have r+1 elements)")
    p.add_argument("--d", type=int, required=True, help="designed distance (t = (d-1)//2)")
    p.add_argument("--n", type=int, default=None, help="desired code length; must be a multiple of r+1")
    p.add_argument("--method", choices=["random", "greedy", "derandomized"], default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None, help="candidate draws for the greedy method")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_family)

    p = sub.add_parser("verify", help="check the coverage condition of a family file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--full", action="store_true",
                   help="also build the parity-check matrix, measure distance, judge optimality")
    p.add_argument("--budget", type=int, default=lrc.DEFAULT_SUBSET_BUDGET)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("build-code", help="emit the parity-check matrix of a family")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_code)

    p = sub.add_parser("distance", help="exact minimum distance of a parity-check matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--d", type=int, default=None, help="only check distance >= d")
    p.add_argument("--budget", type=int, default=lrc.DEFAULT_SUBSET_BUDGET)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("encode", help="encode a message into a codeword")
    p.add_argument("--matrix", required=True)
    p.add_argument("--in", dest="infile", default=None, help="message word file (default: random message)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("erase", help="blank positions of a word file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--positions", default=None, help="comma-separated positions")
    p.add_argument("--count", type=int, default=None, help="number of random positions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_erase)

    p = sub.add_parser("repair", help="restore erasures, local groups first")
    p.add_argument("--matrix", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--r", type=int, default=None, help="locality override when not inferable")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("decode", help="restore erasures by solving the full parity system")
    p.add_argument("--matrix", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except setfam.GenerationError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return 3
    except (formats.FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
