"""The four workloads: inputs from a seed, calls into lrckit, output checks.

Each workload has `setup(seed)` (work before the timed loop), `ops(seed,
state)` (an endless, seed-determined stream of units of work), `run(state,
op, probe)` (one unit of work: program calls inside `probe.timing` blocks,
checks outside them under `probe.checking()`), and `teardown(state)`.
Every workload is a closed loop with one caller in one thread.

Inputs come from `random.Random` seeded with a string built from the
workload seed, never from the package's own generator, so the program's
rng layer counts only the program's draws.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import tempfile
import time
from collections import defaultdict
from itertools import count
from math import gcd
from pathlib import Path

import numpy as np

from lrckit import cli, codec, derand, lrc, setfam
from lrckit.gf import GF, prime_power
from lrckit.setfam import SetFamily

from checks import coverage_ok, dependent, rank, require, syndrome_is_zero

D7 = 7
clock = time.perf_counter


class Probe:
    """Times the program calls of one unit of work at a time.

    Each `timing(name)` block is one sample of `name` and adds to the unit's
    total; `commit()` keeps the unit's samples and total, `discard()` drops
    them (a failed unit of work has no latency).
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.totals: list[float] = []
        self.pending: list[tuple[str, float]] = []

    @contextlib.contextmanager
    def timing(self, name: str):
        t0 = clock()
        try:
            yield
        finally:
            self.pending.append((name, clock() - t0))

    def checking(self):
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def commit(self) -> None:
        for name, s in self.pending:
            self.samples[name].append(s)
        self.totals.append(sum(s for _, s in self.pending))
        self.pending = []

    def discard(self) -> None:
        self.pending = []


def _rng(workload: str, part: str, seed: int) -> random.Random:
    return random.Random(f"{workload}-{part}-{seed}")


def parity_rows(field: GF, sets, d: int) -> list[list[int]]:
    """Block indicators plus powers 1..d-2, built here for the rank check."""
    width = len(sets[0])
    n = len(sets) * width
    rows = [[1 if i * width <= j < (i + 1) * width else 0 for j in range(n)] for i in range(len(sets))]
    flat = [a for s in sets for a in s]
    rows += [[field.pow(a, e) for a in flat] for e in range(1, d - 1)]
    return rows


class Workload:
    """Interface of a workload; see the module docstring."""

    name: str
    trace_ops: int  # units of work in a traced run

    def teardown(self, state: dict) -> None:
        pass


class Construct(Workload):
    """Seed to three verified, rank-gated d = 7 codes per unit of work."""

    name = "construct"
    trace_ops = 2
    RANDOM = (4999, 5, 3)
    GREEDY = (101, 5, 3, 4096)

    @staticmethod
    def envelope() -> list[tuple[int, int]]:
        # derandomized_family's supported envelope at t = 3 (q <= 512, 2m <= 12),
        # with r >= d - 2 = 5 so the code exists and q >= 11 so that k >= 1
        return [
            (q, r)
            for q in range(11, 513)
            if prime_power(q) is not None
            for r in (5, 6, 7)
            if 2 * setfam.target_family_size(q, r, 3) <= 12
        ]

    def describe(self, seed: int) -> dict:
        return {
            "random": "random_family(4999, 5, 3, s) with s = 32 fresh bits per unit, d = 7",
            "greedy": "greedy_family(101, 5, 3, 4096, s) with s = 32 fresh bits per unit, d = 7",
            "derandomized": "derandomized_family(q, r, 3), (q, r) taken in seeded-shuffle order"
            f" from the {len(self.envelope())} envelope cases (prime power 11 <= q <= 512,"
            " r in 5..7, 2m <= 12); no case repeats, so its memo caches see new keys",
        }

    def setup(self, seed: int) -> dict:
        cases = self.envelope()
        _rng(self.name, "setup", seed).shuffle(cases)
        target = setfam.target_family_size(*self.RANDOM)
        return {"cases": cases, "target": target}

    def ops(self, seed: int, state: dict):
        rng = _rng(self.name, "ops", seed)
        for i in count():
            yield rng.getrandbits(32), rng.getrandbits(32), state["cases"][i % len(state["cases"])]

    def run(self, state: dict, op, probe) -> None:
        seed_r, seed_g, (q, r) = op
        with probe.timing("random_code"):
            fam = setfam.random_family(*self.RANDOM, seed_r)
            params = lrc.code_params_from_family(fam, D7)
        self._check(probe, fam, params, state["target"])
        with probe.timing("greedy_code"):
            fam = setfam.greedy_family(*self.GREEDY, seed_g)
            params = lrc.code_params_from_family(fam, D7)
        self._check(probe, fam, params, 2)
        with probe.timing("derand_code"):
            fam = derand.derandomized_family(q, r, 3)
            params = lrc.code_params_from_family(fam, D7)
        self._check(probe, fam, params, 1)

    @staticmethod
    def _check(probe, fam: SetFamily, params, min_m: int) -> None:
        with probe.checking():
            where = f"q={fam.q} r={fam.r} m={fam.m}"
            require(fam.m >= min_m, f"{where}: fewer than {min_m} sets")
            require(coverage_ok(fam.sets, fam.r, 3), f"{where}: family fails coverage")
            require(
                (params.n, params.k) == (fam.n, fam.n - fam.m - (D7 - 2)),
                f"{where}: wrong [n, k] = [{params.n}, {params.k}]",
            )
            field = GF(fam.q)
            got = rank(field, parity_rows(field, fam.sets, D7))
            require(got == fam.m + D7 - 2, f"{where}: rank {got} != m + d - 2")


class Certify(Workload):
    """One corpus instance fully certified per unit of work."""

    name = "certify"
    trace_ops = 60
    QS = (11, 13, 16, 17, 19, 23, 25, 27, 29, 31)
    RS = (3, 4, 5)
    DS = (5, 6, 7)

    def describe(self, seed: int) -> dict:
        return {
            "grid": f"q in {list(self.QS)}, r in {list(self.RS)}, d in {list(self.DS)}",
            "per cell": "3 raw random families (m = 2..m_hi from the seed), one greedy family"
            " (budget 512, seed from the seed, target min(m_hi, 4)), that family with set 1"
            " sharing two elements with set 0, that family with set 0 duplicated, and for"
            " t = 3 a chained triple relabelled by a seeded permutation of [q];"
            " m_hi = 4 at r = 5, d = 6, 3 at r = 5, d = 7, else 5",
            "order": "cells along a fixed stride through the grid, the same for every seed;"
            " a cell's instances run back to back",
        }

    def build_corpus(self, seed: int) -> list[tuple[SetFamily, int]]:
        rng = _rng(self.name, "corpus", seed)
        cells = [(q, r, d) for q in self.QS for r in self.RS for d in self.DS]
        per_cell = [self._cell(rng, *cell) for cell in cells]
        # visit cells along a fixed stride, the same for every seed, so the
        # part of the corpus a time window reaches samples q, r and d evenly
        n = len(cells)
        stride = next(s for s in range(int(n * 0.618), n) if gcd(s, n) == 1)
        return [inst for i in range(n) for inst in per_cell[i * stride % n]]

    @staticmethod
    def _cell(rng: random.Random, q: int, r: int, d: int) -> list[tuple[SetFamily, int]]:
        t = (d - 1) // 2
        m_hi = Certify.max_sets(r, d)
        out = []
        for _ in range(3):
            m = 2 + rng.randrange(m_hi - 1)
            sets = tuple(tuple(sorted(rng.sample(range(q), r + 1))) for _ in range(m))
            out.append((SetFamily(q, r, t, sets), d))
        fam = setfam.greedy_family(q, r, t, 512, seed=rng.getrandbits(16), target_m=min(m_hi, 4))
        if fam.m < 2:
            return out
        out.append((fam, d))
        s0 = list(fam.sets[0])
        others = [x for x in range(q) if x not in s0[:2]]
        bad = tuple(sorted(s0[:2] + others[: r - 1]))
        out.append((SetFamily(q, r, t, (fam.sets[0], bad) + fam.sets[2:]), d))
        out.append((SetFamily(q, r, t, (fam.sets[0],) + fam.sets), d))
        if t >= 3 and 3 * r <= q:
            label = rng.sample(range(q), q)
            a = list(range(r + 1))
            b = [a[0]] + list(range(r + 1, 2 * r + 1))
            c = [a[1], b[1]] + list(range(2 * r + 1, 3 * r))
            sets = tuple(tuple(sorted(label[x] for x in s)) for s in (a, b, c))
            out.append((SetFamily(q, r, t, sets), d))
        return out

    @staticmethod
    def max_sets(r: int, d: int) -> int:
        """Largest m in a cell.  A verifying family's exact-distance scan may
        cover every subset of up to m + d - 1 of its m(r+1) columns, and lrc
        refuses a scan above DEFAULT_SUBSET_BUDGET (30M subsets) up front:
        at r = 5, m = 5 that is 53M subsets for d = 6.  At r = 5, d = 7 the
        cell stops at m = 3 to keep one instance's scan short."""
        return {(5, 6): 4, (5, 7): 3}.get((r, d), 5)

    def setup(self, seed: int) -> dict:
        return {"corpus": self.build_corpus(seed)}

    def ops(self, seed: int, state: dict):
        corpus = state["corpus"]
        for i in count():
            yield corpus[i % len(corpus)]

    def run(self, state: dict, op, probe) -> None:
        fam, d = op
        witness = params = refusal = None
        with probe.timing("instance"):
            union_ok = not setfam.verify_union_condition(fam)
            pcm = lrc.build_parity_check(fam, d)
            short = lrc.verify_distance_at_least(pcm, d)
            if union_ok:
                witness = lrc.min_distance_witness(pcm)
                try:
                    params = lrc.code_params_from_family(fam, d, pcm)
                except ValueError as exc:
                    refusal = exc  # a verdict only where no code can exist; checked below
                if params is not None:
                    lrc.optimality_check(params, len(witness))
        with probe.checking():
            where = f"q={fam.q} r={fam.r} d={d} m={fam.m}"
            require(union_ok == (short is None), f"{where}: union and distance verdicts differ")
            require(union_ok == coverage_ok(fam.sets, fam.r, fam.t), f"{where}: wrong union verdict")
            require(short is None or len(short) <= d - 1, f"{where}: witness longer than d-1")
            require(short is None or dependent(pcm.field, pcm.rows, short),
                    f"{where}: short witness {short} is independent")
            require(witness is None or len(witness) >= d, f"{where}: exact distance below d")
            require(witness is None or dependent(pcm.field, pcm.rows, witness),
                    f"{where}: distance witness {witness} is independent")
            if union_ok:
                expected = self.no_code_reasons(fam, d)
                if not expected:
                    require(refusal is None, f"{where}: parameters refused: {refusal}")
                else:
                    require(refusal is not None and any(e in str(refusal) for e in expected),
                            f"{where}: expected a refusal in {expected}, got {refusal!r}")

    @staticmethod
    def no_code_reasons(fam: SetFamily, d: int) -> tuple[str, ...]:
        """The refusals code_params_from_family may give from the inputs
        alone; empty where a code exists.  Below r = d - 2 no code exists,
        and the rank gate, which runs first, may refuse before the locality
        check does (one family in about 2500 such across 40 seeds)."""
        if fam.m * fam.r - (d - 2) < 1:  # k = n - m - (d-2)
            return ("need k >= 1",)
        if fam.r < d - 2:
            return ("locality r must be at least d-2", "parity-check rank")
        return ()


class Codec(Workload):
    """Encode, one-erasure repair and six-erasure decode on each of the
    GF(4999) and the GF(2^16) code per unit of work."""

    name = "codec"
    trace_ops = 2
    CODES = ((4999, None), (65536, 91))  # (q, target_m) for random_family(q, 5, 3, s)

    def describe(self, seed: int) -> dict:
        return {
            "codes": "random_family(4999, 5, 3, s1) and random_family(65536, 5, 3, s2,"
            " target_m=91), s1 and s2 32 bits from the seed; both n = 546, k = 450, d = 7",
            "per unit": "a uniform message, one uniform erased position (local repair) and"
            " six distinct uniform erased positions (global decode), all from the seed",
        }

    def setup(self, seed: int) -> dict:
        rng = _rng(self.name, "setup", seed)
        codes = []
        for q, target in self.CODES:
            field = GF(q)
            fam = setfam.random_family(q, 5, 3, rng.getrandbits(32), target_m=target)
            pcm = lrc.build_parity_check(fam, D7, field)
            gen = codec.generator_from_parity(field, pcm.rows)
            # a column equal to the i-th unit vector carries message symbol i
            g = np.array(gen, dtype=np.int64)
            info: dict[int, int] = {}
            for j in np.nonzero(((g != 0).sum(axis=0) == 1) & (g.max(axis=0) == 1))[0]:
                info.setdefault(int(np.argmax(g[:, j])), int(j))
            require(len(gen) == 450 and len(info) == len(gen),
                    f"GF({q}): generator is not systematic with k = 450")
            info_cols = [info[i] for i in range(len(gen))]
            codes.append({"field": field, "h": pcm.rows, "g": gen, "n": pcm.n, "info": info_cols})
        return {"codes": codes}

    def ops(self, seed: int, state: dict):
        rng = _rng(self.name, "ops", seed)
        while True:
            yield [
                (code, [rng.randrange(code["field"].q) for _ in code["g"]],
                 rng.randrange(code["n"]), rng.sample(range(code["n"]), D7 - 1))
                for code in state["codes"]
            ]

    def run(self, state: dict, op, probe) -> None:
        for code, message, lost, six in op:
            self._cycle(code, message, lost, six, probe)

    @staticmethod
    def _cycle(code: dict, message: list[int], lost: int, six: list[int], probe) -> None:
        field, h = code["field"], code["h"]
        with probe.timing("encode"):
            word = codec.encode(field, code["g"], message)
        with probe.checking():
            require(syndrome_is_zero(field, h, word), f"GF({field.q}): encoded word has nonzero syndrome")
            require([word[j] for j in code["info"]] == message, f"GF({field.q}): word does not carry the message")
        received = list(word)
        received[lost] = None
        with probe.timing("repair_local"):
            res = codec.repair(field, h, 5, received)
        with probe.checking():
            require(res.method == "local" and res.symbols_read == 5, f"GF({field.q}): repair took {res.method}")
            require(list(res.word) == word, f"GF({field.q}): repair changed the word")
        received = list(word)
        for j in six:
            received[j] = None
        with probe.timing("decode"):
            decoded = codec.erasure_decode(field, h, received)
        with probe.checking():
            require(decoded == word, f"GF({field.q}): decode did not restore the word")


class Cli(Workload):
    """One pass of the command pipeline through cli.main per unit of work.

    Passes come in pairs with the same seeds; the second pass of a pair must
    write byte-identical files."""

    name = "cli"
    trace_ops = 4
    ARTIFACTS = ("fam-greedy", "fam-derand", "H", "w", "erase1", "erase4", "repair1", "decode4")

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def describe(self, seed: int) -> dict:
        return {
            "commands": "gen-family greedy (q=13 r=4 d=5), gen-family derandomized (q=64 r=2"
            " d=7), build-code, verify --full --d 5, distance --d 5, encode, erase one"
            " position, repair, erase four, decode",
            "seeds": "greedy seed 16 bits, encode seed 16 bits, erased position in [0, n) and"
            " erase seed 16 bits, fresh per pair of passes from the seed",
        }

    def setup(self, seed: int) -> dict:
        self.scratch.mkdir(exist_ok=True)
        state = {"dir": Path(tempfile.mkdtemp(prefix="cli-", dir=self.scratch)), "first": None}
        # one warm-up pass: the derandomized method's lazy import and memo tables
        self._pass(state, ("warm", 0, (21, 12, 7, 3)), Probe())
        return state

    def ops(self, seed: int, state: dict):
        rng = _rng(self.name, "ops", seed)
        for pair in count():
            seeds = (rng.getrandbits(16), rng.getrandbits(16), rng.randrange(15), rng.getrandbits(16))
            yield pair, 0, seeds
            yield pair, 1, seeds

    def run(self, state: dict, op, probe) -> None:
        self._pass(state, op, probe)

    def _pass(self, state: dict, op, probe) -> None:
        pair, k, (greedy_seed, enc_seed, pos, erase_seed) = op
        d = state["dir"] / f"{pair}-{k}"
        d.mkdir()
        p = {a: str(d / f"{a}.txt") for a in self.ARTIFACTS}
        commands = [
            ["gen-family", "--q", "13", "--r", "4", "--d", "5", "--method", "greedy",
             "--seed", str(greedy_seed), "--out", p["fam-greedy"]],
            ["gen-family", "--q", "64", "--r", "2", "--d", "7", "--method", "derandomized",
             "--out", p["fam-derand"]],
            ["build-code", "--in", p["fam-greedy"], "--d", "5", "--out", p["H"]],
            ["verify", "--in", p["fam-greedy"], "--full", "--d", "5"],
            ["distance", "--in", p["H"], "--d", "5"],
            ["encode", "--matrix", p["H"], "--seed", str(enc_seed), "--out", p["w"]],
            ["erase", "--in", p["w"], "--positions", str(pos), "--out", p["erase1"]],
            ["repair", "--matrix", p["H"], "--in", p["erase1"], "--out", p["repair1"]],
            ["erase", "--in", p["w"], "--count", "4", "--seed", str(erase_seed), "--out", p["erase4"]],
            ["decode", "--matrix", p["H"], "--in", p["erase4"], "--out", p["decode4"]],
        ]
        outputs = []
        try:
            for argv in commands:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    with probe.timing("pipeline"):
                        code = cli.main(argv)
                outputs.append((argv[0], code, out.getvalue()))
            with probe.checking():
                for name, code, text in outputs:
                    require(code == 0, f"{name} exited {code}: {text.strip()[-200:]}")
                text = {name: t for name, _, t in outputs}
                require("OPTIMAL" in text["verify"] and "NOT OPTIMAL" not in text["verify"],
                        f"verify --full: {text['verify'].strip()}")
                require("distance >= 5: pass" in text["distance"], f"distance: {text['distance'].strip()}")
                files = {a: Path(p[a]).read_bytes() for a in self.ARTIFACTS}
                require(files["repair1"] == files["w"], "repair did not restore the word")
                require(files["decode4"] == files["w"], "decode did not restore the word")
                if k == 0:
                    state["first"] = (pair, files)
                elif state["first"] and state["first"][0] == pair:
                    require(files == state["first"][1], "second pass is not byte-identical")
        finally:
            shutil.rmtree(d)

    def teardown(self, state: dict) -> None:
        shutil.rmtree(state["dir"], ignore_errors=True)


def make(name: str, scratch: Path):
    if name == "cli":
        return Cli(scratch)
    return {"construct": Construct, "certify": Certify, "codec": Codec}[name]()


NAMES = ("construct", "certify", "codec", "cli")
