"""Spans and counts around the public functions of the lrckit modules.

Nothing inside the package records anything; the tracer rebinds, from the
outside, each spanned function on its defining module and on every sibling
module (or the package namespace) that imported the same object by name,
and wraps the scalar methods of `GF` and `SplitMix64` for counts.
`Tracer.installed()` restores every original on exit.

A span is [name, start, end, parent index, op id, excluded time inside].
Scalar methods run millions of times, so they get no span of their own:
their time is summed per layer and excluded from the enclosing span.  The
count hooks that run when a span closes are excluded from the enclosing
span too, and charged to the tracer (`trace.outside_s`).  A layer's self
time is the duration of its spans minus the time their child spans,
scalar calls and hooks cover.

Import this module before any tracing: `ORIGINALS` is the snapshot the
untraced run compares against to prove nothing is left rebound.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from math import comb

import spec

clock = time.perf_counter

SPANNED = {
    "setfam": ("verify_union_condition", "random_family", "greedy_family"),
    "derand": ("derandomized_family",),
    "linalg": ("rref", "rank", "nullspace_basis", "solve", "smallest_dependent_subset"),
    "lrc": (
        "build_parity_check",
        "code_params_from_family",
        "verify_distance_at_least",
        "exact_min_distance",
        "min_distance_witness",
        "optimality_check",
    ),
    "codec": ("generator_from_parity", "encode", "repair", "erasure_decode"),
    "formats": (
        "read_family", "read_matrix", "read_word", "write_family", "write_matrix", "write_word",
    ),
    "cli": ("main",),
}
SCALAR = {
    ("gf", "GF"): ("add", "sub", "neg", "mul", "inv", "pow"),
    ("rng", "SplitMix64"): ("spawn", "subset"),
}


def _modules() -> dict:
    pkg = importlib.import_module("lrckit")
    mods = {name: importlib.import_module(f"lrckit.{name}") for name in spec.LAYERS}
    mods[""] = pkg
    return mods


def _targets() -> list[tuple[object, str, object]]:
    """(owner, attribute, original) for every name tracing rebinds."""
    mods = _modules()
    out = []
    for layer, names in SPANNED.items():
        for name in names:
            fn = getattr(mods[layer], name)
            for owner in mods.values():
                for attr, value in vars(owner).items():
                    if value is fn:
                        out.append((owner, attr, fn))
    for (layer, cls_name), names in SCALAR.items():
        cls = getattr(mods[layer], cls_name)
        out.extend((cls, name, cls.__dict__[name]) for name in names)
    out.append((mods["gf"].GF, "__init__", mods["gf"].GF.__init__))
    return out


ORIGINALS = _targets()


def assert_untraced() -> int:
    """Raise unless every name tracing rebinds holds its original object."""
    for owner, attr, fn in ORIGINALS:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if current is not fn:
            raise RuntimeError(f"{getattr(owner, '__name__', owner)}.{attr} is still rebound")
    return len(ORIGINALS)


def _lex_rank(combo: tuple[int, ...], n: int) -> int:
    """Position of a sorted k-subset of [0, n) in lexicographic order."""
    k = len(combo)
    rank, prev = 0, -1
    for i, c in enumerate(combo):
        for j in range(prev + 1, c):
            rank += comb(n - 1 - j, k - 1 - i)
        prev = c
    return rank


def subsets_examined(n: int, nrows: int, max_size: int, witness) -> int:
    """Subsets smallest_dependent_subset walks through, from its arguments
    and result: every subset of the smaller sizes plus the witness's
    lexicographic position, or every subset up to max_size without one."""
    if witness is None:
        return sum(comb(n, w) for w in range(1, min(max_size, n) + 1))
    w = len(witness)
    before = sum(comb(n, s) for s in range(1, w))
    if w > nrows and tuple(witness) == tuple(range(w)):
        return before  # size w is dependent by counting alone; nothing scanned
    return before + _lex_rank(tuple(witness), n) + 1


def _gf_build_name(args, kwargs) -> str:
    return f"gf.build.{args[1] if len(args) > 1 else kwargs['q']}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id: object = None
        self.active = False
        self.in_scalar = False
        self.counts: dict[str, float] = defaultdict(float)
        self.scalar_s: dict[str, float] = defaultdict(float)
        self.outside_scalar_s = 0.0
        self.hook_s = 0.0  # count hooks run inside an enclosing span

    # ------------------------------------------------------------ wrappers

    def _span(self, fn, name, on_result=None, on_error=None, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name_of(args, kwargs) if name_of else name
            parent = tracer.stack[-1] if tracer.stack else -1
            rec = [label, 0.0, 0.0, parent, tracer.op_id, 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = clock()
                tracer.stack.pop()
                if on_error is not None:
                    tracer._hook(on_error, exc)
                raise
            rec[2] = clock()
            tracer.stack.pop()
            if on_result is not None:
                tracer._hook(on_result, result, args, kwargs)
            return result

        return wrapper

    def _hook(self, fn, *args) -> None:
        """Run a count hook, excluding its time from the enclosing span."""
        t0 = clock()
        try:
            fn(*args)
        finally:
            if self.stack:
                dt = clock() - t0
                self.spans[self.stack[-1]][5] += dt
                self.hook_s += dt

    def _scalar(self, fn, layer, key):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            if not tracer.active:
                return fn(*args)
            counts[key] += 1
            if tracer.in_scalar:
                return fn(*args)  # nested (sub calls add and neg): counted, timed by the caller
            tracer.in_scalar = True
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                tracer.in_scalar = False
                tracer.scalar_s[layer] += dt
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][5] += dt
                else:
                    tracer.outside_scalar_s += dt

        return wrapper

    # --------------------------------------------------------- count hooks

    def _hooks(self) -> dict:
        c = self.counts
        mods = _modules()
        greedy_sig = inspect.signature(mods["setfam"].greedy_family)
        scan_sig = inspect.signature(mods["linalg"].smallest_dependent_subset)

        def bound(sig, args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        def violations(result, args, kwargs):
            c["setfam.verify_union_condition.calls"] += 1
            c["setfam.violations_found"] += len(result)

        def greedy(result, args, kwargs):
            a = bound(greedy_sig, args, kwargs)
            c["greedy.accepted"] += result.m
            c["greedy.budget"] += a["candidate_budget"]

        def survivors(result, args, kwargs):
            c["derand.survivors"] += result.m

        def scan(result, args, kwargs):
            a = bound(scan_sig, args, kwargs)
            cols = a["columns"]
            n = len(cols)
            nrows = len(cols[0]) if n else 0
            c["linalg.subsets_examined"] += subsets_examined(n, nrows, a["max_size"], result) if n else 0

        def verdict(result, args, kwargs):
            c[f"lrc.verdicts.{result.kind.value}"] += 1

        def refused(exc):
            if isinstance(exc, ValueError):
                c["lrc.verdicts.params-refused"] += 1

        def repaired(result, args, kwargs):
            if result.method in ("local", "global"):
                c[f"codec.repair.{result.method}"] += 1
            c["codec.repair.symbols_read"] += result.symbols_read

        def read(result, args, kwargs):
            c["formats.bytes_read"] += os.path.getsize(args[0])

        def written(result, args, kwargs):
            c["formats.bytes_written"] += os.path.getsize(args[0])

        def exited(result, args, kwargs):
            c["cli.main.nonzero_exits"] += result != 0

        return {
            "setfam.verify_union_condition": {"on_result": violations},
            "setfam.greedy_family": {"on_result": greedy},
            "derand.derandomized_family": {"on_result": survivors},
            "linalg.smallest_dependent_subset": {"on_result": scan},
            "lrc.optimality_check": {"on_result": verdict},
            "lrc.code_params_from_family": {"on_error": refused},
            "codec.repair": {"on_result": repaired},
            **{f"formats.read_{k}": {"on_result": read} for k in ("family", "matrix", "word")},
            **{f"formats.write_{k}": {"on_result": written} for k in ("family", "matrix", "word")},
            "cli.main": {
                "on_result": exited,
                "name_of": lambda args, kwargs: "cli.main."
                + list((args[0] if args else kwargs.get("argv")) or ["?"])[0],
            },
        }

    # ------------------------------------------------------ install/restore

    @contextlib.contextmanager
    def installed(self):
        hooks = self._hooks()
        wrapped: dict[int, object] = {}
        for owner, attr, fn in ORIGINALS:
            if id(fn) not in wrapped:
                if attr == "__init__":  # GF(q): one span per field built, named by order
                    wrapped[id(fn)] = self._span(fn, "gf.build", name_of=_gf_build_name)
                elif isinstance(owner, type):
                    layer = owner.__module__.rsplit(".", 1)[1]
                    wrapped[id(fn)] = self._scalar(fn, layer, f"{layer}.{attr}")
                else:
                    layer = fn.__module__.rsplit(".", 1)[1]
                    name = f"{layer}.{fn.__name__}"
                    wrapped[id(fn)] = self._span(fn, name, **hooks.get(name, {}))
            setattr(owner, attr, wrapped[id(fn)])
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            for owner, attr, fn in ORIGINALS:
                setattr(owner, attr, fn)
            assert_untraced()

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -------------------------------------------------------------- report

    def metrics(self, ops: int, traced_s: float, untraced_s: float) -> dict[str, float]:
        busy: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        self_s: dict[str, float] = defaultdict(float)
        top = 0.0
        for i, rec in enumerate(self.spans):
            dur = rec[2] - rec[1]
            busy[rec[0]] += dur
            self_s[rec[0].split(".")[0]] += dur - child[i] - rec[5]
            if rec[3] < 0:
                top += dur
        for layer, s in self.scalar_s.items():
            self_s[layer] += s
        c = self.counts
        scan_s = busy["linalg.smallest_dependent_subset"]
        out = {
            "gf.build_s": sum(v for k, v in busy.items() if k.startswith("gf.build.")),
            "gf.builds": float(sum(1 for rec in self.spans if rec[0].startswith("gf.build."))),
            "gf.scalar_s": self.scalar_s["gf"],
            **{f"gf.scalar_calls.{op}": c[f"gf.{op}"] for op in SCALAR[("gf", "GF")]},
            "rng.spawn_calls": c["rng.spawn"],
            "rng.subset_calls": c["rng.subset"],
            "setfam.greedy_family.accept_ratio": (
                c["greedy.accepted"] / c["greedy.budget"] if c["greedy.budget"] else 0.0
            ),
            "linalg.subsets_per_s": c["linalg.subsets_examined"] / scan_s if scan_s else 0.0,
            "formats.read.busy_s": sum(v for k, v in busy.items() if k.startswith("formats.read_")),
            "formats.write.busy_s": sum(v for k, v in busy.items() if k.startswith("formats.write_")),
            "trace.ops": float(ops),
            "trace.spans": float(len(self.spans)),
            "trace.outside_s": traced_s - top - self.outside_scalar_s + self.hook_s,
            "trace.traced_s": traced_s,
            "trace.untraced_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s,
        }
        for name, _, _, _ in spec.PER_LAYER:
            if name in out:
                continue
            if name.endswith(".busy_s"):
                out[name] = busy[name[: -len(".busy_s")]]
            elif name.endswith(".self_s"):
                out[name] = self_s[name[: -len(".self_s")]]
            else:
                out[name] = c[name]
        return {name: out[name] for name, _, _, _ in spec.PER_LAYER}

    def dump(self) -> dict:
        return {
            "fields": "name, start_s, end_s, parent, op, excluded_s",
            "spans": self.spans,
            "scalar_s": dict(self.scalar_s),
        }
