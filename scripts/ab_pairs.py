#!/usr/bin/env python3
"""Alternating benchmark runs of two git refs, each from a clean copy.

    python3 scripts/ab_pairs.py --parent HEAD~1 --change HEAD --workload certify \\
        --seeds 11-20 --seconds 30

Each ref is exported with `git archive` into a temporary directory, so
neither side loads a `__pycache__` or any other file the working tree holds.
Each seed is one pair: both copies run `perfbench/run.py --workload W --seed
N --seconds S --trace 0` with bytecode writing off, one after the other, and
the side that runs first alternates from pair to pair.  Nothing under
`perfbench/` is changed; the end-to-end metrics, their directions and bounds
are read from the parent's `BENCHMARK.json`.

The summary gives, per end-to-end metric, each side's median, the parent's
quartiles, the pairs the change won (ties count for neither side), and
whether the change's median is worse than the parent's by more than the
metric's bound.  A gain is met when the change wins nine tenths of all
pairs run, a pair with a missing side counting as not won, and its median
beats the parent's by more than the parent's quartile spread.  Where that
spread is wider than the bound, the bound is unresolved unless every change
run beats every parent run.  Each side's median units attempted per run
follows, since `peak_rss_mb` grows with the units a run completes; then
failed units and runs that gave no result are listed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'11-16' -> [11, ..., 16]; '7' -> [7]."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def result_of(stdout: str):
    """The result object on the last line of a run's output, or None."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def summarize(pairs: list[dict], metrics: list[dict]) -> list[str]:
    """Summary lines for `pairs`, each {"seed", "parent", "change"} with
    the sides' result objects (None for a run that gave none), over the
    end-to-end `metrics` ({"name", "better", "bound"} as in BENCHMARK.json)."""
    out = [f"pairs: {len(pairs)}"]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        both = [(p["parent"]["metrics"][name]["value"], p["change"]["metrics"][name]["value"])
                for p in pairs if p["parent"] and p["change"]]
        if not both:
            out.append(f"{name}: no pair has both results")
            continue
        old, new = [a for a, _ in both], [b for _, b in both]
        med_old, med_new = statistics.median(old), statistics.median(new)
        q1, _, q3 = statistics.quantiles(old, n=4, method="inclusive") if len(old) > 1 else (old[0],) * 3
        wins = sum((b < a) if lower else (b > a) for a, b in both)
        worse = (med_new - med_old) if lower else (med_old - med_new)
        # a pair with a missing side is run and not won
        gain = wins * 10 >= 9 * len(pairs) and -worse > q3 - q1
        bound = m["bound"] * abs(med_old)
        if q3 - q1 > bound and not (max(new) < min(old) if lower else min(new) > max(old)):
            verdict = "unresolved: the parent's quartile spread exceeds"
        else:
            verdict = "WORSE than" if worse > bound else "within"
        won = f"{wins}/{len(both)}" + (f" ({wins}/{len(pairs)} of all pairs)" if len(both) < len(pairs) else "")
        out.append(
            f"{name}: parent {med_old:.6g} (quartiles {q1:.6g}-{q3:.6g}), change {med_new:.6g}"
            f" ({(med_new / med_old - 1) if med_old else 0.0:+.1%}); change won {won}"
            f"; gain {'met' if gain else 'not met'}; {verdict} the {m['bound']:.0%} bound"
        )
    per_run = {side: [p[side]["attempted"] for p in pairs if p[side]] for side in SIDES}
    out.append("units attempted per run (median): " + ", ".join(
        f"{side} {statistics.median(n):.6g}" if n else f"{side} no result" for side, n in per_run.items()))
    for side in SIDES:
        runs = [p[side] for p in pairs]
        missing = [p["seed"] for p in pairs if p[side] is None]
        failed = sum(r["failed"] for r in runs if r)
        attempted = sum(r["attempted"] for r in runs if r)
        out.append(f"{side}: {failed} of {attempted} units failed"
                   + (f"; no result for seeds {missing}" if missing else ""))
    return out


def export(ref: str, dest: Path) -> Path:
    """Extract the tree of `ref` into `dest` with git archive."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", ref], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return dest


def run_side(copy: Path, workload: str, seed: int, seconds: float):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return result_of(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git ref of the baseline")
    ap.add_argument("--change", required=True, help="git ref of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="inclusive range A-B, one pair per seed")
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        copies = {side: export(getattr(args, side), Path(tmp) / side) for side in SIDES}
        metrics = json.loads((copies["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
        pairs = []
        for i, seed in enumerate(seeds):
            pair = {"seed": seed}
            for side in SIDES[::-1] if i % 2 else SIDES:
                pair[side] = run_side(copies[side], args.workload, seed, args.seconds)
                print(f"seed {seed} {side}: {json.dumps(pair[side])}", flush=True)
            pairs.append(pair)
    print(f"workload: {args.workload}  parent: {args.parent}  change: {args.change}")
    print("\n".join(summarize(pairs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
