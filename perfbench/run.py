"""lrckit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the repository root; lrckit is imported from ./src.  Human-readable
lines go first; the last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}.

--trace 0 sets the workload up, then runs units of work for --seconds,
repeating the set-up in bursts between them (harness.SETUP_SHARE of the
window; setup_s is the fastest of those times), and reports the
end-to-end metrics of spec.END_TO_END, and prints spec.PRINTED and the
workload's named metrics beside them.

--trace 1 runs a fixed number of units of work (the workload's trace_ops,
independent of --seconds, so every count is exact for a seed) once with the
tracer installed and once without, and reports spec.PER_LAYER: per-layer
times and counts, self times and the tracing overhead.  Spans are written
to .perfbench/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "lrckit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lrckit sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import lrckit

    if Path(lrckit.__file__).resolve().parent != (src / "lrckit").resolve():
        sys.exit(f"perfbench: imported lrckit from {lrckit.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness  # imports tracer, which snapshots the original functions first
    import spec
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    wl = workloads.make(args.workload, OUT_DIR)
    print(f"workload: {wl.name}  seed: {args.seed}  trace: {args.trace}")
    print(f"why: {spec.WORKLOADS.get(wl.name) or spec.BY_HAND[wl.name]}")
    for key, text in wl.describe(args.seed).items():
        print(f"input {key}: {text}")

    if args.trace == 0:
        res = harness.untraced(wl, args.seed, seconds)
        totals = res["probe"].totals
        if not totals:
            for text in res["failures"][:5]:
                print(f"failure: {text}", file=sys.stderr)
            print("no unit of work completed", file=sys.stderr)
            return 1
        metrics = harness.end_to_end(res)
        for name, unit, _, _ in spec.PRINTED:
            print(f"{name}: {metrics.pop(name):.6g} {unit} (printed only)")
        setups = res["setups"]
        print(f"setup runs: {len(setups)}, {min(setups):.6g} to {max(setups):.6g} s")
        print(f"op_ms_tail is p{harness.tail(totals)[1]:.1f} of {len(totals)} units of work")
        print(f"rebound names checked untouched: {res['rebound_names_checked']}")
        for metric, v, unit, how in harness.named_metrics(wl.name, res["probe"]):
            print(f"{metric}: {v:.6g} {unit} ({how})")
        units = {n: u for n, u, _, _, _ in spec.END_TO_END}
    else:
        res = harness.traced(wl, args.seed)
        metrics = res["tracer"].metrics(wl.trace_ops, res["traced_s"], res["untraced_s"])
        OUT_DIR.mkdir(exist_ok=True)
        dump = OUT_DIR / f"trace-{wl.name}-{args.seed}.json"
        dump.write_text(json.dumps(res["tracer"].dump()))
        print(f"spans written: {dump.relative_to(ROOT)}")
        overhead = res["traced_s"] / res["untraced_s"] - 1 if res["untraced_s"] else 0.0
        print(f"tracing overhead: {metrics['trace.overhead_s']:.4f} s ({overhead:+.1%} of untraced)")
        units = {n: u for n, u, _, _ in spec.PER_LAYER}

    attempted, failed = res["attempted"], len(res["failures"])
    print(f"failed_ratio: {failed / attempted:.6g} ({failed} of {attempted} units of work)")
    for text in res["failures"][:5]:
        print(f"failure: {text}")
    for name, v in metrics.items():
        print(f"{name}: {v:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
