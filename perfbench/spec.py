"""Names, units and meaning of every metric the benchmark reports.

`BENCHMARK.json` at the repository root is generated from this file:

    python3 perfbench/spec.py > BENCHMARK.json

and `perfbench/test_perfbench.py` checks that the two agree.  The run-time
code takes its metric lists from here, so a metric cannot be printed under
one name and declared under another.
"""

from __future__ import annotations

import json

RUN_SECONDS = 30

# name -> one-line reason the workload exists; these are the workloads the
# benchmark's manifest lists
WORKLOADS = {
    "construct": "random_family(4999,5,3), greedy_family(101,5,3) and derandomized_family, each"
    " to a rank-gated d=7 code: setfam walk and linalg.rank, no distance scan",
    "certify": "seeded criterion-1 style corpus over q in 11..31 incl. GF(16/25/27): union verdict"
    " plus the verify --full distance path, so linalg.smallest_dependent_subset dominates",
    "cli": "criterion-9 command list plus verify --full and distance on the q=13 code, in-process"
    " through cli.main on temporary files; the only workload using formats and cli",
}

# Run by hand only: its timings swing between two host speed states about
# 1.8x apart for tens of seconds at a time, so over ten 25 s runs even its
# tail spread by 0.26 of its median, wider than any allowed bound.
BY_HAND = {
    "codec": "two n=546 d=7 codes over GF(4999) and GF(2^16): encode (write), one-erasure local"
    " repair (read) and 6-erasure global decode per cycle; scalar gf, solve and codec",
}

# (name, unit, better, bound, meaning): the metrics of the result object.
# On the 2-vCPU host this was built on, interpreted code runs in two speed
# states about 1.6-1.8x apart that last tens of seconds (README.md,
# "Noise").  A run's median lands in whichever state held most of the run,
# so it flips between runs; the tail sits in the slow state that nearly
# every run visits, and stayed within 0.17 of its median over ten runs on
# every listed workload.  So the tail is the bounded latency, and the
# median and throughput are printed beside it (PRINTED).  Timing bounds
# sit at the 0.25 ceiling because host noise alone moves them by 10-20%.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "set-up time: one set-up before the timed loop, repeated in bursts between units of work"
     " (a fifth of the window, at least 10 in all); the fastest of those times."
     " What set-up builds:"
     " fields, generator matrices, corpus, temporary files, the cli warm-up pass"),
    ("op_ms_tail", "ms", "lower", 0.25,
     "highest percentile of the unit-of-work time with at least ten samples beyond it"
     " (the maximum below 21 samples, where that percentile would not exceed the median)"),
    ("peak_rss_mb", "MiB", "lower", 0.1, "peak resident memory of the workload's process"),
]

# (name, unit, better, meaning): printed by untraced runs, not bounded.
PRINTED = [
    ("op_ms", "ms", "lower",
     "median program time of one unit of work (construct: one seed to three codes; certify:"
     " one instance; codec: encode, repair and decode on both codes; cli: one pipeline pass)"),
    ("ops_per_s", "1/s", "higher",
     "units of work per second of program time; the benchmark's own checks are excluded"),
]

# Workload-specific metrics: (name, unit, timed block or "op" for the whole
# unit of work, statistic, meaning).
# Untraced runs of the workload print them on their own lines, beside the
# metrics above, which summarise the same unit of work for every workload.
NAMED_END_TO_END = {
    "construct": [
        ("construct.random_code_s", "s", "random_code", "median",
         "seed to verified, rank-gated code via random_family"),
        ("construct.greedy_code_s", "s", "greedy_code", "median", "the same via greedy_family"),
        ("construct.derand_code_s", "s", "derand_code", "median",
         "the same via derandomized_family"),
    ],
    "certify": [
        ("certify.instances_per_s", "1/s", "instance", "rate",
         "corpus instances fully certified per second"),
        ("certify.instance_ms", "ms", "instance", "median", "latency of one instance"),
        ("certify.instance_ms_tail", "ms", "instance", "tail", "tail latency of one instance"),
    ],
    "codec": [
        ("codec.encode_ms", "ms", "encode", "median", "one encode"),
        ("codec.repair_local_us", "us", "repair_local", "median",
         "one single-erasure repair (local path)"),
        ("codec.decode_ms", "ms", "decode", "median", "one 6-erasure erasure_decode"),
        ("codec.decode_ms_tail", "ms", "decode", "tail", "tail of the above"),
    ],
    "cli": [
        ("cli.pipeline_s", "s", "op", "median", "one full in-process command pipeline"),
    ],
}

# Per-layer metrics of the traced run: (name, unit, better, moves), where
# `moves` names the end-to-end metric and workload the layer metric should
# move ("codec" is the by-hand workload; cli runs the same codec calls at
# n = 15).  "s" metrics are totals over the traced work; counts are exact.
_CLI_SUBCOMMANDS = (
    "gen-family", "verify", "build-code", "distance", "encode", "erase", "repair", "decode",
)

PER_LAYER = [
    ("gf.build_s", "s", "lower", "codec setup_s (GF(2^16) table build)"),
    ("gf.builds", "count", "lower", "codec setup_s; negligible on certify"),
    ("gf.scalar_s", "s", "lower", "codec op_ms, construct op_ms through linalg.rank"),
    ("gf.scalar_calls.add", "count", "lower", "codec op_ms (encode is k*n mul+add)"),
    ("gf.scalar_calls.sub", "count", "lower", "construct op_ms through linalg.rank"),
    ("gf.scalar_calls.neg", "count", "lower", "codec op_ms (repair, decode)"),
    ("gf.scalar_calls.mul", "count", "lower", "codec op_ms (encode is k*n mul+add)"),
    ("gf.scalar_calls.inv", "count", "lower", "construct op_ms through linalg.rank"),
    ("gf.scalar_calls.pow", "count", "lower", "construct op_ms through build_parity_check"),
    ("gf.self_s", "s", "lower", "codec op_ms, codec setup_s"),
    ("rng.spawn_calls", "count", "lower", "construct op_ms: one per random_family attempt"),
    ("rng.subset_calls", "count", "lower", "construct op_ms"),
    ("rng.self_s", "s", "lower", "construct op_ms"),
    ("setfam.random_family.busy_s", "s", "lower", "construct op_ms (random_code_s)"),
    ("setfam.verify_union_condition.busy_s", "s", "lower", "construct op_ms; certify: no change"),
    ("setfam.verify_union_condition.calls", "count", "lower", "construct op_ms"),
    ("setfam.violations_found", "count", "lower", "construct op_ms"),
    ("setfam.greedy_family.busy_s", "s", "lower", "construct op_ms (greedy_code_s)"),
    ("setfam.greedy_family.accept_ratio", "ratio", "higher", "construct op_ms (greedy_code_s)"),
    ("setfam.self_s", "s", "lower", "construct op_ms"),
    ("derand.derandomized_family.busy_s", "s", "lower", "construct op_ms (derand_code_s)"),
    ("derand.survivors", "count", "higher", "construct op_ms (derand_code_s)"),
    ("derand.self_s", "s", "lower", "construct op_ms (derand_code_s)"),
    ("linalg.rref.busy_s", "s", "lower", "construct op_ms, codec setup_s"),
    ("linalg.rank.busy_s", "s", "lower", "construct op_ms"),
    ("linalg.nullspace_basis.busy_s", "s", "lower", "codec setup_s"),
    ("linalg.solve.busy_s", "s", "lower", "codec op_ms (decode_ms)"),
    ("linalg.smallest_dependent_subset.busy_s", "s", "lower",
     "certify op_ms, op_ms_tail, ops_per_s; construct: no change"),
    ("linalg.subsets_examined", "count", "lower", "certify ops_per_s (computed, not counted)"),
    ("linalg.subsets_per_s", "1/s", "higher", "certify ops_per_s"),
    ("linalg.self_s", "s", "lower", "certify op_ms, construct op_ms"),
    ("lrc.build_parity_check.busy_s", "s", "lower", "construct op_ms"),
    ("lrc.code_params_from_family.busy_s", "s", "lower", "construct op_ms"),
    ("lrc.verify_distance_at_least.busy_s", "s", "lower", "certify op_ms, ops_per_s"),
    ("lrc.min_distance_witness.busy_s", "s", "lower", "certify op_ms_tail, ops_per_s"),
    ("lrc.verdicts.singleton", "count", "higher", "stays exact on certify"),
    ("lrc.verdicts.adjusted", "count", "higher", "stays exact on certify"),
    ("lrc.verdicts.not-optimal", "count", "lower", "stays exact on certify"),
    ("lrc.verdicts.params-refused", "count", "lower", "stays exact on certify"),
    ("lrc.self_s", "s", "lower", "construct op_ms, certify op_ms"),
    ("codec.generator_from_parity.busy_s", "s", "lower", "codec setup_s"),
    ("codec.encode.busy_s", "s", "lower", "codec op_ms (encode_ms)"),
    ("codec.repair.busy_s", "s", "lower", "codec op_ms (repair_local_us)"),
    ("codec.repair.local", "count", "higher", "codec op_ms (repair_local_us)"),
    ("codec.repair.global", "count", "lower", "codec op_ms (repair_local_us)"),
    ("codec.repair.symbols_read", "count", "lower", "codec op_ms (repair_local_us)"),
    ("codec.erasure_decode.busy_s", "s", "lower", "codec op_ms (decode_ms)"),
    ("codec.self_s", "s", "lower", "codec op_ms"),
    ("formats.read.busy_s", "s", "lower", "cli op_ms (pipeline_s)"),
    ("formats.write.busy_s", "s", "lower", "cli op_ms (pipeline_s)"),
    ("formats.bytes_read", "count", "lower", "cli op_ms (pipeline_s)"),
    ("formats.bytes_written", "count", "lower", "cli op_ms (pipeline_s)"),
    ("formats.self_s", "s", "lower", "cli op_ms (pipeline_s)"),
    *[(f"cli.main.{sub}.busy_s", "s", "lower", "cli op_ms (pipeline_s)") for sub in _CLI_SUBCOMMANDS],
    ("cli.main.nonzero_exits", "count", "lower", "cli op_ms; must stay 0"),
    ("cli.self_s", "s", "lower", "cli op_ms (argparse and formatting)"),
    ("trace.ops", "count", "higher", "units of work in the traced run (fixed per workload)"),
    ("trace.spans", "count", "lower", "spans recorded; explains trace.overhead_s"),
    ("trace.outside_s", "s", "lower",
     "traced time outside every span, plus the tracer's count hooks (benchmark and tracer cost)"),
    ("trace.traced_s", "s", "lower", "traced set-up plus units of work"),
    ("trace.untraced_s", "s", "lower", "the same work with tracing off"),
    ("trace.overhead_s", "s", "lower", "trace.traced_s minus trace.untraced_s"),
]

LAYERS = ("gf", "rng", "setfam", "derand", "linalg", "lrc", "codec", "formats", "cli")


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
