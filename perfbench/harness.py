"""Measurement loops behind run.py: untraced and traced runs of a workload.

Imported after run.py has put ./src on the path, so lrckit is the checkout's.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import time

import spec
import tracer
from checks import Mismatch
from lrckit.codec import DecodingError
from lrckit.setfam import GenerationError
from workloads import Probe

# Set-up is repeated in bursts between units of work, so its samples spread
# over the whole timed window instead of falling in one phase of the host's
# speed.  Other work on the host only ever adds time to a set-up, so the
# fastest of many set-ups is the set-up's own cost (as with timeit).  The
# median, the mean and the first decile follow how much of the run the host
# spent in its slow phases: between sets of runs they moved by up to 75%,
# the minimum by at most 17%.
SETUP_SHARE = 0.2  # share of the timed window spent on repeated set-ups
SETUP_MIN_RUNS = 10  # set-up runs at least this many times in all


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it.  Below 21 samples that percentile would not exceed
    the median, so the maximum (percentile 100) stands in for it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(wl, seed: int):
    t0 = time.perf_counter()
    state = wl.setup(seed)
    return state, time.perf_counter() - t0


def run_one(wl, state, op, probe, failures: list[str]) -> None:
    """One unit of work; a failure is recorded, never skipped or retried."""
    try:
        wl.run(state, op, probe)
    except (Mismatch, GenerationError, DecodingError, ValueError) as exc:
        probe.discard()
        failures.append(f"{type(exc).__name__}: {exc}")
    else:
        probe.commit()


def untraced(wl, seed: int, seconds: float) -> dict:
    tracer.assert_untraced()
    state, first = timed_setup(wl, seed)
    setups = [first]
    again_s = 0.0  # set-up time spent inside the timed window

    def set_up_again() -> None:
        nonlocal again_s
        spare, took = timed_setup(wl, seed)
        wl.teardown(spare)
        setups.append(took)
        again_s += took

    probe, failures = Probe(), []
    attempted = 0
    ops = wl.ops(seed, state)
    start = time.perf_counter()
    try:
        while time.perf_counter() - start < seconds:
            attempted += 1
            run_one(wl, state, next(ops), probe, failures)
            while again_s < SETUP_SHARE * (time.perf_counter() - start):
                set_up_again()
        while len(setups) < SETUP_MIN_RUNS:
            set_up_again()
    finally:
        wl.teardown(state)
    checked = tracer.assert_untraced()
    return {
        "setups": setups,
        "probe": probe,
        "attempted": attempted,
        "failures": failures,
        "rebound_names_checked": checked,
    }


def traced(wl, seed: int) -> dict:
    tr = tracer.Tracer()
    failures: list[str] = []
    passes = []
    for tracing in (True, False):
        probe = Probe(tr if tracing else None)
        with tr.installed() if tracing else contextlib.nullcontext():
            tr.op_id = "setup"
            t0 = time.perf_counter()
            state = wl.setup(seed)
            setup_s = time.perf_counter() - t0
            try:
                for i, op in zip(range(wl.trace_ops), wl.ops(seed, state)):
                    tr.op_id = i
                    run_one(wl, state, op, probe, failures)
            finally:
                wl.teardown(state)
        passes.append(setup_s + sum(probe.totals))
    tracer.assert_untraced()
    return {
        "tracer": tr,
        "traced_s": passes[0],
        "untraced_s": passes[1],
        "attempted": 2 * wl.trace_ops,
        "failures": failures,
    }


def end_to_end(res: dict) -> dict[str, float]:
    """The spec.END_TO_END and spec.PRINTED metrics of an untraced run."""
    totals = res["probe"].totals
    return {
        "setup_s": min(res["setups"]),
        "op_ms": statistics.median(totals) * 1e3,
        "op_ms_tail": tail(totals)[0] * 1e3,
        "ops_per_s": len(totals) / sum(totals),
        "peak_rss_mb": peak_rss_mb(),
    }


def named_metrics(name: str, probe) -> list[tuple[str, float, str, str]]:
    scale = {"s": 1.0, "ms": 1e3, "us": 1e6}
    out = []
    for metric, unit, block, stat, _ in spec.NAMED_END_TO_END[name]:
        values = probe.totals if block == "op" else probe.samples.get(block, [])
        if not values:
            continue
        if stat == "rate":
            out.append((metric, len(values) / sum(values), unit, f"{len(values)} samples"))
        elif stat == "median":
            out.append((metric, statistics.median(values) * scale[unit], unit, f"median of {len(values)}"))
        else:
            value, pct = tail(values)
            out.append((metric, value * scale[unit], unit, f"p{pct:.1f} of {len(values)}"))
    return out
