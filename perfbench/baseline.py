"""Re-time the inputs of ROADMAP's one-off baseline table, one row each.

    python3 perfbench/baseline.py

Prints a markdown table (median of three runs per row) so the first numbers
of this benchmark can sit next to the table they replace; README.md holds
the recorded result.  Takes about a minute.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lrckit import codec, linalg, lrc, setfam  # noqa: E402
from lrckit.gf import GF  # noqa: E402


def timed(fn, *args, repeats: int = 3):
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def main() -> None:
    rows = []
    s, _ = timed(lambda: [setfam.random_family(4999, 5, 3, seed) for seed in (1, 2, 3)], repeats=1)
    rows.append(("random_family", "q=4999, r=5, t=3, m=91 (seeds 1-3, mean)", s / 3))
    s, fam = timed(setfam.greedy_family, 101, 3, 3, 4096, 1)
    rows.append(("greedy_family", f"q=101, r=3, t=3, budget 4096 (m={fam.m})", s))
    field = GF(101)
    pcm = lrc.build_parity_check(fam, 7, field)
    shape = f"{len(pcm.rows)}x{pcm.n} over GF(101)"
    s, _ = timed(linalg.rank, field, pcm.rows)
    rows.append(("linalg.rank", shape, s))
    s, gen = timed(codec.generator_from_parity, field, pcm.rows)
    rows.append(("generator_from_parity", "same matrix", s))
    s, _ = timed(codec.encode, field, gen, [(7 * i + 1) % 101 for i in range(len(gen))])
    rows.append(("encode", f"n={pcm.n}", s))
    s, _ = timed(GF, 65536)
    rows.append(("GF(65536)", "table build", s))
    small = setfam.greedy_family(101, 3, 3, 4096, 1, target_m=12)
    cols = lrc.build_parity_check(small, 7, field).columns()
    s, _ = timed(linalg.smallest_dependent_subset, field, cols, 4, repeats=1)
    scanned = linalg.subset_search_cost(len(cols), 4)
    rows.append(("dependent-column scan", f"n={len(cols)}, sizes 1-4, {scanned} subsets",
                 scanned / s))
    print("| Layer | Input | This commit |")
    print("|---|---|---|")
    for layer, what, value in rows:
        shown = f"{value / 1e3:.0f}k subsets/s" if layer.startswith("dependent") else (
            f"{value:.2f} s" if value >= 1 else f"{value * 1e3:.0f} ms")
        print(f"| `{layer}` | {what} | {shown} |")


if __name__ == "__main__":
    main()
