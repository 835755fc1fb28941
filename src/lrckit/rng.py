"""Deterministic pseudo-random generator shared by the generators and the CLI.

SplitMix64 (Steele, Lea, Flood 2014): a 64-bit counter advanced by a fixed
odd constant, passed through an avalanche mixer.  Pure integer arithmetic
mod 2**64, so identical seeds give identical streams on every platform and
Python version.  Uniform draws below a bound use top-bit rejection, which
keeps the stream layout independent of the bound's bit pattern.

Output i (from 0) of the generator seeded with s is
`mix(s + (i + 1) * GAMMA mod 2**64)`: a pure function of its position, with
no state carried from one output to the next.  So the generator's state is
one counter.  A single draw (`next64`, `below`) advances it by GAMMA and
mixes it in Python ints; `subsets` computes a run of outputs at once in
numpy `uint64` arithmetic, which wraps mod 2**64 exactly as the definition
does.  Both paths go through the one mixer, `_mix`.

`subsets` draws many k-subsets in one call.  It computes a run of outputs,
shifts it and drops the values out of range as arrays, and marks each kept
value with the distance back to its previous occurrence (one stable
argsort).  A one-at-a-time draw from kept value s takes the values from s
on until k distinct ones have come, so it ends where the count of values
whose previous occurrence lies before s reaches k: a running count down a
window of every start at once, sized from the coupon collector's mean and
spread.  A Python pointer chase from the first start then follows the
draws, and one masked row sort gives their sets.  A draw longer than the
window stops the chase there, and the next run doubles the window, so
duplicates never fall back to a loop over values.

Whatever the calls, their sizes and the order they come in, every draw
equals the one-output-at-a-time definition and leaves the generator where
that definition would, so a seed gives bit-identical draws across versions
of this package.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_CELLS = 1 << 15  # most (start, offset) cells one run of subsets examines


def _mix(z):
    """The SplitMix64 avalanche mixer on a Python int, or in place on a
    uint64 array, whose products already wrap so the masks change nothing."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z &= _MASK
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z &= _MASK
    z ^= z >> 31
    return z


def _outputs(counter: int, count: int) -> np.ndarray:
    """The `count` outputs after the one whose counter is `counter`."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    return _mix(steps + np.uint64(counter))


@lru_cache(maxsize=64)
def _plan(n: int, k: int):
    """How `subsets` sizes its runs of k-subsets of [0, n): the mean and
    spread of the in-range values one draw takes (a coupon collector), the
    window that holds nearly every draw, the outputs per in-range value,
    the largest value and the shift as uint64, and a dtype for the values."""
    waits = [n / (n - i) for i in range(k)]
    mean, spread = sum(waits), sum(w * w - w for w in waits) ** 0.5
    shift = _shift(n)
    return (mean, spread, int(mean + 5 * spread) + 2, (1 << (64 - shift)) / n,
            np.uint64(n - 1), np.uint64(shift), np.min_scalar_type(n - 1))


def _shift(n: int) -> int:
    """Right shift that keeps the top bits of a 64-bit output needed to
    cover [0, n); 64 for n = 1, where no output is needed."""
    if n <= 0:
        raise ValueError(f"bound n = {n} must be positive")
    if n > 1 << 64:
        raise ValueError(f"bound n = {n} exceeds 2**64, the range of one 64-bit output")
    return 64 - (n - 1).bit_length()


class SplitMix64:
    def __init__(self, seed: int):
        self._counter = seed & _MASK  # the counter of the last output drawn

    def next64(self) -> int:
        self._counter = (self._counter + _GAMMA) & _MASK
        return _mix(self._counter)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        shift = _shift(n)
        if shift == 64:
            return 0
        while True:
            v = self.next64() >> shift
            if v < n:
                return v

    def subset(self, n: int, k: int) -> tuple[int, ...]:
        """Uniformly random k-subset of [0, n), returned sorted."""
        return self.subsets(n, k, 1)[0]

    def subsets(self, n: int, k: int, count: int) -> list[tuple[int, ...]]:
        """`count` uniformly random k-subsets of [0, n), each sorted.

        The sets are those of `count` one-at-a-time draws, each collecting
        in-range values until k are distinct, and the generator ends where
        those draws would leave it (see the module docstring).
        """
        if count < 0:
            raise ValueError(f"subset count {count} is negative")
        if k < 0:
            raise ValueError(f"subset size k = {k} is negative")
        if k > n:
            raise ValueError(f"cannot draw {k} distinct values from [0, {n})")
        if k == 0:
            return [()] * count
        shift = _shift(n)
        if shift == 64:
            return [(0,)] * count
        mean, spread, width, per_value, top, down, value = _plan(n, k)
        rows: list[tuple[int, ...]] = []
        while len(rows) < count:
            need = count - len(rows)
            starts = int((need - 1) * mean + 4 * spread * (need - 1) ** 0.5) + 1
            starts = min(starts, max(_CELLS // width, 1))
            vals = _outputs(self._counter, int((starts + width) * per_value * 1.1) + 8)
            at = np.flatnonzero(np.right_shift(vals, down, out=vals) <= top)
            vals = vals[at].astype(value)
            # gap[i]: i less the last j < i with the value of i, or i + 1 when
            # there is none, so value i is new to the draw from s iff
            # gap[i] > i - s; 0 past the run
            order = np.argsort(vals, kind="stable")
            ordered = vals[order]
            gap = np.zeros(len(vals) + width, dtype=np.intp)
            gap[order[1:]] = order[1:] - np.where(ordered[1:] == ordered[:-1], order[:-1], -1)
            gap[order[:1]] = order[:1] + 1
            # fresh[j, s]: value s + j is new to the draw from s, where
            # column s views gap[s : s + width], which the padding keeps in bounds
            offsets = np.arange(width)
            view = np.ndarray((width, min(starts, len(vals))), gap.dtype, gap, strides=gap.strides * 2)
            fresh = view > offsets[:, None]
            # distinct[j, s]: values in the draw from s by offset j, a running
            # sum down the rows in log2(width) doubling steps
            distinct = fresh.astype(np.min_scalar_type(width))
            step = 1
            while step < width:
                distinct[step:] += distinct[:-step]
                step *= 2
            spans = np.add.reduce(distinct < k, axis=0, dtype=distinct.dtype)  # width: past it
            # where the draw after the one from s starts; -1 when unknown, and
            # past the starts examined
            after = np.where(spans < width, np.arange(len(spans)) + spans + 1, -1).tolist()
            after += [-1] * width
            chosen: list[int] = []
            i = 0
            for _ in range(need):
                if after[i] < 0:
                    break
                chosen.append(i)
                i = after[i]
            if chosen:
                c = np.array(chosen)
                # each chosen draw's first k fresh values, row by row
                keep = fresh.T[c] & (distinct.T[c] <= k)
                picked = vals.take(c[:, None] + offsets, mode="clip")[keep]
                rows.extend(map(tuple, np.sort(picked.reshape(-1, k), axis=1).tolist()))
                self._counter = (self._counter + (int(at[i - 1]) + 1) * _GAMMA) & _MASK
            if not chosen or (len(chosen) < need and i < len(spans)):
                width *= 2  # a draw outgrew the window, or the run held none
        return rows

    def spawn(self) -> "SplitMix64":
        """Child generator with a stream derived from (and independent of) this one."""
        return SplitMix64(self.next64())
