"""Deterministic pseudo-random generator shared by the generators and the CLI.

SplitMix64 (Steele, Lea, Flood 2014): a 64-bit counter advanced by a fixed
odd constant, passed through an avalanche mixer.  Pure integer arithmetic
mod 2**64, so identical seeds give identical streams on every platform and
Python version.  Uniform draws below a bound use top-bit rejection, which
keeps the stream layout independent of the bound's bit pattern.

Output i (from 0) of the generator seeded with s is
`mix(s + (i + 1) * GAMMA mod 2**64)`: a pure function of its position, with
no state carried from one output to the next.  So the generator computes
its outputs `_BLOCK` at a time in numpy `uint64` arithmetic, which wraps
mod 2**64 exactly as the definition does, and hands them out one by one
from a list of Python ints.  A refill only computes the next positions of
the same sequence, so where the blocks start never shows in the values
drawn: every draw equals the one-output-at-a-time definition, and a seed
gives bit-identical draws across versions of this package.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK = 1024
# counter offsets of one block's outputs from the counter before it
_OFFSETS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * np.uint64(_GAMMA)


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 avalanche mixer on a uint64 array (wrapping products)."""
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


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
        self._counter = seed & _MASK  # the counter before the next block
        self._buf: list[int] = []
        self._pos = 0

    def _refill(self) -> None:
        states = np.array(self._counter, dtype=np.uint64) + _OFFSETS
        self._buf = _mix(states).tolist()
        self._pos = 0
        self._counter = (self._counter + _BLOCK * _GAMMA) & _MASK

    def next64(self) -> int:
        if self._pos == len(self._buf):
            self._refill()
        pos = self._pos
        self._pos = pos + 1
        return self._buf[pos]

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
        if k < 0:
            raise ValueError(f"subset size k = {k} is negative")
        if k > n:
            raise ValueError(f"cannot draw {k} distinct values from [0, {n})")
        if k == 0:
            return ()
        shift = _shift(n)
        if shift == 64:
            return (0,)
        picked: set[int] = set()
        buf, pos = self._buf, self._pos
        while len(picked) < k:
            if pos == len(buf):
                self._refill()
                buf, pos = self._buf, 0
            v = buf[pos] >> shift
            pos += 1
            if v < n:
                picked.add(v)
        self._pos = pos
        return tuple(sorted(picked))

    def spawn(self) -> "SplitMix64":
        """Child generator with a stream derived from (and independent of) this one."""
        return SplitMix64(self.next64())
