"""Exact arithmetic in finite fields GF(q) for prime-power q up to 2**16.

Elements are canonical integers in [0, q).  Prime fields use plain modular
arithmetic.  For an extension field GF(p**e) the base-p digits of an element
are the coefficients of a residue polynomial modulo a fixed irreducible
polynomial of degree e, and multiplication runs through log/antilog tables
of the multiplicative group.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

MAX_ORDER = 1 << 16


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, e) with q = p**e and p prime, or None if q is not a prime power."""
    if q < 2:
        return None
    p = q
    c = 2
    while c * c <= q:
        if q % c == 0:
            p = c
            break
        c += 1
    e = 0
    x = q
    while x % p == 0:
        x //= p
        e += 1
    return (p, e) if x == 1 else None


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    # remainder of num modulo monic den, coefficients low-to-high over GF(p)
    rem = list(num)
    dd = len(den) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            for j in range(dd + 1):
                rem[i - dd + j] = (rem[i - dd + j] - c * den[j]) % p
    while len(rem) > dd:
        rem.pop()
    while len(rem) < dd:
        rem.append(0)
    return rem


def _is_irreducible(poly: list[int], p: int) -> bool:
    # trial division by every monic polynomial of degree 1..deg//2
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for enc in range(p**d):
            div = _digits(enc, p, d) + [1]
            if not any(_poly_rem(poly, div, p)):
                return False
    return True


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _undigits(digits: list[int], p: int) -> int:
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


def lowest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree e over GF(p).

    Candidates x**e + c_{e-1} x**(e-1) + ... + c_0 are scanned in increasing
    order of the integer whose base-p digits are (c_0, ..., c_{e-1}).
    """
    for enc in range(1, p**e):
        cand = _digits(enc, p, e) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class GF:
    """Arithmetic context for the finite field with q elements.

    Parameters
    ----------
    q : int
        Field order; must be a prime power not exceeding 2**16.

    Notes
    -----
    Instances are immutable after construction and safe to share across
    threads.  The scalar operations take and return canonical integers in
    [0, q); out-of-range inputs raise ValueError.  The `*_array` operations
    act elementwise on int64 arrays of canonical elements (see `array`),
    reading numpy tables that each field builds once, on first use.
    """

    def __init__(self, q: int):
        pe = prime_power(q)
        if pe is None:
            raise ValueError(f"q={q} is not a prime power")
        if q > MAX_ORDER:
            raise ValueError(f"q={q} exceeds the supported maximum {MAX_ORDER}")
        self.q = q
        self.p, self.e = pe
        if self.e == 1:
            self.modulus: tuple[int, ...] | None = None
            self.exp_table: list[int] | None = None
            self.log_table: list[int] | None = None
        else:
            self.modulus = lowest_irreducible(self.p, self.e)
            self._build_tables()

    def _raw_mul(self, a: int, b: int) -> int:
        # schoolbook polynomial product reduced by the modulus
        p, e = self.p, self.e
        da = _digits(a, p, e)
        db = _digits(b, p, e)
        prod = [0] * (2 * e - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        return _undigits(_poly_rem(prod, list(self.modulus), p), p)

    def _raw_pow(self, a: int, n: int) -> int:
        out, base = 1, a
        while n:
            if n & 1:
                out = self._raw_mul(out, base)
            base = self._raw_mul(base, base)
            n >>= 1
        return out

    def _build_tables(self) -> None:
        q = self.q
        order = q - 1
        primes = []
        x, c = order, 2
        while c * c <= x:
            if x % c == 0:
                primes.append(c)
                while x % c == 0:
                    x //= c
            c += 1
        if x > 1:
            primes.append(x)
        gen = None
        for g in range(2, q):
            if all(self._raw_pow(g, order // ell) != 1 for ell in primes):
                gen = g
                break
        assert gen is not None, "multiplicative group of a finite field is cyclic"
        exp = [1] * order
        for i in range(1, order):
            exp[i] = self._raw_mul(exp[i - 1], gen)
        log = [-1] * q
        for i, v in enumerate(exp):
            log[v] = i
        assert all(log[v] >= 0 for v in range(1, q))
        self.exp_table = exp
        self.log_table = log

    def validate(self, a: int) -> int:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not a canonical element of GF({self.q})")
        return a

    def _combine(self, a, b, sign: int):
        # a + sign*b for ints and int64 arrays alike: %, // and ^ broadcast
        # the same way on both; odd extension fields add base-p digits
        if self.e == 1:
            return (a + sign * b) % self.p
        if self.p == 2:
            return a ^ b
        p, out, mult = self.p, 0, 1
        for _ in range(self.e):
            out = out + ((a + sign * b) % p) * mult
            a, b, mult = a // p, b // p, mult * p
        return out

    def add(self, a: int, b: int) -> int:
        self.validate(a)
        self.validate(b)
        return self._combine(a, b, 1)

    def neg(self, a: int) -> int:
        self.validate(a)
        return self._combine(0, a, -1)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self.validate(a)
        self.validate(b)
        if self.e == 1:
            return (a * b) % self.p
        if a == 0 or b == 0:
            return 0
        assert self.exp_table is not None and self.log_table is not None
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        self.validate(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        assert self.exp_table is not None and self.log_table is not None
        return self.exp_table[(self.q - 1 - self.log_table[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        """a**n with 0**0 = 1; negative n inverts (and rejects a = 0)."""
        self.validate(a)
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return 0
        if self.e == 1:
            return pow(a, n % (self.p - 1), self.p)
        assert self.exp_table is not None and self.log_table is not None
        return self.exp_table[(self.log_table[a] * n) % (self.q - 1)]

    # ------------------------------------------------------------ arrays

    def array(self, values) -> np.ndarray:
        """A fresh int64 array of `values`; ValueError unless every entry is
        a canonical element."""
        arr = np.asarray(values)
        if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= self.q):
            raise ValueError(f"array entries are not canonical elements of GF({self.q})")
        return arr.astype(np.int64)

    @cached_property
    def _log_exp(self) -> tuple[np.ndarray, np.ndarray]:
        assert self.exp_table is not None and self.log_table is not None
        return np.array(self.log_table, dtype=np.int64), np.array(self.exp_table, dtype=np.int64)

    @cached_property
    def inv_table(self) -> np.ndarray:
        """Inverse of every element, indexed by element, with 0 mapped to 0."""
        a = np.arange(self.q, dtype=np.int64)
        if self.e == 1:
            inv, n = np.ones_like(a), self.p - 2  # a**(p-2) by square and multiply
            while n:
                if n & 1:
                    inv = inv * a % self.p
                a = a * a % self.p
                n >>= 1
        else:
            log, exp = self._log_exp
            inv = exp[-log % (self.q - 1)]
        inv[0] = 0
        return inv

    def mul_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise product of broadcastable arrays of elements."""
        if self.e == 1:
            return (x * y) % self.p
        log, exp = self._log_exp
        out = exp[(log[x] + log[y]) % (self.q - 1)]  # log[0] = -1 is masked out below
        return np.where((x != 0) & (y != 0), out, 0)

    def sub_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise difference x - y of broadcastable arrays of elements."""
        return self._combine(x, y, -1)

    def sum_array(self, x: np.ndarray, axis: int) -> np.ndarray:
        """Field sum of an array of elements along `axis`."""
        if self.e == 1:
            return x.sum(axis=axis) % self.p
        if self.p == 2:
            return np.bitwise_xor.reduce(x, axis=axis)
        p, out, mult = self.p, 0, 1
        for _ in range(self.e):
            out = out + ((x % p).sum(axis=axis) % p) * mult
            x, mult = x // p, mult * p
        return out

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self) -> str:
        return f"GF({self.q})"
