"""Exact arithmetic in finite fields GF(q) for prime-power q up to 2**16.

Elements are canonical integers in [0, q).  Prime fields use plain modular
arithmetic.  For an extension field GF(p**e) the base-p digits of an element
are the coefficients of a residue polynomial modulo a fixed irreducible
polynomial of degree e, and multiplication runs through log/antilog tables
of the multiplicative group, built once per field with numpy.  Each
operation has one body, on arrays; the scalar operations validate and call it.
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
    [0, q), raise ValueError for anything else, and call the `*_array`
    operations, which act elementwise on int64 arrays of canonical elements
    (see `array`).  Extension fields build `exp_table` and `log_table` (int64,
    log_table[0] = -1) on construction; `inv_table` is built on first use.
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
            self.exp_table: np.ndarray | None = None
            self.log_table: np.ndarray | None = None
        else:
            self.modulus = lowest_irreducible(self.p, self.e)
            self.exp_table, self.log_table = self._tables()

    def _poly_mul(self, x, y) -> np.ndarray:
        # elementwise product of element arrays as residue polynomials, for
        # the tables only: schoolbook over the base-p digits (a leading axis),
        # then reduced by the monic modulus from the top degree down
        p, e = self.p, self.e
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        axis = (e,) + (1,) * max(x.ndim, y.ndim)
        place = (p ** np.arange(e, dtype=np.int64)).reshape(axis)
        dx, dy = x // place % p, y // place % p
        prod = np.zeros((2 * e - 1,) + np.broadcast_shapes(x.shape, y.shape), dtype=np.int64)
        for i in range(e):
            prod[i : i + e] += dx[i] * dy
        modulus = np.array(self.modulus, dtype=np.int64).reshape((e + 1,) + axis[1:])
        for k in range(2 * e - 2, e - 1, -1):
            prod[k - e : k + 1] -= prod[k] % p * modulus
        return (prod[:e] % p * place).sum(axis=0)

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        # exp[i] = g**i for the least primitive element g >= 2, log its inverse
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
        # g is primitive iff g**(order/l) != 1 for every prime l dividing
        # order; test candidates in small batches, all cofactors at once
        cofactors = np.array([order // ell for ell in primes], dtype=np.int64)
        for start in range(2, q, 16):
            cands = np.arange(start, min(start + 16, q), dtype=np.int64)
            base, power = cands[:, None], np.ones((len(cands), len(primes)), dtype=np.int64)
            n = cofactors
            while n.any():
                power = np.where(n & 1, self._poly_mul(power, base), power)
                base = self._poly_mul(base, base)
                n = n >> 1
            primitive = (power != 1).all(axis=1)
            if primitive.any():
                gen = int(cands[np.argmax(primitive)])
                break
        # one "multiply by g" map over the field, walked once from 1
        step = self._poly_mul(np.arange(q), gen).tolist()
        exp = [1] * order
        for i in range(1, order):
            exp[i] = step[exp[i - 1]]
        exp_table = np.array(exp, dtype=np.int64)
        log_table = np.full(q, -1, dtype=np.int64)
        log_table[exp_table] = np.arange(order)
        return exp_table, log_table

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
        return self.sub_array(0, a)

    def sub(self, a: int, b: int) -> int:
        self.validate(a)
        self.validate(b)
        return self.sub_array(a, b)

    def mul(self, a: int, b: int) -> int:
        self.validate(a)
        self.validate(b)
        return int(self.mul_array(a, b))

    def inv(self, a: int) -> int:
        self.validate(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.inv_table[a])

    def pow(self, a: int, n: int) -> int:
        """a**n with 0**0 = 1; negative n inverts (and rejects a = 0)."""
        self.validate(a)
        if n < 0:
            if a == 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            n %= self.q - 1
        return int(self.pow_array(a, n))

    # ------------------------------------------------------------ arrays

    def array(self, values) -> np.ndarray:
        """A fresh int64 array of `values`; ValueError unless every entry is
        a canonical element."""
        arr = np.asarray(values)
        if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= self.q):
            raise ValueError(f"array entries are not canonical elements of GF({self.q})")
        return arr.astype(np.int64)

    @cached_property
    def inv_table(self) -> np.ndarray:
        """Inverse of every element, indexed by element, with 0 mapped to 0."""
        inv = self.pow_array(np.arange(self.q, dtype=np.int64), self.q - 2)
        inv[0] = 0
        return inv

    def mul_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise product of broadcastable arrays of elements."""
        if self.e == 1:
            return (x * y) % self.p
        out = self.exp_table[(self.log_table[x] + self.log_table[y]) % (self.q - 1)]
        return np.where((x != 0) & (y != 0), out, 0)  # log[0] = -1 is masked out here

    def pow_array(self, x: np.ndarray, n: int) -> np.ndarray:
        """Elementwise x**n for an integer n >= 0, with 0**0 = 1."""
        if n < 0:
            raise ValueError(f"exponent {n} is negative")
        if n == 0:
            return np.ones_like(x)
        # x**k == x**n for every element, 0 included, since k >= 1
        k = (n - 1) % (self.q - 1) + 1
        if self.e == 1:
            out, base = 1, x
            while k:
                if k & 1:
                    out = out * base % self.p
                base = base * base % self.p
                k >>= 1
            return out
        out = self.exp_table[self.log_table[x] * k % (self.q - 1)]
        return np.where(x != 0, out, 0)

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

    def __repr__(self) -> str:
        return f"GF({self.q})"
