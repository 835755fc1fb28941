"""Exact arithmetic in finite fields GF(q) for prime-power q up to 2**16.

Elements are canonical integers in [0, q).  Prime fields use plain modular
arithmetic.  For an extension field GF(p**e) the base-p digits of an element
are the coefficients of a residue polynomial modulo a fixed irreducible
polynomial of degree e, and multiplication runs through log/antilog tables
of the multiplicative group, built once per field with numpy.  Each
operation has one body, on arrays; the scalar operations validate and call it.

The helpers have one body per job as well.  `_poly_rem`, the remainder by
a monic polynomial over whole arrays, finds the modulus (trial division of a
batch of candidates) and reduces the products that build the tables.
`_least_factor` is the one trial division, for q and q - 1.  An extension
field's products come from private sentinel tables, whose log of 0 indexes
a run of zeros, so `mul_array` is two log lookups, an add and an antilog
lookup, with no remainder and no mask.  Its sums and differences are taken
on packed digits: an element's base-p digits sit in the bit fields of one
integer, so one integer add adds every digit, and `GF._fold` reduces the
fields mod p and reads the element back, one table lookup per chunk of
fields (characteristic 2 subtracts by XOR).  `GF.dot_array` is the one sum
of products, behind the distance scan's matrix-vector products, `encode`
and `syndrome`, and `sum_array` and `add` call it: one remainder after the
integer sum in a prime field, and in an extension field packed products
summed a stretch of terms at a time and folded.  `check_order` is the one
statement of the orders a field may have, for `GF(q)` and the code gate.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

MAX_ORDER = 1 << 16
_CHUNK = 12  # bits per packed chunk, each folded by one table of 2**_CHUNK entries


def _least_factor(n: int) -> int:
    """Least prime factor of n >= 2, by trial division."""
    c = 2
    while c * c <= n:
        if n % c == 0:
            return c
        c += 1
    return n


def prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, e) with q = p**e and p prime, or None if q is not a prime power."""
    if q < 2:
        return None
    p = _least_factor(q)
    e = 0
    x = q
    while x % p == 0:
        x //= p
        e += 1
    return (p, e) if x == 1 else None


def check_order(q: int) -> tuple[int, int]:
    """(p, e) for an order GF supports; q > MAX_ORDER is refused before it is factored."""
    if q > MAX_ORDER:
        raise ValueError(f"q={q} exceeds the supported maximum {MAX_ORDER}")
    if (pe := prime_power(q)) is None:
        raise ValueError(f"q={q} is not a prime power")
    return pe


def _mod(x, m: int):
    # x % m with floor semantics, for ints and int64 arrays alike; numpy
    # divides an int64 array by a scalar much faster than it takes the
    # remainder, so the remainder is taken through the quotient
    return x - x // m * m


def _digits(x, p: int, width: int) -> np.ndarray:
    # the `width` lowest base-p digits of x, least significant first, on a
    # new leading axis
    x = np.asarray(x, dtype=np.int64)
    place = p ** np.arange(width, dtype=np.int64).reshape((width,) + (1,) * x.ndim)
    return x // place % p


def _monic(encs, p: int, deg: int) -> np.ndarray:
    # x**deg plus the polynomial whose coefficients are the base-p digits of
    # each code in encs; coefficients low-to-high on axis 0
    digits = _digits(encs, p, deg)
    return np.concatenate([digits, np.ones_like(digits[:1])])


def _poly_rem(num: np.ndarray, den: np.ndarray, p: int) -> np.ndarray:
    # num modulo the monic den over GF(p): coefficients low-to-high on axis 0
    # of both, the other axes broadcast; reduced from the top degree down
    dd = len(den) - 1
    rem = num * np.ones_like(den[:1])  # a copy of num, broadcast over den's other axes
    for k in range(len(rem) - 1, dd - 1, -1):
        rem[k - dd : k + 1] -= rem[k] % p * den
    return rem[:dd] % p


def lowest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree e over GF(p).

    Candidates x**e + c_{e-1} x**(e-1) + ... + c_0 are scanned in increasing
    order of the integer whose base-p digits are (c_0, ..., c_{e-1}), a batch
    at a time; a candidate is irreducible when no monic polynomial of degree
    1..e//2 divides it.
    """
    divisors = [_monic(np.arange(p**d), p, d)[:, None, :] for d in range(1, e // 2 + 1)]
    for start in range(1, p**e, 64):
        cands = _monic(np.arange(start, min(start + 64, p**e)), p, e)
        irreducible = np.ones(cands.shape[1], dtype=bool)
        for div in divisors:
            irreducible &= _poly_rem(cands[:, :, None], div, p).any(axis=0).all(axis=1)
        if irreducible.any():
            return tuple(cands[:, np.argmax(irreducible)].tolist())
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
    threads.  Two are equal, and hash alike, when their orders are: an
    order has one modulus, the lowest irreducible.  The scalar operations take and return canonical integers in
    [0, q), raise ValueError for anything else, and call the `*_array`
    operations, which act elementwise on int64 arrays of canonical elements
    (see `array`).  Extension fields build `exp_table` and `log_table` (int64,
    log_table[0] = -1) on construction; `inv_table` is built on first use.

    Extension fields also build private tables on construction, from the
    public ones, which they leave unchanged.  `_log` is log_table with the
    log of 0 set to 2(q - 1), and `_exp` is exp_table twice over followed by
    2(q - 1) + 1 zeros, so `_exp[_log[x] + _log[y]]` is the product x y for
    every pair, 0 included.  `_pack` holds each element with its e base-p
    digits in bit fields, up to _CHUNK bits of fields to a chunk, and
    `_pexp` is `_exp` packed, so a packed product is one lookup.  The
    fields are as wide as the fewest chunks allow while each still holds
    the sum of two digits, so `_stretch` = (2**bits - 1) // (p - 1) >= 2
    packed terms sum as integers with no field overflowing.  `_folds` holds
    one table per chunk: the part of the element that each value of the
    chunk gives, its fields reduced mod p.
    """

    def __init__(self, q: int):
        self.p, self.e = check_order(q)
        self.q = q
        if self.e == 1:
            self.modulus: tuple[int, ...] | None = None
            self.exp_table: np.ndarray | None = None
            self.log_table: np.ndarray | None = None
        else:
            self.modulus = lowest_irreducible(self.p, self.e)
            self.exp_table, self.log_table = self._tables()
            self._sentinel_tables()

    def _poly_mul(self, x, y) -> np.ndarray:
        # elementwise product of broadcastable element arrays of one ndim as
        # residue polynomials, for the tables only: schoolbook over the base-p
        # digits (a leading axis), then reduced by the monic modulus
        p, e = self.p, self.e
        dx, dy = _digits(x, p, e), _digits(y, p, e)
        prod = np.zeros((2 * e - 1,) + np.broadcast_shapes(dx.shape[1:], dy.shape[1:]), dtype=np.int64)
        for i in range(e):
            prod[i : i + e] += dx[i] * dy
        axes = (1,) * (dx.ndim - 1)
        modulus = np.array(self.modulus, dtype=np.int64).reshape((e + 1,) + axes)
        place = (p ** np.arange(e, dtype=np.int64)).reshape((e,) + axes)
        return (_poly_rem(prod, modulus, p) * place).sum(axis=0)

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        # exp[i] = g**i for the least primitive element g >= 2, log its inverse
        q = self.q
        order = q - 1
        primes, x = [], order
        while x > 1:
            primes.append(_least_factor(x))
            while x % primes[-1] == 0:
                x //= primes[-1]
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
        step = self._poly_mul(np.arange(q), [gen]).tolist()
        exp = [1] * order
        for i in range(1, order):
            exp[i] = step[exp[i - 1]]
        exp_table = np.array(exp, dtype=np.int64)
        log_table = np.full(q, -1, dtype=np.int64)
        log_table[exp_table] = np.arange(order)
        return exp_table, log_table

    def _sentinel_tables(self) -> None:
        # the private tables of an extension field (see the class Notes)
        p, e, order = self.p, self.e, self.q - 1
        self._log = np.where(self.log_table < 0, 2 * order, self.log_table)
        self._exp = np.concatenate([self.exp_table, self.exp_table, np.zeros(2 * order + 1, dtype=np.int64)])
        # the fewest chunks whose fields each hold the digit sum of two terms
        chunks = next(c for c in range(1, e + 1) if 1 << _CHUNK // -(-e // c) > 2 * (p - 1))
        per = -(-e // chunks)
        bits = _CHUNK // per
        self._stretch = ((1 << bits) - 1) // (p - 1)
        field = np.arange(e)
        offset = _CHUNK * (field // per) + bits * (field % per)
        self._pack = (_digits(np.arange(self.q), p, e) << offset[:, None]).sum(axis=0)
        self._pexp = self._pack[self._exp]
        residue = np.arange(1 << bits) % p
        self._folds = []
        for first in range(0, e, per):
            table = np.zeros(1, dtype=np.int64)
            for i in reversed(range(first, min(first + per, e))):
                table = np.add.outer(table, residue * p**i).ravel()
            self._folds.append(table)

    def validate(self, a: int) -> int:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not a canonical element of GF({self.q})")
        return a

    def add(self, a: int, b: int) -> int:
        self.validate(a)
        self.validate(b)
        return int(self.sum_array(np.array([a, b]), axis=0))

    def neg(self, a: int) -> int:
        self.validate(a)
        return int(self.sub_array(0, a))

    def sub(self, a: int, b: int) -> int:
        self.validate(a)
        self.validate(b)
        return int(self.sub_array(a, b))

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
            return _mod(x * y, self.p)
        return self._exp[self._log[x] + self._log[y]]

    def dot_array(self, x: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
        """Field sum along `axis` of mul_array(x, y), the elementwise products
        of broadcastable arrays of elements, exact for any length of the
        axis.  A prime field takes one remainder after the integer sum.  An
        extension field sums packed products as integers, `_stretch` terms at
        a time, and folds the sums back to elements."""
        nd = max(np.ndim(x), np.ndim(y))
        if not -nd <= axis < nd:
            raise ValueError(f"axis {axis} is out of range for {nd} dimensions")
        labels = [..., *range(nd - axis % nd)]  # the summed axis is label 0
        kept = labels[:1] + labels[2:]
        if self.e == 1:
            # a term is below 2**32, so the int64 sum is exact for up to 2**31 terms
            x, y = (np.reshape(a, (1,) * (nd - np.ndim(a)) + np.shape(a)) for a in (x, y))
            return _mod(np.einsum(x, labels, y, labels, kept), self.p)
        terms = self._pexp[self._log[x] + self._log[y]]
        while terms.shape[axis] > self._stretch:
            # each stretch sums inside the bit fields, and its sum, packed
            # again as an element, is one term of the next round
            sums = np.add.reduceat(terms, np.arange(0, terms.shape[axis], self._stretch), axis=axis)
            terms = self._pack[self._fold(sums)]
        return self._fold(np.einsum(terms, labels, kept))

    def _fold(self, sums: np.ndarray) -> np.ndarray:
        # the element whose base-p digits are the bit fields of packed sums,
        # each reduced mod p: one table lookup per chunk
        mask = (1 << _CHUNK) - 1
        out = self._folds[0][sums & mask]
        for j, table in enumerate(self._folds[1:], 1):
            out += table[sums >> _CHUNK * j & mask]
        return out

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
                    out = _mod(out * base, self.p)
                base = _mod(base * base, self.p)
                k >>= 1
            return out
        out = self.exp_table[_mod(self.log_table[x] * k, self.q - 1)]
        return np.where(x != 0, out, 0)

    def sub_array(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Elementwise difference x - y of broadcastable arrays of elements."""
        if self.e == 1:
            return _mod(x - y, self.p)
        if self.p == 2:
            return x ^ y  # the digits are bits, and XOR adds them all at once
        # x plus the product of y and -1, whose log is _log[p - 1]
        return self._fold(self._pack[x] + self._pexp[self._log[y] + self._log[self.p - 1]])

    def sum_array(self, x: np.ndarray, axis: int) -> np.ndarray:
        """Field sum of an array of elements along `axis`."""
        return self.dot_array(x, 1, axis)

    def __eq__(self, other: object) -> bool:
        return self.q == other.q if isinstance(other, GF) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.q)

    def __repr__(self) -> str:
        return f"GF({self.q})"
