"""Polynomials over F_{p^m} and the cyclic quotient ring F_q[x]/(x^n - 1).

Two value types with one coefficient convention (constant term first):

* Poly normalizes away trailing zeros so degree queries are canonical.
* RingElement keeps a fixed length n with explicit zeros, because
  codewords and channel vectors need positional semantics.

Both are thin wrappers over plain coefficient sequences: one kernel,
_convolve, does every product (Poly's without wrapping, RingElement's
mod x^n - 1, and the fold of to_ring), and check_shape is the one
same-field, same-length test, shared with the pair metrics.  A product
by (x - 1)^i skips the convolution: _mul_x_minus_one_power takes it one
factor x^(p^k) - 1 at a time.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import repeat

from ._record import Record
from .gf import Field, _check_int

NEG_INF = float("-inf")


class Poly(Record):
    """A polynomial with coefficients in a Field, no trailing zeros."""

    field: Field
    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = self.field.check_vec(self.coeffs)
        end = len(coeffs)
        while end and not coeffs[end - 1]:
            end -= 1
        object.__setattr__(self, "coeffs", coeffs[:end])

    @property
    def degree(self):
        """len(coeffs) - 1, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_compat(self, other: "Poly"):
        if self.field != other.field:
            raise ValueError("polynomials from different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compat(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        pad = (0,) * (len(a) - len(b))
        return Poly(self.field, tuple(self.field.add_vec(a, b + pad)))

    def __neg__(self) -> "Poly":
        return Poly(self.field, tuple(map(self.field.neg, self.coeffs)))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_compat(other)
        a, b = self.coeffs, other.coeffs
        size = len(a) + len(b) - 1
        return Poly(self.field, tuple(_convolve(self.field, a, b, size)))

    def divrem(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Quotient and remainder with deg(remainder) < deg(divisor)."""
        self._check_compat(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        fs = self.field
        lead_inv = fs.inv(other.coeffs[-1])
        db = len(other.coeffs) - 1
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - db, 0)
        for k in range(len(rem) - 1, db - 1, -1):
            c = rem[k]
            if c:
                f = fs.mul(c, lead_inv)
                quot[k - db] = f
                for j, bj in enumerate(other.coeffs):
                    rem[k - db + j] = fs.sub(rem[k - db + j], fs.mul(f, bj))
        return Poly(fs, tuple(quot)), Poly(fs, tuple(rem))

    def to_ring(self, n: int) -> "RingElement":
        """Reduce into F_q[x]/(x^n - 1): exponents wrap mod n."""
        _check_int("ring length", n, 1)
        fs = self.field
        return RingElement(fs, tuple(_convolve(fs, self.coeffs, (1,), n)))


class RingElement(Record):
    """An element of F_q[x]/(x^n - 1): exactly n coefficients, zeros kept."""

    field: Field
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("ring length must be positive")
        object.__setattr__(self, "coeffs", self.field.check_vec(self.coeffs))

    @property
    def n(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def lift(self) -> Poly:
        """The unique representative of degree < n in F_q[x]."""
        return Poly(self.field, self.coeffs)

    def __add__(self, other: "RingElement") -> "RingElement":
        check_shape(self, other, "ring elements")
        fs = self.field
        return RingElement(fs, tuple(fs.add_vec(self.coeffs, other.coeffs)))

    def __neg__(self) -> "RingElement":
        return RingElement(self.field, tuple(map(self.field.neg, self.coeffs)))

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def scale(self, s: int) -> "RingElement":
        fs = self.field
        fs.check(s)
        return RingElement(fs, tuple(fs.mul(s, a) for a in self.coeffs))

    def __mul__(self, other: "RingElement") -> "RingElement":
        """Cyclic convolution (multiplication mod x^n - 1)."""
        check_shape(self, other, "ring elements")
        fs = self.field
        return RingElement(fs, tuple(_convolve(fs, self.coeffs, other.coeffs, self.n)))

    def shift(self, s: int) -> "RingElement":
        """Cyclic shift: coefficient at j moves to (j + s) mod n."""
        _check_int("shift", s)
        s %= self.n
        return RingElement(self.field, self.coeffs[-s:] + self.coeffs[:-s])


def _convolve(field: Field, a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The n coefficients of sum a_i b_j x^((i + j) mod n), over the nonzero b_j."""
    add, mul = field.add, field.mul
    terms = [(j, c) for j, c in enumerate(b) if c]
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, c in terms:
                k = (i + j) % n
                out[k] = add(out[k], mul(x, c))
    return out


def check_shape(a, b, what: str) -> None:
    """Raise ValueError unless a and b (with .field and .n) share field and length."""
    if a.field != b.field:
        raise ValueError(f"{what} from different fields")
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")


def zero_ring_element(field: Field, n: int) -> RingElement:
    _check_int("ring length", n, 1)
    return RingElement(field, (0,) * n)


def ring_one(field: Field, n: int) -> RingElement:
    _check_int("ring length", n, 1)
    return RingElement(field, tuple(int(k == 0) for k in range(n)))


def _binom_mod_p(i: int, j: int, p: int) -> int:
    # Lucas: C(i, j) mod p is the product of digitwise binomials base p
    r = 1
    while j:
        r = r * math.comb(i % p, j % p) % p
        if r == 0:
            return 0
        i //= p
        j //= p
    return r


def x_minus_one_power(field: Field, i: int, n: int) -> RingElement:
    """(x - 1)^i in F_q[x]/(x^n - 1), for n = p^e and 0 <= i <= n.

    Expanded by the binomial theorem with coefficients reduced mod p via
    Lucas' theorem: the x^j coefficient is (-1)^(i-j) C(i, j).  At i = n
    all inner binomials vanish mod p and the ends cancel, giving zero.
    """
    p = field.p
    _check_int("ring length", n, 1)
    rest = n
    while rest % p == 0:
        rest //= p
    if rest != 1 or n == 1:
        raise ValueError("ring length must be a positive power of the characteristic")
    _check_int("exponent", i, 0, n)
    out = [0] * n
    for j in range(i + 1):
        c = _binom_mod_p(i, j, p)
        if c:
            if (i - j) % 2:
                c = -c % p
            k = j % n
            out[k] = field.add(out[k], c)
    return RingElement(field, tuple(out))


def _frobenius_strides(p: int, i: int):
    """s = p^k, i_k times for each base-p digit i_k of i: (x - 1)^i = prod (x^s - 1)."""
    s = 1
    while i:
        i, digit = divmod(i, p)
        yield from repeat(s, digit)
        s *= p


def _mul_x_minus_one_power(field: Field, word: Sequence[int], i: int) -> Sequence[int]:
    """word * (x - 1)^i mod x^n - 1, for n = len(word) a power of p and i <= n.

    One rotate-and-subtract w <- x^s w - w per factor x^s - 1: s_p(i) passes.
    """
    for s in _frobenius_strides(field.p, i):
        word = field.sub_vec(word[-s:] + word[:-s], word)
    return word


def cyclic_shift(v: RingElement, s: int) -> RingElement:
    return v.shift(s)


def vector(field: Field, entries: Sequence[int]) -> RingElement:
    """Convenience constructor from a plain coefficient sequence."""
    return RingElement(field, tuple(entries))
