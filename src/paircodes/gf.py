"""Exact arithmetic in F_p and F_{p^m}.

Field elements are plain ints in [0, p^m).  The base-p digits of the
encoding are the coefficients of the element in the polynomial basis
{1, x, ..., x^{m-1}}, constant digit least significant.  Encoding 0 is
the additive identity, encoding 1 the multiplicative identity, and for
m = 1 arithmetic is just integers mod p.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence


def is_prime(n: int) -> bool:
    """Trial-division primality test; adequate for desk-scale inputs."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _encode(digits: Sequence[int], p: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


def _monic_divides(p: int, divisor: Sequence[int], target: Sequence[int]) -> bool:
    # synthetic division by a monic divisor; True iff the remainder vanishes
    r = list(target)
    dd = len(divisor) - 1
    for k in range(len(r) - 1, dd - 1, -1):
        c = r[k]
        if c:
            r[k] = 0
            for j in range(dd):
                r[k - dd + j] = (r[k - dd + j] - c * divisor[j]) % p
    return not any(r)


def is_irreducible(p: int, coeffs: Sequence[int]) -> bool:
    """Whether a monic polynomial over F_p is irreducible.

    Trial division against every monic polynomial of degree 1..deg/2.
    coeffs is the coefficient list c_0..c_deg, constant term first, with
    c_deg = 1.  Degree 0 is rejected.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    coeffs = [c % p for c in coeffs]
    deg = len(coeffs) - 1
    if deg < 1:
        raise ValueError("degree must be at least 1")
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    for d in range(1, deg // 2 + 1):
        for t in range(p**d):
            divisor = _digits(t, p, d) + [1]
            if _monic_divides(p, divisor, coeffs):
                return False
    return True


class Field:
    """F_{p^m} presented by a monic irreducible degree-m modulus over F_p.

    Immutable; all operations are pure functions on int encodings, so a
    Field can be shared freely across threads.
    """

    __slots__ = ("p", "m", "q", "modulus")

    def __init__(self, p: int, m: int, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        if modulus is None:
            modulus = _first_irreducible(p, m)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != m + 1:
            raise ValueError(f"modulus must have degree {m}")
        if not is_irreducible(p, modulus):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "q", p**m)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def __reduce__(self):
        # rebuild through __init__; the default slot restore uses setattr
        return (Field, (self.p, self.m, self.modulus))

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"Field(p={self.p}, m={self.m}, modulus={self.modulus})"

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element encoding of {self!r}")
        return a

    def elements(self) -> range:
        """All q encodings in ascending order (determinism contract)."""
        return range(self.q)

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.m == 1:
            return (a + b) % p
        r = 0
        pw = 1
        while a or b:
            r += ((a + b) % p) * pw
            a //= p
            b //= p
            pw *= p
        return r

    def neg(self, a: int) -> int:
        p = self.p
        if self.m == 1:
            return -a % p
        r = 0
        pw = 1
        while a:
            r += (-a % p) * pw
            a //= p
            pw *= p
        return r

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        p = self.p
        if self.m == 1:
            return a * b % p
        if a == 0 or b == 0:
            return 0
        da = _digits(a, p, self.m)
        db = _digits(b, p, self.m)
        prod = [0] * (2 * self.m - 1)
        for i, ai in enumerate(da):
            if ai:
                for j, bj in enumerate(db):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        mod = self.modulus
        for k in range(len(prod) - 1, self.m - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for j in range(self.m):
                    prod[k - self.m + j] = (prod[k - self.m + j] - c * mod[j]) % p
        return _encode(prod[: self.m], p)

    def pow(self, a: int, k: int) -> int:
        """a^k by square-and-multiply, k >= 0 (a^0 = 1, including a = 0)."""
        if k < 0:
            raise ValueError("exponent must be non-negative")
        r = 1
        base = a
        while k:
            if k & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            k >>= 1
        return r

    def inv(self, a: int) -> int:
        """Multiplicative inverse, computed as a^(q-2)."""
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow(a, self.q - 2)

    def scalar(self, c: int) -> int:
        """Embed an integer as a prime-subfield element (c mod p)."""
        return c % self.p


def _first_irreducible(p: int, m: int) -> tuple[int, ...]:
    # scan moduli x^m + c_{m-1} x^{m-1} + ... + c_0 in ascending encoding
    # of (c_0, ..., c_{m-1}); the first irreducible hit is the canonical one
    for t in range(p**m):
        coeffs = tuple(_digits(t, p, m)) + (1,)
        if is_irreducible(p, coeffs):
            return coeffs
    raise RuntimeError(f"no irreducible degree-{m} polynomial over F_{p}")


@lru_cache(maxsize=None)
def build_field(p: int, m: int) -> Field:
    """The canonical F_{p^m}: first irreducible modulus in the digit order.

    Deterministic: repeated calls with equal (p, m) return the identical
    Field (the result is cached).
    """
    return Field(p, m)
