"""Exact arithmetic in F_p and F_{p^m}.

Field elements are plain ints in [0, p^m).  The base-p digits of the
encoding are the coefficients of the element in the polynomial basis
{1, x, ..., x^{m-1}}, constant digit least significant.  Encoding 0 is
the additive identity, encoding 1 the multiplicative identity, and for
m = 1 arithmetic is just integers mod p.

For m > 1 every operation is a table lookup.  With Q = q - 1 and g the
primitive element of smallest encoding, a Field's _tables are four lists:

* log[a] = k with g^k = a for a != 0, and log[0] = 2Q;
* exp[k] = g^(k mod Q) for 0 <= k < 2Q and 0 for 2Q <= k <= 4Q, so
  a * b = exp[log[a] + log[b]] holds with either factor zero too;
* zech[d] = log(1 + g^d) for 0 <= d < Q (2Q where 1 + g^d = 0), the
  Zech logarithms: a + b = g^la (1 + g^(lb - la)) for nonzero a, b, and a
  negative lb - la indexes zech modulo Q as Python lists do;
* neg[a] = -a.

For p = 2, adding base-2 digits without carries is a ^ b, which add and
add_vec use in place of zech (add_vec for m = 1 too).  sub_vec is the
same XOR for p = 2, a compare-add for m = 1, and add_vec after neg
otherwise.

That is 7q + O(1) entries, never q^2, so any field whose elements can be
listed fits.  _tables is a functools.cached_property: the first read
builds the tables into the instance dict, not at import nor in
build_field, and every method branches on m == 1 before it reads them.
Field is a Record, so it pickles and copies as Field(p, m, modulus) and
the tables stay out.  The base-p digit loop _digit_mul only fills exp;
log, zech and neg are read off it.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from functools import cached_property, lru_cache
from itertools import repeat

from ._record import Record


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


def _check_int(what: str, value, low=None, high=None) -> None:
    """Raise unless value is a non-bool int in [low, high]; a None end is open."""
    if isinstance(value, int) and not isinstance(value, bool):
        if (low is None or low <= value) and (high is None or value <= high):
            return
    bound = "" if low is None else f" >= {low}"
    if high is not None:
        bound = f" in [{low}, {high}]"
    raise ValueError(f"{what} must be an integer{bound}, got {value!r}")


def _check_prime_power(p: int, m: int) -> None:
    """Raise ValueError unless F_{p^m} exists: p a prime int, m an int >= 1."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be a prime integer, got {p}")
    _check_int("extension degree", m, 1)


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


def _reduce(p: int, monic: Sequence[int], coeffs: Sequence[int]) -> list[int]:
    # remainder of coeffs modulo a monic polynomial over F_p, by synthetic division
    r = list(coeffs)
    dd = len(monic) - 1
    for k in range(len(r) - 1, dd - 1, -1):
        c = r[k]
        if c:
            for j in range(dd):
                r[k - dd + j] = (r[k - dd + j] - c * monic[j]) % p
    return r[:dd]


def is_irreducible(p: int, coeffs: Sequence[int]) -> bool:
    """Whether a monic polynomial over F_p is irreducible.

    Trial division against every monic polynomial of degree 1..deg/2.
    coeffs is the coefficient list c_0..c_deg, constant term first, with
    c_deg = 1.  Degree 0 is rejected.
    """
    deg = len(coeffs) - 1
    _check_prime_power(p, deg)
    if not all(map(isinstance, coeffs, repeat(int))):
        raise ValueError(f"coefficients must be ints, got {coeffs!r}")
    coeffs = [c % p for c in coeffs]
    if coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    for d in range(1, deg // 2 + 1):
        for t in range(p**d):
            divisor = _digits(t, p, d) + [1]
            if not any(_reduce(p, divisor, coeffs)):
                return False
    return True


def _digit_mul(p: int, modulus: Sequence[int], a: int, b: int) -> int:
    # schoolbook product of the digit polynomials, reduced by the modulus
    m = len(modulus) - 1
    da = _digits(a, p, m)
    db = _digits(b, p, m)
    prod = [0] * (2 * m - 1)
    for i, ai in enumerate(da):
        if ai:
            for j, bj in enumerate(db):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _encode(_reduce(p, modulus, prod), p)


def _build_tables(p: int, modulus: Sequence[int]) -> tuple[list[int], ...]:
    """(exp, log, zech, neg) for F_p[x]/(modulus); see the module docstring."""
    q = p ** (len(modulus) - 1)
    big_q = q - 1
    for g in range(2, q):
        powers = [1]
        a = g
        while a != 1:
            powers.append(a)
            a = _digit_mul(p, modulus, a, g)
        if len(powers) == big_q:
            break
    log = [2 * big_q] * q
    for k, a in enumerate(powers):
        log[a] = k
    exp = powers + powers + [0] * (2 * big_q + 1)
    zech = [log[a - a % p + (a + 1) % p] for a in powers]  # 1 + a: constant digit + 1
    neg = [exp[log[a] + log[p - 1]] for a in range(q)]  # a * (-1); log[0] reads a 0
    return exp, log, zech, neg


class Field(Record):
    """F_{p^m} presented by a monic irreducible degree-m modulus over F_p.

    Immutable; all operations are pure functions on int encodings, so a
    Field can be shared freely across threads (two threads that race to
    build the tables build equal ones).
    """

    p: int
    m: int
    modulus: tuple[int, ...] | None = None

    def __post_init__(self):
        p, m, modulus = self.p, self.m, self.modulus
        _check_prime_power(p, m)
        if modulus is None:
            modulus = _first_irreducible(p, m)
        modulus = tuple(modulus)
        if not all(map(isinstance, modulus, repeat(int))):
            raise ValueError(f"modulus coefficients must be ints, got {modulus!r}")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != m + 1:
            raise ValueError(f"modulus must have degree {m}")
        if not is_irreducible(p, modulus):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "q", p**m)

    @cached_property
    def _tables(self) -> tuple[list[int], ...]:
        return _build_tables(self.p, self.modulus)

    def check(self, a: int) -> int:
        if type(a) is not int or not 0 <= a < self.q:
            raise ValueError(f"{a!r} is not an element encoding of {self!r}")
        return a

    def check_vec(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        """coeffs as a tuple if every entry passes check, else check's error."""
        coeffs = tuple(coeffs)
        if set(map(type, coeffs)) <= {int} and (
            not coeffs or 0 <= min(coeffs) and max(coeffs) < self.q
        ):
            return coeffs
        return tuple(map(self.check, coeffs))  # raises at the first bad entry

    def elements(self) -> range:
        """All q encodings in ascending order (determinism contract)."""
        return range(self.q)

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        exp, log, zech, _ = self._tables
        la = log[a]
        return exp[la + zech[log[b] - la]]

    def add_vec(self, u: Sequence[int], v: Sequence[int]) -> list[int]:
        """Elementwise u + v of two equal-length sequences."""
        if self.p == 2:
            return list(map(operator.xor, u, v))
        if self.m == 1:
            p = self.p  # a + b < 2p for encodings; a compare beats a % here
            return [s - p if s >= p else s for s in map(operator.add, u, v)]
        exp, log, zech, _ = self._tables
        return [
            exp[log[a] + zech[log[b] - log[a]]] if a and b else a or b
            for a, b in zip(u, v)
        ]

    def sub_vec(self, u: Sequence[int], v: Sequence[int]) -> list[int]:
        """Elementwise u - v of two equal-length sequences."""
        if self.p == 2:
            return list(map(operator.xor, u, v))
        if self.m == 1:
            p = self.p
            return [d + p if d < 0 else d for d in map(operator.sub, u, v)]
        return self.add_vec(u, map(self._tables[3].__getitem__, v))  # neg

    def neg(self, a: int) -> int:
        if self.m == 1:
            return -a % self.p
        return self._tables[3][a]  # neg

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        return self.add(a, self._tables[3][b])  # neg

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        exp, log, _, _ = self._tables
        return exp[log[a] + log[b]]

    def pow(self, a: int, k: int) -> int:
        """a^k for k >= 0 (a^0 = 1, including a = 0)."""
        _check_int("exponent", k, 0)
        if self.m == 1:
            return pow(a, k, self.p)
        if k == 0:
            return 1
        if a == 0:
            return 0
        exp, log, _, _ = self._tables
        return exp[log[a] * k % (self.q - 1)]

    def inv(self, a: int) -> int:
        """Multiplicative inverse."""
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow(a, self.q - 2)


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
