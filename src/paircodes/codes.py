"""The repeated-root cyclic code family C_i = <(x-1)^i> of length p^e.

Over F_{p^m} with n = p^e, every cyclic code of length n is generated by
a power of (x - 1); the generator exponent i in [0, n] determines the
code completely (dimension n - i).  Both the minimum Hamming distance
and the minimum pair distance of C_i are known in closed form as
piecewise functions of i; this module implements those formulas with an
explicit branch label per value so tables stay auditable, plus MDS
symbol-pair classification against the pair-metric Singleton bound.
"""

from __future__ import annotations

from collections.abc import Iterator

from ._record import Record
from .gf import Field, _check_int, _check_prime_power, build_field
from .polyring import Poly, RingElement, _mul_x_minus_one_power, x_minus_one_power


class CodeSpec(Record):
    """Parameters (p, m, e, i) identifying C_i of length p^e over F_{p^m}."""

    p: int
    m: int
    e: int
    i: int

    def __post_init__(self):
        _check_prime_power(self.p, self.m)
        _check_int("e", self.e, 1)
        _check_int("generator exponent", self.i, 0, self.n)

    @property
    def n(self) -> int:
        return self.p**self.e

    @property
    def q(self) -> int:
        return self.p**self.m

    @property
    def dimension(self) -> int:
        return self.n - self.i

    @property
    def size(self) -> int:
        return self.q**self.dimension

    def field(self) -> Field:
        return build_field(self.p, self.m)

    def check(self, field: Field, n: int | None = None) -> Field:
        """field, if it is F_{p^m} under any modulus and n (if given) is p^e."""
        if (field.p, field.m) != (self.p, self.m):
            raise ValueError("field does not match the code parameters")
        if n is not None and n != self.n:
            raise ValueError(f"length mismatch: {n} vs {self.n}")
        return field


class DistanceRecord(Record):
    """One distance-table row: closed-form values for a single i."""

    i: int
    dimension: int
    d_hamming: int
    d_pair: int
    branch: str
    mds_pair: bool


def generator(spec: CodeSpec, field: Field | None = None) -> RingElement:
    """The generator (x - 1)^i as a length-n vector."""
    return x_minus_one_power(spec.check(field or spec.field()), spec.i, spec.n)


def digit_vectors(spec: CodeSpec) -> Iterator[tuple[int, ...]]:
    """The rotations x^b * g of g = (x - 1)^i, b below the dimension.

    A basis of C_i over F_q and over F_p: encode(f) combines them with
    the coefficients of f.  g is over F_p, so no rotation depends on the
    modulus that presents F_{p^m}.  g is expanded at the call; each
    rotation is built only when it is read, b ascending.
    """
    n = spec.n
    gen = generator(spec).coeffs
    return (gen[n - b:] + gen[:n - b] for b in range(spec.dimension))


def encode(spec: CodeSpec, message: Poly) -> RingElement:
    """message * (x - 1)^i in the quotient ring; injective on messages.

    The message degree must be below the code dimension (zero message
    allowed); that range makes encoding a bijection onto the code.
    """
    field = spec.check(message.field)
    if message.degree >= spec.dimension:
        raise ValueError(
            f"message degree {message.degree} too large for dimension {spec.dimension}"
        )
    word = message.coeffs + (0,) * (spec.n - len(message.coeffs))
    return RingElement(field, tuple(_mul_x_minus_one_power(field, word, spec.i)))


def contains(spec: CodeSpec, v: RingElement) -> bool:
    """Membership: (x - 1)^i divides the degree-< n lift of v.

    In characteristic p, x^n - 1 = (x - 1)^n for n = p^e, so v lies in
    <(x - 1)^i> iff v * (x - 1)^(n - i) is zero in the ring: the encode
    kernel, s_p(n - i) rotate-and-subtract passes.
    """
    field = spec.check(v.field, v.n)
    return not any(_mul_x_minus_one_power(field, v.coeffs, spec.n - spec.i))


def _hamming_branches(p: int, e: int, i: int):
    n = p**e
    if i == 0:
        yield 1, "1"
    if i == n:
        yield 0, "0"
    for beta in range(0, p - 1):
        if beta * p ** (e - 1) + 1 <= i <= (beta + 1) * p ** (e - 1):
            yield beta + 2, f"beta+2[beta={beta}]"
    for k in range(1, e):
        for t in range(1, p):
            lo = n - p ** (e - k) + (t - 1) * p ** (e - k - 1) + 1
            hi = n - p ** (e - k) + t * p ** (e - k - 1)
            if lo <= i <= hi:
                yield (t + 1) * p**k, f"(t+1)p^k[t={t},k={k}]"


def hamming_branch(spec: CodeSpec) -> tuple[int, str]:
    """Closed-form minimum Hamming distance with its branch label.

    The branch ranges partition [0, p^e]; hitting zero or several is an
    internal error (a transcription tripwire), never a caller mistake.
    """
    matches = list(_hamming_branches(spec.p, spec.e, spec.i))
    if len(matches) != 1:
        raise AssertionError(
            f"Hamming branches must partition [0, n]; i={spec.i} hit {matches}"
        )
    return matches[0]


def closed_form_hamming_distance(spec: CodeSpec) -> int:
    return hamming_branch(spec)[0]


def _pair_branches(p: int, e: int, i: int):
    n = p**e
    if i == n:
        yield 0, "0"
        return
    if n == 2 and i == 1:
        # n = 2 caps the pair distance at 2; handled before the e = 1 rule
        yield 2, "n=2"
        return
    if e == 1:
        if 0 <= i <= p - 2:
            yield i + 2, "i+2"
        if i == p - 1:
            yield p, "p"
        return
    if i == 0:
        yield 2, "2"
    if i == 1:
        yield 3, "3"
    if 2 <= i <= p ** (e - 1):
        yield 4, "4"
    for beta in range(1, p - 1):
        if beta * p ** (e - 1) + 1 <= i <= (beta + 1) * p ** (e - 1):
            yield 2 * (beta + 2), f"2(beta+2)[beta={beta}]"
    for k in range(1, e - 1):
        base = n - p ** (e - k)
        if i == base + 1:
            yield 3 * p**k, f"3p^k[k={k}]"
        if base + 2 <= i <= base + p ** (e - k - 1):
            yield 4 * p**k, f"4p^k[k={k}]"
        for beta in range(1, p - 1):
            lo = base + beta * p ** (e - k - 1) + 1
            hi = base + (beta + 1) * p ** (e - k - 1)
            if lo <= i <= hi:
                yield 2 * (beta + 2) * p**k, f"2(beta+2)p^k[k={k},beta={beta}]"
    for j in range(0, p - 1):
        if i == n - p + j:
            yield (j + 2) * p ** (e - 1), f"(j+2)p^(e-1)[j={j}]"
    if i == n - 1:
        yield n, "p^e"


def pair_branch(spec: CodeSpec) -> tuple[int, str]:
    """Closed-form minimum pair distance with its branch label.

    The piecewise ranges genuinely overlap at a few boundary exponents;
    every branch that fires must agree on the value, and disagreement is
    an internal error rather than a silently-picked winner.
    """
    matches = list(_pair_branches(spec.p, spec.e, spec.i))
    if not matches:
        raise AssertionError(f"no pair-distance branch matched i={spec.i}")
    values = {value for value, _ in matches}
    if len(values) != 1:
        raise AssertionError(
            f"overlapping pair-distance branches disagree at i={spec.i}: {matches}"
        )
    return matches[0]


def closed_form_pair_distance(spec: CodeSpec) -> int:
    return pair_branch(spec)[0]


def _meets_singleton(d_pair: int, i: int) -> bool:
    """The pair-metric Singleton equality d_p = i + 2 (false for the zero code)."""
    return d_pair == i + 2


def is_mds_pair(spec: CodeSpec) -> bool:
    """Whether C_i meets the pair-metric Singleton bound with equality.

    The bound M <= q^(n - d_p + 2) holds for 2 <= d_p <= n; with
    M = q^(n-i) equality is the integer identity d_p = i + 2.  The zero
    code (i = p^e, d_p = 0) sits outside the bound's hypothesis and is
    rejected.
    """
    if spec.i == spec.n:
        raise ValueError("the zero code is excluded from MDS classification")
    return _meets_singleton(pair_branch(spec)[0], spec.i)


def distance_table(p: int, e: int, m: int) -> list[DistanceRecord]:
    """Closed-form records for every i in [0, p^e]."""
    records = []
    for i in range(CodeSpec(p, m, e, 0).n + 1):
        spec = CodeSpec(p, m, e, i)
        d_h = closed_form_hamming_distance(spec)
        d_p, branch = pair_branch(spec)
        mds = _meets_singleton(d_p, i)
        records.append(DistanceRecord(i, spec.dimension, d_h, d_p, branch, mds))
    return records
