import random

import pytest

from paircodes.gf import build_field
from paircodes.polyring import (
    NEG_INF,
    Poly,
    RingElement,
    _frobenius_strides,
    _mul_x_minus_one_power,
    cyclic_shift,
    ring_one,
    vector,
    x_minus_one_power,
    zero_ring_element,
)

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F5 = build_field(5, 1)


def test_poly_normalizes_trailing_zeros():
    p = Poly(F3, (1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    zero = Poly(F3, (0, 0))
    assert zero.coeffs == ()
    assert zero.degree == NEG_INF
    assert zero.is_zero()


def test_poly_mul_example_f3():
    # (x+1)(x+2) = x^2 + 3x + 2 = x^2 + 2 over F_3
    a = Poly(F3, (1, 1))
    b = Poly(F3, (2, 1))
    assert (a * b).coeffs == (2, 0, 1)


def test_poly_mul_by_zero():
    a = Poly(F5, (3, 1, 4))
    assert (a * Poly(F5, ())).is_zero()


def test_poly_add_sub():
    a = Poly(F3, (1, 2, 1))
    b = Poly(F3, (2, 1, 2))
    assert (a + b).is_zero()
    assert (a - a).is_zero()


def test_poly_divrem_example_f2():
    # x^2 + 1 = (x+1)^2 over F_2
    num = Poly(F2, (1, 0, 1))
    den = Poly(F2, (1, 1))
    q, r = num.divrem(den)
    assert q.coeffs == (1, 1)
    assert r.is_zero()


def test_poly_divrem_property():
    rng = random.Random(7)
    for _ in range(200):
        a = Poly(F5, tuple(rng.randrange(5) for _ in range(rng.randrange(8))))
        b = Poly(F5, tuple(rng.randrange(5) for _ in range(1 + rng.randrange(4))))
        if b.is_zero():
            continue
        q, r = a.divrem(b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_poly_divrem_by_zero():
    with pytest.raises(ZeroDivisionError):
        Poly(F2, (1,)).divrem(Poly(F2, ()))


def test_to_ring_wraps_indices():
    # x^4 reduces to x at n = 3
    p = Poly(F2, (0, 0, 0, 0, 1))
    assert p.to_ring(3).coeffs == (0, 1, 0)


def test_ring_mul_examples():
    # n=3 over F_2: x^2 * x^2 = x^4 = x
    x2 = vector(F2, (0, 0, 1))
    assert (x2 * x2).coeffs == (0, 1, 0)
    # multiplication by one
    a = vector(F3, (1, 2, 0, 1))
    assert (a * ring_one(F3, 4)).coeffs == a.coeffs
    # n=4 over F_3: (x-1)(x^3+x^2+x+1) = x^4 - 1 = 0
    xm1 = vector(F3, (2, 1, 0, 0))
    allp = vector(F3, (1, 1, 1, 1))
    assert (xm1 * allp).is_zero()


def test_ring_mul_commutative_associative():
    rng = random.Random(13)
    for _ in range(100):
        a = vector(F3, tuple(rng.randrange(3) for _ in range(5)))
        b = vector(F3, tuple(rng.randrange(3) for _ in range(5)))
        c = vector(F3, tuple(rng.randrange(3) for _ in range(5)))
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs


def test_ring_length_mismatch():
    with pytest.raises(ValueError):
        vector(F2, (1, 0)) * vector(F2, (1, 0, 0))
    with pytest.raises(ValueError):
        RingElement(F2, ())


def test_x_minus_one_power_examples():
    assert x_minus_one_power(F3, 8, 9).coeffs == (1,) * 9
    assert x_minus_one_power(F3, 3, 9).coeffs == (2, 0, 0, 1, 0, 0, 0, 0, 0)
    assert x_minus_one_power(F5, 0, 25).coeffs == (1,) + (0,) * 24
    assert x_minus_one_power(F3, 9, 9).is_zero()


def test_x_minus_one_power_validation():
    with pytest.raises(ValueError):
        x_minus_one_power(F3, 10, 9)
    with pytest.raises(ValueError):
        x_minus_one_power(F3, -1, 9)
    with pytest.raises(ValueError):
        x_minus_one_power(F3, 2, 6)  # 6 is not a power of 3


@pytest.mark.parametrize("p,m,e", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 1)])
def test_binomial_path_matches_repeated_multiplication(p, m, e):
    fs = build_field(p, m)
    n = p**e
    xm1 = Poly(fs, (fs.neg(1), 1)).to_ring(n)
    acc = ring_one(fs, n)
    for i in range(n + 1):
        assert x_minus_one_power(fs, i, n).coeffs == acc.coeffs, f"i={i}"
        acc = acc * xm1


@pytest.mark.parametrize("p,e", [(2, 4), (3, 3), (5, 2)])
def test_freshmans_dream_support(p, e):
    # (x-1)^(p^k) has exactly two nonzero coefficients: -1 at 0 and 1 at p^k
    fs = build_field(p, 1)
    n = p**e
    for k in range(e):
        v = x_minus_one_power(fs, p**k, n).coeffs
        support = [j for j, c in enumerate(v) if c]
        assert support == ([0, p**k] if p**k < n else [0])
        if p**k < n:
            assert v[0] == fs.neg(1)
            assert v[p**k] == 1


@pytest.mark.parametrize("p,e", [(2, 4), (3, 3), (5, 2)])
def test_frobenius_factors_match_binomial_expansion(p, e):
    # prod_k (x^(p^k) - 1)^(i_k) applied to 1 is (x - 1)^i, for every i
    fs = build_field(p, 1)
    n = p**e
    for i in range(n + 1):
        strides = list(_frobenius_strides(p, i))
        assert sum(strides) == i
        assert set(strides) <= {p**k for k in range(e + 1)}
        word = _mul_x_minus_one_power(fs, ring_one(fs, n).coeffs, i)
        assert tuple(word) == x_minus_one_power(fs, i, n).coeffs, f"i={i}"


def test_cyclic_shift():
    v = vector(F3, (1, 2, 0, 0))
    assert cyclic_shift(v, 0).coeffs == v.coeffs
    assert cyclic_shift(v, 4).coeffs == v.coeffs
    assert cyclic_shift(v, 1).coeffs == (0, 1, 2, 0)
    assert cyclic_shift(v, -1).coeffs == (2, 0, 0, 1)


def test_lift_round_trip():
    v = vector(F3, (1, 0, 2, 0))
    assert v.lift().coeffs == (1, 0, 2)
    assert v.lift().to_ring(4).coeffs == v.coeffs


def test_scale_and_neg():
    v = vector(F5, (1, 3, 0, 2))
    assert v.scale(2).coeffs == (2, 1, 0, 4)
    assert (v + (-v)).is_zero()
    assert zero_ring_element(F5, 4).is_zero()


@pytest.mark.parametrize("p, m, s", [
    (3, 1, 3), (3, 1, 5), (3, 1, -1), (3, 1, 1.0), (3, 1, "1"),
    (2, 2, 4), (2, 2, 7), (2, 2, -1), (2, 2, 2.0), (2, 2, None),
])
def test_scale_rejects_non_elements(p, m, s):
    with pytest.raises(ValueError):
        vector(build_field(p, m), (1, 2, 0)).scale(s)
