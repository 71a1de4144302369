import copy
import pickle
import random

import pytest

from test_record import SAMPLES

from paircodes.gf import Field, build_field, is_irreducible, is_prime
from paircodes.oracle import verify_family
from paircodes.polyring import RingElement


def test_prime_check():
    assert is_prime(2)
    assert is_prime(13)
    assert not is_prime(1)
    assert not is_prime(9)


def test_build_field_prime_field():
    f2 = build_field(2, 1)
    assert (f2.p, f2.m, f2.q) == (2, 1, 2)
    assert f2.modulus == (0, 1)


def test_build_field_first_irreducible_f4():
    # x^2, x^2+1, x^2+x are reducible over F_2; first irreducible is x^2+x+1
    f4 = build_field(2, 2)
    assert f4.modulus == (1, 1, 1)
    assert f4.q == 4


def test_build_field_first_irreducible_f9():
    # x^2 is reducible; x^2+1 has no root mod 3, so it wins
    f9 = build_field(3, 2)
    assert f9.modulus == (1, 0, 1)
    assert f9.q == 9


def test_build_field_deterministic():
    assert build_field(5, 3).modulus == build_field(5, 3).modulus
    assert build_field(5, 3) == Field(5, 3)


def test_build_field_rejects_bad_input():
    with pytest.raises(ValueError):
        Field(4, 1)
    with pytest.raises(ValueError):
        Field(2, 0)
    with pytest.raises(ValueError):
        Field(2, 2, (1, 0, 1))  # (x+1)^2 over F_2


def test_is_irreducible_examples():
    assert is_irreducible(2, [1, 1, 1])
    assert not is_irreducible(2, [1, 0, 1])
    assert is_irreducible(3, [1, 0, 1])
    with pytest.raises(ValueError):
        is_irreducible(2, [1])  # degree 0
    with pytest.raises(ValueError):
        is_irreducible(2, [1, 0, 2])  # not monic after reduction


def test_add_examples():
    assert build_field(2, 1).add(1, 1) == 0
    assert build_field(2, 2).add(2, 2) == 0
    assert build_field(5, 1).add(3, 4) == 2


def test_mul_examples():
    f4 = build_field(2, 2)
    assert f4.mul(2, 2) == 3  # alpha^2 = alpha + 1 under x^2+x+1
    assert f4.mul(3, 1) == 3
    f9 = build_field(3, 2)
    assert f9.mul(3, 3) == 2  # alpha^2 = -1 = 2 under x^2+1


def test_inv_examples():
    assert build_field(5, 1).inv(2) == 3
    assert build_field(2, 1).inv(1) == 1
    assert build_field(2, 2).inv(2) == 3
    with pytest.raises(ZeroDivisionError):
        build_field(7, 1).inv(0)


def test_neg_sub_pow_examples():
    f3 = build_field(3, 1)
    assert f3.neg(1) == 2
    assert f3.sub(0, 1) == 2
    f4 = build_field(2, 2)
    assert f4.pow(2, 3) == 1  # multiplicative group has order 3
    assert f4.pow(0, 0) == 1
    with pytest.raises(ValueError):
        f4.pow(2, -1)


def test_elements_enumeration():
    f2 = build_field(2, 1)
    assert list(f2.elements()) == [0, 1]
    f9 = build_field(3, 2)
    elems = list(f9.elements())
    assert len(elems) == 9
    assert len(set(elems)) == 9
    assert elems == sorted(elems)


def test_element_range_check():
    f4 = build_field(2, 2)
    assert f4.check(3) == 3
    with pytest.raises(ValueError):
        f4.check(4)
    with pytest.raises(ValueError):
        f4.check(-1)


def test_check_vec_matches_check():
    f4 = build_field(2, 2)
    assert f4.check_vec([3, 0, 1]) == (3, 0, 1)
    assert f4.check_vec(()) == ()
    for bad in ([0, 4, -1], [1, -1, 4], [2, 1.0, 7], [0, "1"], [1, True], [False, 0]):
        first = next(a for a in bad if not (type(a) is int and 0 <= a < 4))
        with pytest.raises(ValueError) as caught:
            f4.check_vec(bad)
        with pytest.raises(ValueError) as expected:
            f4.check(first)
        assert str(caught.value) == str(expected.value)


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]


@pytest.mark.parametrize("p,m", FIELDS)
def test_field_axioms_random_triples(p, m):
    fs = build_field(p, m)
    rng = random.Random(20_000 + fs.q)
    for _ in range(2000):
        a = rng.randrange(fs.q)
        b = rng.randrange(fs.q)
        c = rng.randrange(fs.q)
        assert fs.add(fs.add(a, b), c) == fs.add(a, fs.add(b, c))
        assert fs.mul(fs.mul(a, b), c) == fs.mul(a, fs.mul(b, c))
        assert fs.add(a, b) == fs.add(b, a)
        assert fs.mul(a, b) == fs.mul(b, a)
        assert fs.mul(a, fs.add(b, c)) == fs.add(fs.mul(a, b), fs.mul(a, c))
        assert fs.add(a, fs.neg(a)) == 0
        if a:
            assert fs.mul(a, fs.inv(a)) == 1


@pytest.mark.parametrize("p,m", FIELDS)
def test_frobenius_is_additive(p, m):
    # (a + b)^p = a^p + b^p, exhaustively over the whole field
    fs = build_field(p, m)
    for a in fs.elements():
        for b in fs.elements():
            assert fs.pow(fs.add(a, b), p) == fs.add(fs.pow(a, p), fs.pow(b, p))


def test_field_is_immutable_and_hashable():
    fs = build_field(2, 2)
    with pytest.raises(AttributeError):
        fs.p = 3
    assert hash(fs) == hash(Field(2, 2, (1, 1, 1)))


def test_pickle_and_deepcopy_round_trip():
    f9 = Field(3, 2, (2, 1, 1))  # a non-canonical modulus must survive
    objects = [
        build_field(2, 1),
        f9,
        RingElement(f9, (0, 8, 3)),
        verify_family(2, 2, 2),
        *(record for record, _ in SAMPLES),  # one record of each type
    ]
    for obj in objects:
        for clone in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert clone == obj
    assert pickle.loads(pickle.dumps(f9)).modulus == (2, 1, 1)


# digit-loop reference arithmetic, independent of the package's tables: an
# encoding's base-p digits are its coefficients, constant digit first


def _ref_digits(a, p, m):
    return [a // p**k % p for k in range(m)]


def _ref_encode(digits, p):
    return sum(d * p**k for k, d in enumerate(digits))


def _ref_add(fs, a, b):
    da, db = _ref_digits(a, fs.p, fs.m), _ref_digits(b, fs.p, fs.m)
    return _ref_encode([(x + y) % fs.p for x, y in zip(da, db)], fs.p)


def _ref_neg(fs, a):
    return _ref_encode([-x % fs.p for x in _ref_digits(a, fs.p, fs.m)], fs.p)


def _ref_mul(fs, a, b):
    p, m = fs.p, fs.m
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(_ref_digits(a, p, m)):
        for j, y in enumerate(_ref_digits(b, p, m)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in range(2 * m - 2, m - 1, -1):  # x^m = -(c_0 + ... + c_{m-1} x^{m-1})
        c, prod[k] = prod[k], 0
        for j in range(m):
            prod[k - m + j] = (prod[k - m + j] - c * fs.modulus[j]) % p
    return _ref_encode(prod[:m], p)


REFERENCE_FIELDS = [
    build_field(2, 1),
    build_field(7, 1),
    build_field(2, 2),
    build_field(2, 3),
    build_field(3, 2),
    build_field(2, 4),
    build_field(5, 2),
    build_field(3, 3),
    Field(3, 2, (2, 1, 1)),
    Field(2, 4, (1, 1, 1, 1, 1)),  # x is not primitive: x^5 = 1
]


@pytest.mark.parametrize("fs", REFERENCE_FIELDS, ids=repr)
def test_table_arithmetic_matches_digit_reference(fs):
    elems = list(fs.elements())
    for a in elems:
        assert fs.neg(a) == _ref_neg(fs, a)
        products = {}
        for b in elems:
            assert fs.add(a, b) == _ref_add(fs, a, b)
            assert fs.sub(a, b) == _ref_add(fs, a, _ref_neg(fs, b))
            products[b] = fs.mul(a, b)
            assert products[b] == _ref_mul(fs, a, b)
        assert fs.add_vec(elems, [a] * fs.q) == [fs.add(b, a) for b in elems]
        if a:
            assert products[fs.inv(a)] == 1
        power = 1
        for k in range(2 * fs.q):
            assert fs.pow(a, k) == power
            power = _ref_mul(fs, power, a)


@pytest.mark.parametrize("fs", REFERENCE_FIELDS, ids=repr)
def test_sub_vec_matches_digit_reference(fs):
    elems = list(fs.elements())
    for a in elems:
        assert fs.sub_vec(elems, [a] * fs.q) == [
            _ref_add(fs, b, _ref_neg(fs, a)) for b in elems
        ]
        assert fs.sub_vec([a] * fs.q, elems) == [
            _ref_add(fs, a, _ref_neg(fs, b)) for b in elems
        ]


def test_tables_are_lazy_per_instance_and_not_pickled():
    def built(fs):
        return "_tables" in vars(fs)  # probe the instance dict: a read would build

    default, other = build_field(3, 3), Field(3, 3, (2, 2, 0, 1))
    assert default != other and not built(other)
    assert [other.mul(13, b) for b in other.elements()] != [
        default.mul(13, b) for b in default.elements()
    ]
    assert built(other) and not built(Field(3, 3, (2, 2, 0, 1)))
    # O(q) memory: 4q - 3 exp entries, q - 1 Zech logarithms, q logs and negatives
    assert sum(map(len, vars(other)["_tables"])) == 7 * other.q - 4
    assert not built(pickle.loads(pickle.dumps(other)))
    assert not built(copy.deepcopy(other))
    assert not built(build_field(7, 1)) and build_field(7, 1).mul(3, 5) == 1
