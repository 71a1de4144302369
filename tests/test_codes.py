import itertools
import random

import pytest

from test_acceptance import FAMILY_GRID

from paircodes.codes import (
    CodeSpec,
    closed_form_hamming_distance,
    closed_form_pair_distance,
    contains,
    digit_vectors,
    distance_table,
    encode,
    generator,
    hamming_branch,
    is_mds_pair,
    pair_branch,
)
from paircodes.cli import TABLE_COLUMNS
from paircodes.gf import Field, build_field, is_irreducible
from paircodes.pairmetrics import pair_weight
from paircodes.polyring import Poly, ring_one, vector, zero_ring_element


def test_code_spec_validation_and_derived():
    spec = CodeSpec(3, 1, 2, 4)
    assert spec.n == 9
    assert spec.q == 3
    assert spec.dimension == 5
    assert spec.size == 3**5
    with pytest.raises(ValueError):
        CodeSpec(4, 1, 2, 0)
    with pytest.raises(ValueError):
        CodeSpec(3, 1, 2, 10)
    with pytest.raises(ValueError):
        CodeSpec(3, 0, 2, 1)
    # check takes F_{p^m} under any modulus, and the length p^e when given
    spec = CodeSpec(3, 2, 1, 1)
    assert spec.check(build_field(3, 2), 3) == build_field(3, 2)
    assert spec.check(Field(3, 2, (2, 1, 1))) == Field(3, 2, (2, 1, 1))
    for field in (build_field(3, 1), build_field(2, 2), build_field(3, 3)):
        with pytest.raises(ValueError, match="does not match"):
            spec.check(field)
    with pytest.raises(ValueError, match="length mismatch: 9 vs 3"):
        spec.check(build_field(3, 2), 9)


def test_generator_examples():
    assert generator(CodeSpec(3, 1, 2, 0)).coeffs == ring_one(build_field(3, 1), 9).coeffs
    assert generator(CodeSpec(3, 1, 2, 9)).is_zero()
    assert generator(CodeSpec(3, 1, 2, 8)).coeffs == (1,) * 9


def test_generator_rejects_a_field_that_does_not_fit_the_code():
    spec = CodeSpec(2, 1, 2, 1)
    for field in (build_field(2, 2), build_field(3, 1)):
        with pytest.raises(ValueError, match="does not match"):
            generator(spec, field)
    # any modulus of F_{p^m} fits
    assert generator(CodeSpec(3, 2, 1, 1), Field(3, 2, (2, 1, 1))).coeffs == (2, 1, 0)
    assert len(list(digit_vectors(spec))) == 3


def test_encode_examples():
    spec = CodeSpec(3, 1, 2, 7)
    fs = spec.field()
    assert encode(spec, Poly(fs, ())).is_zero()
    assert encode(spec, Poly(fs, (1,))).coeffs == generator(spec).coeffs
    # (x - 1) * (x-1)^7 = (x-1)^8 = all-ones
    assert encode(spec, Poly(fs, (2, 1))).coeffs == (1,) * 9


def test_encode_rejects_large_messages():
    spec = CodeSpec(3, 1, 2, 7)  # dimension 2
    fs = spec.field()
    with pytest.raises(ValueError):
        encode(spec, Poly(fs, (0, 0, 1)))
    with pytest.raises(ValueError):  # a message over F_9 for a code over F_3
        encode(spec, Poly(build_field(3, 2), (1,)))


def test_encode_injective_exhaustive():
    spec = CodeSpec(2, 1, 3, 5)  # dimension 3 over F_2
    fs = spec.field()
    seen = set()
    for digits in itertools.product(range(2), repeat=3):
        cw = encode(spec, Poly(fs, digits))
        assert contains(spec, cw)
        seen.add(cw.coeffs)
    assert len(seen) == 8


def test_contains_examples():
    spec = CodeSpec(3, 1, 2, 4)
    fs = spec.field()
    assert contains(spec, zero_ring_element(fs, 9))
    assert contains(spec, generator(spec))
    one = ring_one(fs, 9)
    for i in range(1, 10):
        assert not contains(CodeSpec(3, 1, 2, i), one)
    with pytest.raises(ValueError):
        contains(spec, vector(fs, (1, 0)))
    with pytest.raises(ValueError):
        contains(spec, zero_ring_element(build_field(3, 2), 9))


def _taylor_zeros(v):
    # how many leading Taylor coefficients at x = 1 vanish, by Poly.divrem
    fs = v.field
    x_minus_one = Poly(fs, (fs.neg(1), 1))
    cur, zeros = v.lift(), 0
    while zeros < v.n:
        cur, rem = cur.divrem(x_minus_one)
        if not rem.is_zero():
            break
        zeros += 1
    return zeros


@pytest.mark.parametrize(
    "p,m,e", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3), (3, 2, 1)]
)
def test_contains_matches_divrem_reference_exhaustive(p, m, e):
    fs = build_field(p, m)
    n = p**e
    specs = [CodeSpec(p, m, e, i) for i in range(n + 1)]
    for coeffs in itertools.product(fs.elements(), repeat=n):
        v = vector(fs, coeffs)
        zeros = _taylor_zeros(v)
        assert [contains(spec, v) for spec in specs] == [
            spec.i <= zeros for spec in specs
        ]


# (p, e, field): the acceptance grid's fields, GF(8), GF(16) and a
# non-canonical modulus of GF(9)
CROSS_CHECK_CODES = [(p, e, build_field(p, m)) for p, e, m in FAMILY_GRID] + [
    (2, 2, build_field(2, 3)),
    (2, 3, build_field(2, 4)),
    (3, 2, Field(3, 2, (2, 1, 1))),
]


def _random_coeffs(rng, fs, length):
    return tuple(rng.randrange(fs.q) for _ in range(length))


@pytest.mark.parametrize("p,e,fs", CROSS_CHECK_CODES, ids=repr)
def test_encode_matches_ring_product_with_generator(p, e, fs):
    rng = random.Random(f"encode/{p}/{e}/{fs!r}")
    for i in range(p**e + 1):
        spec = CodeSpec(p, fs.m, e, i)
        gen = generator(spec, fs)
        for _ in range(4):
            f = Poly(fs, _random_coeffs(rng, fs, spec.dimension))
            assert encode(spec, f) == f.to_ring(spec.n) * gen, (spec, f)


@pytest.mark.parametrize("p,e,fs", CROSS_CHECK_CODES, ids=repr)
def test_digit_vectors_match_per_element_reference(p, e, fs):
    # rotation b of the generator is gen[(k - b) % n], element by element
    n = p**e
    for i in range(n + 1):
        spec = CodeSpec(p, fs.m, e, i)
        gen = generator(spec, fs).coeffs
        reference = [
            tuple(gen[(k - b) % n] for k in range(n)) for b in range(spec.dimension)
        ]
        assert list(digit_vectors(spec)) == reference, spec


@pytest.mark.parametrize("p,e,fs", CROSS_CHECK_CODES, ids=repr)
def test_contains_matches_taylor_reference(p, e, fs):
    # codewords of C_i, codewords plus one error, and codewords of C_{i-1}
    rng = random.Random(f"contains/{p}/{e}/{fs!r}")
    n = p**e
    for i in range(n + 1):
        spec = CodeSpec(p, fs.m, e, i)
        words = []
        for j in (i, i - 1):
            if j >= 0:
                message = Poly(fs, _random_coeffs(rng, fs, n - j))
                words.append(encode(CodeSpec(p, fs.m, e, j), message))
        error = [0] * n
        error[rng.randrange(n)] = rng.randrange(1, fs.q)
        words.append(words[0] + vector(fs, error))
        for v in words:
            assert contains(spec, v) == (i <= _taylor_zeros(v)), (spec, v)


def irreducible_moduli(p, m):
    """Every monic irreducible degree-m modulus over F_p, constant term first."""
    candidates = (c + (1,) for c in itertools.product(range(p), repeat=m))
    return [c for c in candidates if is_irreducible(p, c)]


@pytest.mark.parametrize("p,m,e", [(2, 2, 2), (2, 3, 2), (3, 2, 1), (2, 4, 2), (5, 2, 1)])
def test_codes_do_not_depend_on_the_modulus(p, m, e):
    # the generator has F_p coefficients and an F_p multiple scales base-p
    # digits mod p, so encode, generator and contains read the same digit
    # tuples under every presentation of F_{p^m}
    canonical = build_field(p, m)
    n = p**e
    rng = random.Random(f"modulus/{p}/{m}/{e}")
    moduli = irreducible_moduli(p, m)
    assert canonical.modulus in moduli  # GF(4) has no other; the rest do
    for i in range(n + 1):
        spec = CodeSpec(p, m, e, i)
        messages = [_random_coeffs(rng, canonical, spec.dimension) for _ in range(4)]
        words = [_random_coeffs(rng, canonical, n) for _ in range(4)]
        words += [encode(spec, Poly(canonical, f)).coeffs for f in messages]
        for modulus in moduli:
            fs = Field(p, m, modulus)
            assert generator(spec, fs).coeffs == generator(spec).coeffs, (spec, fs)
            for f in messages:
                got = encode(spec, Poly(fs, f)).coeffs
                assert got == encode(spec, Poly(canonical, f)).coeffs, (spec, fs, f)
            for w in words:
                got = contains(spec, vector(fs, w))
                assert got == contains(spec, vector(canonical, w)), (spec, fs, w)


@pytest.mark.parametrize("p,m,e,i", [(2, 1, 12, 2047), (3, 1, 7, 1500)])
def test_large_code_round_trip(p, m, e, i):
    spec = CodeSpec(p, m, e, i)
    fs = spec.field()
    rng = random.Random(f"large/{spec}")
    word = encode(spec, Poly(fs, _random_coeffs(rng, fs, spec.dimension)))
    assert contains(spec, word)
    error = [0] * spec.n
    error[rng.randrange(spec.n)] = rng.randrange(1, fs.q)
    assert not contains(spec, word + vector(fs, error))


def test_closed_form_hamming_examples():
    assert closed_form_hamming_distance(CodeSpec(3, 1, 2, 0)) == 1
    assert closed_form_hamming_distance(CodeSpec(3, 1, 2, 4)) == 3
    assert closed_form_hamming_distance(CodeSpec(3, 1, 2, 8)) == 9
    assert closed_form_hamming_distance(CodeSpec(2, 1, 3, 7)) == 8
    assert closed_form_hamming_distance(CodeSpec(3, 1, 2, 9)) == 0


def test_closed_form_pair_examples():
    assert closed_form_pair_distance(CodeSpec(3, 1, 2, 1)) == 3
    assert closed_form_pair_distance(CodeSpec(3, 1, 2, 5)) == 6
    assert closed_form_pair_distance(CodeSpec(2, 1, 3, 5)) == 6
    assert closed_form_pair_distance(CodeSpec(5, 1, 1, 3)) == 5
    assert closed_form_pair_distance(CodeSpec(3, 1, 2, 7)) == 9


def test_distance_table_columns():
    assert [r.d_pair for r in distance_table(3, 2, 1)] == [2, 3, 4, 4, 6, 6, 6, 9, 9, 0]
    assert [r.d_pair for r in distance_table(2, 3, 1)] == [2, 3, 4, 4, 4, 6, 8, 8, 0]
    assert [r.d_pair for r in distance_table(2, 1, 1)] == [2, 2, 0]
    assert [r.d_pair for r in distance_table(5, 1, 1)] == [2, 3, 4, 5, 5, 0]
    assert [r.d_hamming for r in distance_table(3, 2, 1)] == [1, 2, 2, 2, 3, 3, 3, 6, 9, 0]
    assert [r.d_pair for r in distance_table(2, 4, 1)] == [
        2, 3, 4, 4, 4, 4, 4, 4, 4, 6, 8, 8, 8, 12, 16, 16, 0,
    ]
    with pytest.raises(ValueError):
        distance_table(2, -1, 1)


def test_distance_table_is_independent_of_m():
    # the closed forms depend only on (p, e)
    t1 = [(r.d_hamming, r.d_pair) for r in distance_table(2, 2, 1)]
    t2 = [(r.d_hamming, r.d_pair) for r in distance_table(2, 2, 2)]
    assert t1 == t2


PRIMES = (2, 3, 5, 7, 11, 13)


def test_branch_totality_and_agreement():
    # every i gets exactly one Hamming value and one consistent pair value
    for p in PRIMES:
        for e in range(1, 5):
            for i in range(p**e + 1):
                spec = CodeSpec(p, 1, e, i)
                hamming_branch(spec)
                pair_branch(spec)


def test_pair_distance_monotone_in_i():
    for p in PRIMES:
        for e in range(1, 5):
            values = [
                closed_form_pair_distance(CodeSpec(p, 1, e, i))
                for i in range(p**e)
            ]
            assert values == sorted(values)


def test_sandwich_on_closed_forms():
    for p in PRIMES:
        for e in range(1, 5):
            n = p**e
            for i in range(n + 1):
                spec = CodeSpec(p, 1, e, i)
                d_h = closed_form_hamming_distance(spec)
                d_p = closed_form_pair_distance(spec)
                if 0 < d_h < n:
                    assert d_h + 1 <= d_p <= 2 * d_h, (p, e, i)
                elif d_h == n:
                    assert d_p == n
                assert (d_p == 0) == (i == n)
                if n > 2:
                    # at n = 2 the cap d_p <= n makes i = 1 reach 2 as well
                    assert (d_p == 2) == (i == 0)


def test_generator_weight_witnesses():
    # minimum-achieving generators measured on the actual expansions
    for p, e in [(3, 2), (5, 2)]:
        for beta in range(0, p - 1):
            spec = CodeSpec(p, 1, e, (beta + 1) * p ** (e - 1))
            assert pair_weight(generator(spec)) == 2 * (beta + 2)
    for p, e in [(2, 3), (3, 3)]:
        for k in range(1, e):
            spec = CodeSpec(p, 1, e, p**e - p ** (e - k))
            assert pair_weight(generator(spec)) == 2 * p**k
    for p, e in [(3, 2), (5, 2)]:
        for j in range(0, p - 1):
            spec = CodeSpec(p, 1, e, p**e - p + j)
            assert pair_weight(generator(spec)) == (j + 2) * p ** (e - 1)
    for p, e, k in [(2, 3, 1), (3, 3, 1)]:
        spec = CodeSpec(p, 1, e, p**e - p ** (e - k) + p ** (e - k - 1))
        assert pair_weight(generator(spec)) == 4 * p**k


def test_mds_pair_e1():
    for p in (2, 3, 5, 7):
        flags = [is_mds_pair(CodeSpec(p, 1, 1, i)) for i in range(p)]
        assert flags == [True] * (p - 1) + [False]


def test_mds_pair_e_ge_2():
    # Singleton equality d_p = i + 2 solved across all branches; beyond
    # {0, 1, 2} it also holds at i = p^e - 2 (dimension-2 codes reach
    # d_p = n) and, for (p, e) = (3, 2), at i = 2*beta + 2 = 4.
    expected = {
        (2, 2): {0, 1, 2},
        (2, 3): {0, 1, 2, 6},
        (2, 4): {0, 1, 2, 14},
        (3, 2): {0, 1, 2, 4, 7},
        (3, 3): {0, 1, 2, 25},
        (5, 2): {0, 1, 2, 23},
    }
    for (p, e), want in expected.items():
        got = {i for i in range(p**e) if is_mds_pair(CodeSpec(p, 1, e, i))}
        assert got == want, (p, e, got)


@pytest.mark.parametrize("p,e,m", FAMILY_GRID)
def test_distance_table_mds_column_is_is_mds_pair(p, e, m):
    *rows, zero_code = distance_table(p, e, m)
    assert [r.mds_pair for r in rows] == [
        is_mds_pair(CodeSpec(p, m, e, r.i)) for r in rows
    ]
    assert zero_code.i == p**e and not zero_code.mds_pair


def test_mds_pair_rejects_zero_code():
    with pytest.raises(ValueError):
        is_mds_pair(CodeSpec(3, 1, 2, 9))


def test_distance_record_fields():
    rec = distance_table(3, 2, 1)[4]
    assert (rec.i, rec.dimension, rec.d_hamming, rec.d_pair) == (4, 5, 3, 6)
    assert rec.branch == "2(beta+2)[beta=1]"
    assert rec.mds_pair is True
    assert rec._fields == TABLE_COLUMNS
