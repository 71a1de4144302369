import itertools
import random

import pytest

from paircodes.channel import correctability_experiment, inject_pair_errors
from paircodes.codes import CodeSpec
from paircodes.gf import Field, build_field, is_irreducible
from paircodes.oracle import EnumBudget, verify_run_identity
from paircodes.pairmetrics import (
    PairVector,
    hamming_distance,
    hamming_weight,
    pair_distance,
    pair_read,
    pair_seq_distance,
    pair_weight,
    run_count,
)
from paircodes.polyring import (
    Poly,
    cyclic_shift,
    ring_one,
    vector,
    x_minus_one_power,
    zero_ring_element,
)

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F5 = build_field(5, 1)


def test_pair_read_definition():
    v = vector(F5, (1, 2, 3))
    assert pair_read(v).pairs == ((1, 2), (2, 3), (3, 1))
    z = zero_ring_element(F3, 6)
    assert pair_read(z).pairs == ((0, 0),) * 6
    w = vector(F2, (1, 0, 0, 0))
    assert pair_read(w).pairs == ((1, 0), (0, 0), (0, 0), (0, 1))


def test_pair_read_rejects_short_words():
    with pytest.raises(ValueError):
        pair_read(vector(F2, (1,)))
    with pytest.raises(ValueError):
        PairVector(F2, ((1, 0),))


# input checks across the layers that no other test reaches
BAD_INPUTS = {
    "is_irreducible-composite-p": lambda: is_irreducible(4, [1, 1, 1]),
    "is_irreducible-float-coefficient": lambda: is_irreducible(3, [1.5, 0, 1]),
    "field-modulus-of-wrong-degree": lambda: Field(3, 2, (1, 1)),
    "field-modulus-float-coefficient": lambda: Field(3, 2, (1.0, 0, 1)),
    "field-float-degree": lambda: Field(3, 2.0, (1, 0, 1)),
    "field-float-p": lambda: Field(3.0, 2, (1, 0, 1)),
    "codespec-float-p": lambda: CodeSpec(2.0, 1, 1, 0),
    "codespec-float-e": lambda: CodeSpec(2, 1, 2.0, 0),
    "codespec-float-i": lambda: CodeSpec(2, 1, 1, 1.0),
    "enumbudget-float-max_codewords": lambda: EnumBudget(1.5),
    "codespec-bool-m": lambda: CodeSpec(2, True, 2, 1),
    "enumbudget-bool-max_codewords": lambda: EnumBudget(max_codewords=True),
    "ring_one-length-0": lambda: ring_one(F2, 0),
    "pair_weight-length-1": lambda: pair_weight(vector(F2, (1,))),
    "pair_distance-length-1": lambda: pair_distance(vector(F2, (1,)), vector(F2, (0,))),
    "poly-add-across-fields": lambda: Poly(F2, (1, 1)) + Poly(F3, (1, 1)),
    "poly-to_ring-length-0": lambda: Poly(F2, (1, 1)).to_ring(0),
    "inject-float-t": lambda: inject_pair_errors(pair_read(vector(F2, (1, 0))), 1.0, 3),
    "inject-bool-t": lambda: inject_pair_errors(pair_read(vector(F2, (1, 0))), True, 3),
    "inject-seed-none": lambda: inject_pair_errors(
        pair_read(vector(F2, (1, 0))), 1, None
    ),
    "experiment-float-trials": lambda: correctability_experiment(
        CodeSpec(2, 1, 2, 1), 0, 1.5, 3
    ),
    "experiment-bool-trials": lambda: correctability_experiment(
        CodeSpec(3, 1, 1, 1), 1, True, 1
    ),
    "experiment-seed-none": lambda: correctability_experiment(
        CodeSpec(2, 1, 2, 1), 0, 1, None
    ),
    "run_identity-float-n": lambda: verify_run_identity(F2, 2.0),
    "x_minus_one_power-float-i": lambda: x_minus_one_power(F3, 2.0, 9),
    "poly-to_ring-float-length": lambda: Poly(F2, (1, 1)).to_ring(2.0),
    "field-pow-float-exponent": lambda: build_field(3, 2).pow(3, 2.0),
    "x_minus_one_power-float-length": lambda: x_minus_one_power(F3, 2, 9.0),
    "x_minus_one_power-length-none": lambda: x_minus_one_power(F3, 2, None),
    "zero_ring_element-float-length": lambda: zero_ring_element(F3, 2.0),
    "ring_one-float-length": lambda: ring_one(F3, 2.0),
    "cyclic_shift-float-shift": lambda: cyclic_shift(vector(F3, (1, 0, 0)), 1.5),
    "vector-bool-coefficient": lambda: vector(F3, (True, 0)),
    "poly-bool-coefficient": lambda: Poly(F3, (False, 1)),
    "pairvector-bool-symbol": lambda: PairVector(F3, ((True, 0), (0, 0))),
    "scale-bool-scalar": lambda: vector(F3, (1, 2)).scale(True),
    "extension-vector-bool-coefficient": lambda: vector(build_field(3, 2), (0, True)),
}


@pytest.mark.parametrize("call", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_input_checks_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_pair_read_is_consistent():
    assert pair_read(vector(F3, (1, 0, 2, 2))).consistent()
    broken = PairVector(F3, ((1, 0), (2, 2), (2, 1), (1, 1)))
    assert not broken.consistent()


def test_hamming_weight_examples():
    assert hamming_weight(zero_ring_element(F3, 9)) == 0
    assert hamming_weight(vector(F3, (1,) * 9)) == 9
    # (x-1)^4 = x^4 + 2x^3 + 2x + 1 over F_3
    g4 = x_minus_one_power(F3, 4, 9)
    assert g4.coeffs == (1, 2, 0, 2, 1, 0, 0, 0, 0)
    assert hamming_weight(g4) == 4


def test_pair_weight_examples():
    assert pair_weight(x_minus_one_power(F3, 1, 9)) == 3
    assert pair_weight(x_minus_one_power(F3, 3, 9)) == 4
    g2 = x_minus_one_power(F5, 2, 5)
    assert g2.coeffs == (1, 3, 1, 0, 0)
    assert pair_weight(g2) == 4
    assert pair_weight(zero_ring_element(F2, 7)) == 0


def test_distances_examples():
    z5 = zero_ring_element(F2, 5)
    x = vector(F2, (1, 0, 1, 0, 0))
    assert hamming_distance(x, x) == 0 and pair_distance(x, x) == 0
    assert hamming_distance(x, z5) == 2
    assert pair_distance(x, z5) == 4
    y = vector(F2, (1, 0, 0, 0, 1))
    assert hamming_distance(y, z5) == 2
    assert pair_distance(y, z5) == 3


def test_distance_length_mismatch():
    with pytest.raises(ValueError):
        hamming_distance(vector(F2, (1, 0)), vector(F2, (1, 0, 0)))
    with pytest.raises(ValueError):
        pair_distance(vector(F2, (1, 0)), vector(F3, (1, 0)))


def test_pair_seq_distance():
    x = vector(F3, (1, 2, 0, 0))
    y = vector(F3, (1, 0, 0, 2))
    u, v = pair_read(x), pair_read(y)
    assert pair_seq_distance(u, u) == 0
    assert pair_seq_distance(u, v) == pair_distance(x, y)
    corrupted = PairVector(F3, u.pairs[:-1] + ((2, 2),))
    assert pair_seq_distance(u, corrupted) == 1


def test_run_count_examples():
    z5 = zero_ring_element(F2, 5)
    assert run_count(vector(F2, (1, 0, 1, 0, 0)), z5) == 2
    assert run_count(vector(F2, (1, 0, 0, 0, 1)), z5) == 1  # wrap
    assert run_count(z5, z5) == 0
    assert run_count(vector(F2, (1,) * 5), z5) == 1  # full support


def _all_words(field, n):
    return [
        vector(field, t) for t in itertools.product(field.elements(), repeat=n)
    ]


@pytest.mark.parametrize("field,n", [(F2, 5), (F3, 4)])
def test_pair_distance_block_identity_exhaustive(field, n):
    # d_p = d_H + L whenever 0 < d_H < n; d_p = n when d_H = n
    words = _all_words(field, n)
    for x in words:
        for y in words:
            d_h = hamming_distance(x, y)
            if d_h == 0:
                continue
            d_p = pair_distance(x, y)
            if d_h == n:
                assert d_p == n
            else:
                assert d_p == d_h + run_count(x, y)


def test_weight_sandwich_random():
    rng = random.Random(99)
    for _ in range(2000):
        n = rng.randrange(2, 9)
        x = vector(F3, tuple(rng.randrange(3) for _ in range(n)))
        w_h = hamming_weight(x)
        w_p = pair_weight(x)
        if w_h == 0:
            assert w_p == 0
        elif w_h == n:
            assert w_p == n
        else:
            assert w_h + 1 <= w_p <= 2 * w_h


def test_shift_and_scalar_invariance():
    rng = random.Random(4242)
    for _ in range(500):
        n = rng.randrange(2, 10)
        x = vector(F5, tuple(rng.randrange(5) for _ in range(n)))
        w = pair_weight(x)
        shifted = cyclic_shift(x, rng.randrange(2 * n))
        assert pair_weight(shifted) == w
        assert hamming_weight(shifted) == hamming_weight(x)
        lam = rng.randrange(1, 5)
        assert pair_weight(x.scale(lam)) == w


def test_linearity_bridge():
    rng = random.Random(31)
    for _ in range(500):
        x = vector(F3, tuple(rng.randrange(3) for _ in range(6)))
        y = vector(F3, tuple(rng.randrange(3) for _ in range(6)))
        assert pair_distance(x, y) == pair_weight(x - y)


def test_pair_weight_three_characterization_f3_n4():
    # w_p(c) = 3 exactly for the cyclic shifts of (a, b, 0, ..., 0), a, b != 0
    expected = set()
    for a in (1, 2):
        for b in (1, 2):
            base = vector(F3, (a, b, 0, 0))
            for s in range(4):
                expected.add(cyclic_shift(base, s).coeffs)
    actual = {
        w.coeffs for w in _all_words(F3, 4) if pair_weight(w) == 3
    }
    assert actual == expected
