import itertools
import re
import sys
import tracemalloc

import pytest

from test_acceptance import FAMILY_GRID
from test_channel import every_codeword

from paircodes import cli, codes, oracle
from paircodes.codes import (
    CodeSpec,
    _hamming_branches,
    _pair_branches,
    contains,
    encode,
    hamming_branch,
    pair_branch,
)
from paircodes.gf import Field, build_field
from paircodes.oracle import (
    BudgetExhausted,
    EnumBudget,
    IdentityViolation,
    _count_text,
    _scan_min_weights,
    codeword_class_count,
    enumerate_codewords,
    min_hamming_weight_bruteforce,
    min_pair_weight_bruteforce,
    verify_family,
    verify_run_identity,
)
from paircodes.pairmetrics import hamming_weight, pair_count, pair_weight
from paircodes.polyring import Poly


def test_enumeration_counts():
    # one projective class in a dimension-1 code
    assert len(list(enumerate_codewords(CodeSpec(5, 1, 1, 4)))) == 1
    # q = 2: scalar reduction is a no-op
    assert len(list(enumerate_codewords(CodeSpec(2, 1, 2, 2)))) == 3
    # (3^2 - 1) / 2 = 4 scalar classes
    assert len(list(enumerate_codewords(CodeSpec(3, 1, 2, 7)))) == 4


def test_class_count_formulas():
    assert codeword_class_count(CodeSpec(3, 1, 2, 7), True) == 4
    assert codeword_class_count(CodeSpec(3, 1, 2, 7), False) == 8
    assert codeword_class_count(CodeSpec(2, 1, 2, 2), True) == 3
    # over F_4 the walk visits the 2^3 - 1 monic F_2-messages of 4^3 - 1 words
    assert codeword_class_count(CodeSpec(2, 2, 2, 1), True) == 7
    assert codeword_class_count(CodeSpec(2, 2, 2, 1), False) == 63


def test_enumeration_rejects_zero_dimension():
    with pytest.raises(ValueError):
        next(enumerate_codewords(CodeSpec(2, 1, 2, 4)))


ENCODE_ORDER_CASES = [
    pytest.param(CodeSpec(2, 2, 2, 1), None, id="GF4"),
    pytest.param(CodeSpec(3, 2, 1, 1), None, id="GF9"),
    pytest.param(CodeSpec(3, 2, 1, 1), (2, 1, 1), id="GF9-mod-x2+x+2"),
    pytest.param(CodeSpec(5, 2, 1, 3), None, id="GF25"),
    pytest.param(CodeSpec(3, 1, 2, 6), None, id="GF3"),
]


@pytest.mark.parametrize("spec,modulus", ENCODE_ORDER_CASES)
def test_enumeration_matches_encode_order(spec, modulus):
    # the stream must equal encode(f) for monic messages over F_p in ascending
    # encoding, under any modulus of F_{p^m}
    fs = Field(spec.p, spec.m, modulus) if modulus else spec.field()
    got = [w.coeffs for w in enumerate_codewords(spec)]
    expected = []
    p, dim = spec.p, spec.dimension
    for t in range(1, p**dim):
        digits = []
        tt = t
        for _ in range(dim):
            digits.append(tt % p)
            tt //= p
        lead = next(d for d in reversed(digits) if d)
        if lead != 1:
            continue
        expected.append(encode(spec, Poly(fs, tuple(digits))).coeffs)
    assert got == expected


def test_enumeration_budget_signal():
    spec = CodeSpec(3, 1, 2, 0)
    stream = enumerate_codewords(spec, EnumBudget(max_codewords=10))
    seen = []
    with pytest.raises(BudgetExhausted):
        for w in stream:
            seen.append(w)
    assert len(seen) == 10


@pytest.mark.parametrize(
    "spec,cap,space",
    [(CodeSpec(3, 1, 2, 7), 3, 4), (CodeSpec(2, 1, 3, 4), 3, 15), (CodeSpec(2, 1, 3, 4), 7, 15)],
)
def test_enumeration_cap_below_and_at_the_space(spec, cap, space):
    # (2,1,3,4) walks runs of 1, 2, 4 and 8 words: caps 3 and 7 end runs 1 and 2
    words = [w.coeffs for w in enumerate_codewords(spec, EnumBudget(space))]
    assert len(words) == space
    seen = []
    with pytest.raises(BudgetExhausted) as err:
        for w in enumerate_codewords(spec, EnumBudget(cap)):
            seen.append(w.coeffs)
    assert seen == words[:cap]
    assert str(err.value) == f"budget of {cap} codewords exhausted for {spec}"
    assert (err.value.scanned, err.value.space) == (cap, space)


def test_first_word_costs_one_rotation():
    # n = 2048 at i = 0: all rotations and prefix sums would be about 71 MB
    spec = CodeSpec(2, 1, 11, 0)
    tracemalloc.start()
    try:
        first = next(enumerate_codewords(spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert first.coeffs == (1,) + (0,) * (spec.n - 1)


def test_min_weight_budget_error_is_explicit():
    with pytest.raises(BudgetExhausted) as err:
        min_pair_weight_bruteforce(CodeSpec(3, 1, 2, 0), EnumBudget(max_codewords=10))
    assert err.value.scanned == 0
    assert err.value.space == codeword_class_count(CodeSpec(3, 1, 2, 0), True)


def test_min_pair_weight_examples():
    d, witness = min_pair_weight_bruteforce(CodeSpec(3, 1, 2, 8))
    assert d == 9 and witness.coeffs == (1,) * 9
    d, _ = min_pair_weight_bruteforce(CodeSpec(3, 1, 2, 4))
    assert d == 6
    d, _ = min_pair_weight_bruteforce(CodeSpec(2, 1, 2, 0))
    assert d == 2


def test_min_hamming_weight_examples():
    d, _ = min_hamming_weight_bruteforce(CodeSpec(3, 1, 2, 4))
    assert d == 3
    for p, e, m in [(2, 1, 1), (3, 2, 1), (2, 2, 2)]:
        d, _ = min_hamming_weight_bruteforce(CodeSpec(p, m, e, 0))
        assert d == 1
    d, _ = min_hamming_weight_bruteforce(CodeSpec(2, 1, 3, 7))
    assert d == 8


def test_zero_code_convention():
    d, witness = min_pair_weight_bruteforce(CodeSpec(3, 1, 2, 9))
    assert d == 0 and witness.is_zero()
    d, witness = min_hamming_weight_bruteforce(CodeSpec(3, 1, 2, 9))
    assert d == 0 and witness.is_zero()


@pytest.mark.parametrize(
    "spec",
    [
        CodeSpec(3, 1, 2, 5),
        CodeSpec(3, 1, 2, 7),
        CodeSpec(2, 2, 2, 1),
        CodeSpec(3, 2, 1, 1),
        CodeSpec(5, 1, 1, 2),
    ],
)
def test_scalar_reduction_soundness(spec):
    # one word per scalar class finds the minima over every nonzero codeword
    words = every_codeword(spec)[1:]
    assert min_pair_weight_bruteforce(spec)[0] == min(map(pair_weight, words))
    assert min_hamming_weight_bruteforce(spec)[0] == min(map(hamming_weight, words))


@pytest.mark.parametrize("p,e,m", [(3, 2, 1), (2, 3, 1), (2, 2, 2)])
def test_verify_family_matches(p, e, m):
    report = verify_family(p, e, m)
    assert report.verdict == "all-match"
    assert len(report.entries) == p**e + 1
    for entry in report.entries:
        assert entry.status == "match"
        assert entry.oracle_d_hamming == entry.formula_d_hamming
        assert entry.oracle_d_pair == entry.formula_d_pair


def test_verify_family_witnesses_are_valid():
    report = verify_family(3, 2, 1)
    for entry in report.entries:
        spec = CodeSpec(3, 1, 2, entry.i)
        assert contains(spec, entry.witness)
        assert pair_weight(entry.witness) == entry.oracle_d_pair
        assert hamming_weight(entry.witness) >= entry.oracle_d_hamming


def test_verify_family_budget_skips():
    report = verify_family(3, 2, 1, EnumBudget(max_codewords=50))
    statuses = {entry.status for entry in report.entries}
    assert "skipped" in statuses
    assert report.verdict == "incomplete"
    for entry in report.entries:
        if entry.status == "skipped":
            assert entry.oracle_d_pair is None and entry.witness is None


def test_a_wrong_closed_form_is_a_mismatch(monkeypatch, capsys):
    # the pair closed form off by one at (3,2,1), i = 6 (true d_p = 6)
    def wrong(spec):
        d_p, branch = pair_branch(spec)
        return d_p + ((spec.p, spec.e, spec.i) == (3, 2, 6)), branch

    monkeypatch.setattr(codes, "pair_branch", wrong)
    # under a budget of 100 words, rows 0..4 (121 words and more) are skipped
    for budget, skipped in ((None, set()), (EnumBudget(100), {0, 1, 2, 3, 4})):
        report = verify_family(3, 2, 1, budget)
        assert report.verdict == "mismatch"
        status = {entry.i: entry.status for entry in report.entries}
        assert {i for i, s in status.items() if s == "mismatch"} == {6}
        assert {i for i, s in status.items() if s == "skipped"} == skipped
        assert report.entries[6].formula_d_pair == 7
        assert report.entries[6].oracle_d_pair == 6
    assert cli.main(["verify", "--p", "3", "--e", "2", "--m", "1"]) == 1
    assert capsys.readouterr().out.endswith("verdict: mismatch\n")


def test_verify_family_deterministic():
    a = verify_family(3, 2, 1)
    b = verify_family(3, 2, 1)
    assert a == b  # includes witnesses


def test_run_identity_exhaustive():
    rep = verify_run_identity(build_field(2, 1), 5)
    assert not rep.violations
    assert rep.pairs_checked == 960  # 1024 minus 32 equal and 32 complement pairs
    assert rep.full_support_pairs == 32
    rep = verify_run_identity(build_field(3, 1), 4)
    assert not rep.violations
    assert rep.pairs_checked == 3**8 - 81 - 81 * 16
    assert rep.full_support_pairs == 81 * 16


@pytest.mark.parametrize(
    "p, m, n", [(2, 1, 8), (2, 2, 4), (5, 1, 3), (7, 1, 3)], ids=["GF2", "GF4", "GF5", "GF7"]
)
def test_run_identity_exhaustive_over_more_fields(p, m, n):
    q = p**m
    rep = verify_run_identity(build_field(p, m), n)
    assert not rep.violations
    assert rep.full_support_pairs == q**n * (q - 1) ** n
    assert rep.pairs_checked == q ** (2 * n) - q**n - q**n * (q - 1) ** n


def test_run_identity_reports_every_violation(monkeypatch):
    # d_p read one too high breaks d_p = d_H + L, and d_p = n at full
    # support, on every ordered pair of distinct words
    monkeypatch.setattr(oracle, "pair_count", lambda word: pair_count(word) + 1)
    rep = verify_run_identity(build_field(2, 1), 4)
    assert (rep.pairs_checked, rep.full_support_pairs) == (256 - 16 - 16, 16)
    words = list(itertools.product(range(2), repeat=4))
    assert [(v.x, v.y) for v in rep.violations] == [
        (x, y) for x in words for y in words if x != y
    ]
    found = {(v.x, v.y): v for v in rep.violations}
    # full support has no block count; positions 3, 0, 1 are one cyclic block
    zero, ones, x = (0, 0, 0, 0), (1, 1, 1, 1), (1, 1, 0, 0)
    assert found[zero, ones] == IdentityViolation(zero, ones, 4, -1, 5)
    assert found[x, (0, 0, 0, 1)] == IdentityViolation(x, (0, 0, 0, 1), 3, 1, 5)


def test_refusing_exhaustive_mode_is_free():
    # q^(2n) over GF(9) at n = 10^6 would be a 3.8 MB int
    field = build_field(3, 2)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exhaustive mode needs"):
            verify_run_identity(field, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000


def test_run_identity_guards():
    with pytest.raises(ValueError):
        verify_run_identity(build_field(2, 1), 11)  # 2^22 ordered pairs
    for n in (0, 1):
        with pytest.raises(ValueError):
            verify_run_identity(build_field(2, 1), n)


def test_counts_too_long_to_print_are_written_short():
    assert _count_text(10**4300 - 1) == "9" * 4300
    assert _count_text(10**4300) == "at least 2^14284"
    spec = CodeSpec(2, 1, 14, 0)  # 2^16384 - 1 words to scan
    with pytest.raises(BudgetExhausted) as err:
        _scan_min_weights(spec, EnumBudget(max_codewords=1))
    assert str(err.value) == "at least 2^16383 codewords exceed the budget of 1"
    assert err.value.space == 2**16384 - 1


def test_counts_follow_a_lowered_int_string_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert _count_text(10**640 - 1) == "9" * 640
        assert _count_text(2**4096 - 1) == "at least 2^4095"
    finally:
        sys.set_int_max_str_digits(limit)


def test_enumeration_deterministic_with_extension_field():
    spec = CodeSpec(2, 2, 2, 1)
    words1 = [w.coeffs for w in enumerate_codewords(spec)]
    words2 = [w.coeffs for w in enumerate_codewords(spec)]
    assert words1 == words2
    # every enumerated word really is a codeword
    for w in enumerate_codewords(spec):
        assert contains(spec, w)


def _monic_codewords(spec):
    """encode(f) for every monic f over F_{p^m}, ascending in the index whose
    base-q digits are f's coefficients; built by encode alone."""
    field, q = spec.field(), spec.q
    for b in range(spec.dimension):
        for low in range(q**b):
            message = tuple(low // q**d % q for d in range(b)) + (1,)
            yield encode(spec, Poly(field, message))


def _reference_family(p, e, m):
    # plain minima over every monic message over F_{p^m}, not the oracle's
    # F_p walk; witnesses are first strict achievers
    rows = []
    for i in range(p**e + 1):
        spec = CodeSpec(p, m, e, i)
        if i == spec.n:
            rows.append((i, 0, 0, (0,) * spec.n))
            continue
        best_h = best_p = spec.n + 1
        wit_p = None
        for word in _monic_codewords(spec):
            best_h = min(best_h, hamming_weight(word))
            w_p = pair_weight(word)
            if w_p < best_p:
                best_p, wit_p = w_p, word.coeffs
        rows.append((i, best_h, best_p, wit_p))
    return rows


@pytest.mark.parametrize("p,e,m", FAMILY_GRID + ((2, 2, 3), (7, 1, 1)))
def test_verify_family_matches_plain_reference(p, e, m):
    report = verify_family(p, e, m)
    got = [
        (x.i, x.oracle_d_hamming, x.oracle_d_pair, x.witness.coeffs)
        for x in report.entries
    ]
    assert got == _reference_family(p, e, m)


# words each certify family's rows walk under verify_family's known chain;
# a weaker stop rule walks more of them, an over-eager one fewer
CERTIFY_SCANNED = {
    (2, 1, 1): 2, (2, 2, 1): 4, (2, 3, 1): 18, (2, 4, 1): 236,
    (3, 1, 1): 3, (3, 2, 1): 138, (5, 1, 1): 5, (2, 2, 2): 4,
    (3, 1, 2): 3, (7, 1, 1): 7, (5, 1, 2): 5, (2, 3, 3): 18,
}


@pytest.mark.parametrize("p,e,m", sorted(CERTIFY_SCANNED))
def test_certify_family_walks_pinned_word_counts(p, e, m):
    known, scanned = (0, 0), 0
    for i in range(p**e + 1):
        res = _scan_min_weights(CodeSpec(p, m, e, i), EnumBudget(), known)
        known = (res.min_hamming, res.min_pair)
        scanned += res.scanned
    assert scanned == CERTIFY_SCANNED[p, e, m]


@pytest.mark.parametrize("i", [0, 1])
def test_scan_stops_at_proven_floor(i):
    # the generator comes first and already meets w_H >= 1 (i = 0) or
    # w_H >= 2 (i >= 1), with w_p >= w_H + 1; the walks hold 255 and 127
    # words
    spec = CodeSpec(2, 3, 3, i)
    res = _scan_min_weights(spec, EnumBudget())
    assert res.scanned == 1
    assert (res.min_hamming, res.min_pair) == (i + 1, i + 2)


@pytest.mark.parametrize("p,m,e", [(2, 1, 4), (2, 3, 3)])
def test_scan_stops_at_pair_floor_for_i_ge_2(p, m, e):
    # d_p rises from 3 to 4 at i = 2; w_p >= min(n, 4) for i >= 2 ends the
    # scan at the first weight-2 codeword instead of the whole space
    spec = CodeSpec(p, m, e, 2)
    res = _scan_min_weights(spec, EnumBudget())
    assert (res.min_hamming, res.min_pair) == (2, 4)
    assert res.scanned <= 4 < codeword_class_count(spec, True)


@pytest.mark.parametrize("p,e,m", [(7, 1, 1), (5, 1, 2)])
def test_scan_stops_at_hamming_floor_for_e1(p, e, m):
    # for n = p, w_H >= i + 1 (a Vandermonde argument), and the generator,
    # walked first, has weight i + 1; (7,1,1) at i = 2 once walked 2,801 words
    for i in range(p**e):
        spec = CodeSpec(p, m, e, i)
        res = _scan_min_weights(spec, EnumBudget())
        assert (res.min_hamming, res.min_pair) == (i + 1, min(spec.n, i + 2))
        assert res.scanned == 1


def _template(label):
    return re.sub(r"\[.*\]", "", label)


def test_every_branch_template_is_certified():
    # every template the formulas can emit, found by sweeping the branch ranges
    hamming, pair = set(), set()
    for p in (2, 3, 5, 7):
        for e in (1, 2, 3, 4):
            for i in range(p**e + 1):
                hamming |= {_template(lab) for _, lab in _hamming_branches(p, e, i)}
                pair |= {_template(lab) for _, lab in _pair_branches(p, e, i)}
    assert hamming == {"0", "1", "beta+2", "(t+1)p^k"}
    assert pair == {
        "0", "n=2", "i+2", "p", "2", "3", "4", "2(beta+2)", "3p^k", "4p^k",
        "2(beta+2)p^k", "(j+2)p^(e-1)", "p^e",
    }
    reports = [verify_family(p, e, m) for p, e, m in FAMILY_GRID]
    # rows 16..27 fit the budget; 22..24 are the only 2(beta+2)p^k rows in reach
    reports.append(verify_family(3, 3, 1, EnumBudget(max_codewords=200_000)))
    met_h, met_p = set(), set()
    for rep in reports:
        for entry in rep.entries:
            if entry.status == "match":
                spec = CodeSpec(rep.p, rep.m, rep.e, entry.i)
                met_h.add(_template(hamming_branch(spec)[1]))
                met_p.add(_template(pair_branch(spec)[1]))
    assert met_h == hamming
    assert met_p == pair
