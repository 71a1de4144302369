"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them
on success).  All comparisons are exact integer equality; the stated
wall-clock bounds are asserted where given.
"""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

from paircodes.channel import correctability_experiment
from paircodes.codes import (
    CodeSpec,
    closed_form_hamming_distance,
    closed_form_pair_distance,
    contains,
    generator,
    is_mds_pair,
)
from paircodes.gf import build_field
from paircodes.oracle import (
    min_pair_weight_bruteforce,
    verify_family,
    verify_run_identity,
)
from paircodes.pairmetrics import pair_weight
from paircodes.polyring import Poly, cyclic_shift, ring_one, vector, x_minus_one_power

SRC = Path(__file__).resolve().parents[1] / "src"

FAMILY_GRID = (
    (2, 1, 1),
    (2, 2, 1),
    (2, 3, 1),
    (2, 4, 1),
    (3, 1, 1),
    (3, 2, 1),
    (5, 1, 1),
    (2, 2, 2),
    (3, 1, 2),
)


def _report(label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {label}: {status}{suffix}")
    assert ok, f"{label} failed: {detail}"


def test_criterion_1_pair_distance_formula_vs_oracle():
    t0 = time.perf_counter()
    bad = []
    for p, e, m in FAMILY_GRID:
        report = verify_family(p, e, m)
        for entry in report.entries:
            if entry.status != "match" or entry.oracle_d_pair != entry.formula_d_pair:
                bad.append((p, e, m, entry.i))
    elapsed = time.perf_counter() - t0
    _report(
        "1: pair-distance formula == oracle on full grid",
        not bad and elapsed < 10.0,
        f"{len(bad)} mismatches, {elapsed:.2f}s",
    )


def test_criterion_2_hamming_formula_vs_oracle():
    bad = []
    for p, e, m in FAMILY_GRID:
        report = verify_family(p, e, m)
        for entry in report.entries:
            if entry.oracle_d_hamming != entry.formula_d_hamming:
                bad.append((p, e, m, entry.i))
    _report(
        "2: Hamming-distance formula == oracle on full grid",
        not bad,
        f"{len(bad)} mismatches",
    )


def test_criterion_3_pair_block_identity_exhaustive():
    t0 = time.perf_counter()
    rep2 = verify_run_identity(build_field(2, 1), 5)
    rep3 = verify_run_identity(build_field(3, 1), 4)
    elapsed = time.perf_counter() - t0
    ok = (
        not rep2.violations
        and not rep3.violations
        and rep2.pairs_checked + rep2.full_support_pairs == 2**10 - 2**5
        and rep3.pairs_checked + rep3.full_support_pairs == 3**8 - 3**4
        and elapsed < 5.0
    )
    _report(
        "3: d_p = d_H + L exhaustive over F_2^5 and F_3^4",
        ok,
        f"{len(rep2.violations) + len(rep3.violations)} violations, {elapsed:.2f}s",
    )


def test_criterion_4_generator_weight_golden_vectors():
    bad = []
    for p, e in [(5, 1), (7, 1)]:
        fs = build_field(p, 1)
        for i in range(p - 1):
            if pair_weight(x_minus_one_power(fs, i, p**e)) != i + 2:
                bad.append((p, e, i))
    for p, e in [(3, 2), (5, 2)]:
        fs = build_field(p, 1)
        for beta in range(p - 1):
            i = (beta + 1) * p ** (e - 1)
            if pair_weight(x_minus_one_power(fs, i, p**e)) != 2 * (beta + 2):
                bad.append((p, e, i))
    for p, e, k in [(2, 3, 1), (3, 3, 1)]:
        fs = build_field(p, 1)
        i = p**e - p ** (e - k)
        if pair_weight(x_minus_one_power(fs, i, p**e)) != 2 * p**k:
            bad.append((p, e, i))
        i = p**e - p ** (e - k) + p ** (e - k - 1)
        if pair_weight(x_minus_one_power(fs, i, p**e)) != 4 * p**k:
            bad.append((p, e, i))
    fs = build_field(3, 1)
    for j in range(2):
        i = 9 - 3 + j
        if pair_weight(x_minus_one_power(fs, i, 9)) != (j + 2) * 3:
            bad.append((3, 2, i))
    _report("4: generator pair-weight golden vectors", not bad, f"bad: {bad}")


def test_criterion_5a_mds_classification_e1():
    bad = []
    for p in (2, 3, 5, 7):
        got = {i for i in range(p) if is_mds_pair(CodeSpec(p, 1, 1, i))}
        if got != set(range(p - 1)):
            bad.append((p, got))
    _report("5a: MDS sets for e = 1 equal {0..p-2}", not bad, f"bad: {bad}")


def test_criterion_5b_mds_oracle_cross_check():
    # classification must equal {i : oracle d_p == i + 2} wherever the
    # family is exhaustively enumerable
    bad = []
    for p, e in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2)]:
        claimed = {i for i in range(p**e) if is_mds_pair(CodeSpec(p, 1, e, i))}
        oracle_set = set()
        for i in range(p**e):
            d_p, _ = min_pair_weight_bruteforce(CodeSpec(p, 1, e, i))
            if d_p == i + 2:
                oracle_set.add(i)
        if claimed != oracle_set:
            bad.append((p, e, claimed, oracle_set))
    # (3, 3) exceeds desk scale below i = 15 (dimension 13 and up); the
    # enumerable tail still covers the interesting exponent i = 25
    claimed_tail = {
        i for i in range(15, 27) if is_mds_pair(CodeSpec(3, 1, 3, i))
    }
    oracle_tail = set()
    for i in range(15, 27):
        d_p, _ = min_pair_weight_bruteforce(CodeSpec(3, 1, 3, i))
        if d_p == i + 2:
            oracle_tail.add(i)
    if claimed_tail != oracle_tail:
        bad.append((3, 3, claimed_tail, oracle_tail))
    _report(
        "5b: MDS classification == oracle Singleton equality",
        not bad,
        f"bad: {bad}",
    )


def _low_weight_codewords(spec: CodeSpec, fs):
    """(w_H, w_p) of every codeword of Hamming weight 1 or 2."""
    n = spec.n
    nonzero = range(1, fs.q)
    found = []
    for w in (1, 2):
        for support in itertools.combinations(range(n), w):
            for values in itertools.product(nonzero, repeat=w):
                coeffs = [0] * n
                for k, v in zip(support, values):
                    coeffs[k] = v
                word = vector(fs, coeffs)
                if contains(spec, word):
                    found.append((w, pair_weight(word)))
    return found


def test_criterion_5c_mds_e2_stated_sets():
    # Singleton-equality (d_p = i + 2) MDS sets of the e >= 2 families:
    # {0, 1, 2}, plus i = p^e - 2 (dimension-2 codes reach d_p = n), plus
    # i = 4 for (3, 2).  The earlier stated {0, 1, 2} was unattainable:
    # (3, 2, 4) has d_p = 6 by brute force.  Every non-member is ruled out
    # by a generator witness and every member is certified without the
    # closed forms.
    expected = {
        (2, 2): {0, 1, 2},
        (2, 3): {0, 1, 2, 6},
        (3, 2): {0, 1, 2, 4, 7},
        (3, 3): {0, 1, 2, 25},
    }
    bad = []
    for (p, e), want in expected.items():
        n = p**e
        fs = build_field(p, 1)
        got = {i for i in range(n) if is_mds_pair(CodeSpec(p, 1, e, i))}
        if got != want:
            bad.append(("classified", p, e, got))
        # the codes are nested, so generator(j) lies in C_i for j >= i and
        # bounds d_p(C_i) from above
        gen_pw = [pair_weight(x_minus_one_power(fs, j, n)) for j in range(n)]
        for i in set(range(n)) - want:
            if min(gen_pw[i:]) >= i + 2:
                bad.append(("no witness", p, e, i))
        # Singleton gives d_p <= i + 2; each member needs d_p >= i + 2
        for i in sorted(want):
            spec = CodeSpec(p, 1, e, i)
            if spec.dimension <= 9:
                if min_pair_weight_bruteforce(spec)[0] != i + 2:
                    bad.append(("oracle", p, e, i))
            elif i == 0:
                # every nonzero symbol lies in two pairs, so d_p >= 2
                continue
            elif i <= 2:
                # no weight-1 codeword and weight-2 codewords at w_p >= i + 2;
                # heavier words off full support have w_p >= w_H + 1 >= 4
                # (criterion 3), full-support words w_p = n
                low = _low_weight_codewords(spec, fs)
                if any(w_h == 1 or w_p < i + 2 for w_h, w_p in low):
                    bad.append(("low weight", p, e, i))
            else:
                bad.append(("uncertified", p, e, i))
    _report(
        "5c: MDS sets for e >= 2 equal {0,1,2} + {p^e-2} (+ {4} for (3,2))",
        not bad,
        f"bad: {bad}",
    )


def test_criterion_6_correctability_guarantee():
    t0 = time.perf_counter()
    cases = [
        (CodeSpec(3, 1, 2, 4), 2, 100, 7),
        (CodeSpec(3, 1, 2, 1), 1, 100, 11),
        (CodeSpec(2, 1, 3, 5), 2, 100, 3),
    ]
    bad = []
    for spec, t, trials, seed in cases:
        d_p = closed_form_pair_distance(spec)
        assert 2 * t + 1 <= d_p
        rate, _ = correctability_experiment(spec, t, trials, seed)
        if rate != 1.0:
            bad.append((spec, t, rate))
    elapsed = time.perf_counter() - t0
    _report(
        "6: guaranteed-regime decoding succeeds on every trial",
        not bad and elapsed < 30.0,
        f"bad: {bad}, {elapsed:.1f}s",
    )


def test_criterion_7a_field_axioms():
    bad = 0
    for p, m in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]:
        fs = build_field(p, m)
        rng = random.Random(1000 + fs.q)
        for _ in range(10_000):
            a = rng.randrange(fs.q)
            b = rng.randrange(fs.q)
            c = rng.randrange(fs.q)
            ok = (
                fs.add(fs.add(a, b), c) == fs.add(a, fs.add(b, c))
                and fs.mul(fs.mul(a, b), c) == fs.mul(a, fs.mul(b, c))
                and fs.add(a, b) == fs.add(b, a)
                and fs.mul(a, b) == fs.mul(b, a)
                and fs.mul(a, fs.add(b, c)) == fs.add(fs.mul(a, b), fs.mul(a, c))
                and fs.add(a, fs.neg(a)) == 0
                and (a == 0 or fs.mul(a, fs.inv(a)) == 1)
            )
            bad += not ok
    _report("7a: field axioms on 10^4 random triples per field", bad == 0, f"{bad} bad")


def test_criterion_7b_sandwich_monotone_total_closed_forms():
    bad = []
    for p in (2, 3, 5, 7, 11, 13):
        for e in range(1, 5):
            n = p**e
            prev = None
            for i in range(n + 1):
                spec = CodeSpec(p, 1, e, i)
                d_h = closed_form_hamming_distance(spec)
                d_p = closed_form_pair_distance(spec)
                if 0 < d_h < n and not (d_h + 1 <= d_p <= 2 * d_h):
                    bad.append(("sandwich", p, e, i))
                if i < n:
                    if prev is not None and d_p < prev:
                        bad.append(("monotone", p, e, i))
                    prev = d_p
    _report(
        "7b: weight sandwich + monotonicity on closed forms, p <= 13, e <= 4",
        not bad,
        f"bad: {bad[:5]}",
    )


def test_criterion_7c_shift_scalar_invariance():
    fs = build_field(5, 1)
    rng = random.Random(2024)
    bad = 0
    for _ in range(10_000):
        n = rng.randrange(2, 11)
        x = vector(fs, tuple(rng.randrange(5) for _ in range(n)))
        w = pair_weight(x)
        if pair_weight(cyclic_shift(x, rng.randrange(3 * n))) != w:
            bad += 1
        if pair_weight(x.scale(rng.randrange(1, 5))) != w:
            bad += 1
    _report("7c: shift/scalar invariance on 10^4 random vectors", bad == 0, f"{bad} bad")


def test_criterion_7d_binomial_vs_multiplication():
    bad = []
    for p, e in [(2, 4), (3, 3), (5, 2)]:
        fs = build_field(p, 1)
        n = p**e
        xm1 = Poly(fs, (fs.neg(1), 1)).to_ring(n)
        acc = ring_one(fs, n)
        for i in range(n + 1):
            if x_minus_one_power(fs, i, n).coeffs != acc.coeffs:
                bad.append((p, e, i))
            acc = acc * xm1
    _report("7d: binomial path == repeated multiplication", not bad, f"bad: {bad}")


def _run_cli_bytes(*args) -> bytes:
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "paircodes", *args],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_8_cli_byte_determinism():
    base_args = ("verify", "--p", "3", "--e", "2", "--m", "1", "--format", "json")
    a1 = _run_cli_bytes(*base_args)
    a2 = _run_cli_bytes(*base_args)
    b1 = _run_cli_bytes(*base_args, "--jobs", "4")
    b2 = _run_cli_bytes(*base_args, "--jobs", "4")
    ok = a1 == a2 and b1 == b2 and a1 == b1
    _report("8: verify output byte-identical across runs and --jobs", ok)


def test_witnesses_certify_oracle_minima():
    # every reported minimum is achieved by its witness
    for p, e, m in FAMILY_GRID:
        spec = CodeSpec(p, m, e, min(2, p**e))
        d_p, witness = min_pair_weight_bruteforce(spec)
        assert pair_weight(witness) == d_p
        assert generator(spec).n == witness.n
