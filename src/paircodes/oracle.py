"""Brute-force ground truth for the closed-form distance formulas.

The walk visits the monic messages f over F_p, in ascending order of
the index j whose base-p digits they are, and scans each encode(f), the
F_p-combination of codes.digit_vectors with the digits of j, each built
when the walk first reads it, for exact minima with witnesses.  It stops
early only once its best weights meet lower bounds proven without the
closed forms, and it never reads m:

* the walk finds every minimum of C_i and its first achiever over all
  monic f over F_{p^m}, ascending (any nonzero codeword is a scalar
  multiple of one).  Split f = sum_d alpha^d f_d, alpha the root that
  presents F_{p^m} and f_d over F_p.  As (x - 1)^i is over F_p,
  encode(f_0) is digit 0 of encode(f), so its support lies within that
  of encode(f), and w_H and w_p are monotone in the support; f_0 is
  monic (digit 0 of the leading 1 is 1) and comes no later than f;
* a nonzero word has w_H >= 1, and for i >= 1 every codeword is a
  multiple of (x - 1), so c(1) = 0 and w_H >= 2;
* a nonzero word has w_p >= min(n, w_H + 1) (w_p = n on full support,
  w_p = w_H + L with L >= 1 otherwise);
* for i >= 2, w_p >= min(n, 4): a word a x^j + b x^k of Hamming weight 2
  in <(x - 1)^2> has c(1) = a + b = 0 and first Hasse derivative
  c'(1) = a j + b k = a (j - k) = 0, so p divides j - k; as p divides
  n = p^e, j - k is not +-1 mod n, the two symbols are not cyclically
  adjacent and w_p = 4; heavier words have w_p >= min(n, w_H + 1);
* for e = 1 (n = p) and i < n, w_H >= i + 1: c lies in C_i iff its
  Hasse derivatives at 1, sum_j C(j, r) c_j, vanish for r < i.  On a
  support of w <= i positions j < p these conditions for r < w form a
  w x w system whose row r is the degree-r polynomial C(j, r) in j with
  leading coefficient 1/r!, nonzero mod p as r < p; row reduction turns
  it into the Vandermonde matrix (j^r) at w distinct points mod p, which
  is invertible, so c = 0.  With the bound above, w_p >= min(n, i + 2);
* the codes are nested, C_i within C_{i-1}, so verify_family carries
  the minima it certified for row i - 1 into row i as lower bounds.

A scan stops only when no later word can beat its best weights, so its
minima and first-achiever witnesses are those of the full scan.  Report
objects never mark a budget-truncated search as verified.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from ._record import Record
from .gf import Field, _check_int, build_field
from .codes import CodeSpec, digit_vectors, distance_table
from .pairmetrics import block_count, disagreement, pair_count
from .polyring import RingElement


class EnumBudget(Record):
    """Caps exhaustive searches at max_codewords words."""

    max_codewords: int = 10_000_000

    def __post_init__(self):
        _check_int("max_codewords", self.max_codewords, 1)


class BudgetExhausted(RuntimeError):
    """An enumeration hit its budget before completing.

    Carries how many codewords were scanned and the size of the space.
    """

    def __init__(self, message, scanned=0, space=None):
        super().__init__(message)
        self.scanned = scanned
        self.space = space


def _count_text(count: int) -> str:
    """count in decimal, or as the true "at least 2^k" when str() refuses it.

    CPython refuses str() of an int past its int-string limit (4300
    digits by default); counts of codewords reach that (2^16384 for
    (2,14,1) at i = 0).
    """
    try:
        return str(count)
    except ValueError:
        return f"at least 2^{count.bit_length() - 1}"


class FamilyEntry(Record):
    i: int
    dimension: int
    formula_d_hamming: int
    oracle_d_hamming: int | None
    formula_d_pair: int
    oracle_d_pair: int | None
    witness: RingElement | None
    status: str  # "match" | "mismatch" | "skipped"


class VerificationReport(Record):
    p: int
    e: int
    m: int
    entries: tuple[FamilyEntry, ...]
    verdict: str  # "all-match" | "mismatch" | "incomplete"


class IdentityViolation(Record):
    x: tuple[int, ...]
    y: tuple[int, ...]
    d_hamming: int
    block_count: int
    d_pair: int


class IdentityReport(Record):
    q: int
    n: int
    pairs_checked: int
    full_support_pairs: int
    violations: tuple[IdentityViolation, ...]


def codeword_class_count(spec: CodeSpec, reduce_by_scalars: bool) -> int:
    """Nonzero codewords, or with reduce_by_scalars the monic F_p-words walked."""
    if reduce_by_scalars:
        return (spec.p**spec.dimension - 1) // (spec.p - 1)
    return spec.size - 1


def _codeword_stream(spec: CodeSpec, budget: EnumBudget) -> Iterator[list[int]]:
    """Codewords j of the F_p-subcode as fresh coefficient lists, j ascending.

    Codeword j combines digit_vectors with the base-p digits of j.  From
    j - 1 to j, digits 0 .. v_p(j) each step by +1 mod p, which adds
    steps[v_p(j)], the sum of digit vectors 0 .. v_p(j).  Run b walks the
    monic messages x^b + (lower terms), j = p^b .. 2 p^b - 1, from
    rotation b, where v_p(j) < b: steps[b] is built after run b.  Entries
    stay below p, where F_{p^m} adds as F_p does.
    """
    p, add_vec = spec.p, build_field(spec.p, 1).add_vec
    cap, scanned, steps = budget.max_codewords, 0, []
    for b, rotation in enumerate(digit_vectors(spec)):
        start, word = p**b, list(rotation)
        for j in range(start, 2 * start):
            if j != start:
                v = 0
                while not j % p:
                    j //= p
                    v += 1
                word = add_vec(word, steps[v])
            if scanned == cap:
                raise BudgetExhausted(
                    f"budget of {cap} codewords exhausted for {spec}",
                    scanned=cap,
                    space=codeword_class_count(spec, True),
                )
            scanned += 1
            yield word
        steps.append(add_vec(steps[-1], rotation) if steps else rotation)


def enumerate_codewords(
    spec: CodeSpec, budget: EnumBudget | None = None
) -> Iterator[RingElement]:
    """Deterministic stream of nonzero codewords of C_i.

    Yields encode(f) for every monic message f with coefficients in F_p,
    in ascending encoding order: the F_p-subcode, one word per scalar
    class, which holds every minimum of C_i (see the module docstring).
    Exceeding the budget raises BudgetExhausted after the capped prefix,
    which callers can tell apart from normal completion.
    """
    if spec.dimension < 1:
        raise ValueError("enumeration needs dimension >= 1")
    field = spec.field()
    for coeffs in _codeword_stream(spec, budget or EnumBudget()):
        yield RingElement(field, coeffs)


class _ScanResult(Record):
    min_hamming: int
    hamming_witness: tuple[int, ...]
    min_pair: int
    pair_witness: tuple[int, ...]
    scanned: int


def _scan_min_weights(
    spec: CodeSpec, budget: EnumBudget, known: tuple[int, int] = (0, 0)
) -> _ScanResult:
    """One pass computing both minimum weights with witnesses.

    known holds proven lower bounds (d_H, d_p) on C_i, such as the
    certified minima of C_{i-1}.  The pass stops once both best weights
    meet the larger of these and the floors in the module docstring;
    no later word can then replace a witness.
    """
    n = spec.n
    if spec.i == spec.n:
        zero = (0,) * n
        return _ScanResult(0, zero, 0, zero, 0)
    space = codeword_class_count(spec, True)
    if space > budget.max_codewords:
        raise BudgetExhausted(
            f"{_count_text(space)} codewords exceed the budget of"
            f" {budget.max_codewords}",
            space=space,
        )
    lb_h = max(known[0], 2 if spec.i else 1, spec.i + 1 if spec.e == 1 else 0)
    lb_p = max(known[1], min(n, lb_h + 1), min(n, 4) if spec.i >= 2 else 0)
    best_h = best_p = n + 1
    wit_h: list[int] | None = None
    wit_p: list[int] | None = None
    for scanned, word in enumerate(_codeword_stream(spec, budget), 1):
        w_h = n - word.count(0)
        if w_h >= best_p:  # w_p >= w_H, so best_p >= best_h: no best can improve
            continue
        if w_h < best_h:
            best_h = w_h
            wit_h = word
        w_p = pair_count(word)
        if w_p < best_p:
            best_p = w_p
            wit_p = word
        if best_h <= lb_h and best_p <= lb_p:
            break
    return _ScanResult(best_h, tuple(wit_h), best_p, tuple(wit_p), scanned)


def min_pair_weight_bruteforce(
    spec: CodeSpec, budget: EnumBudget | None = None
) -> tuple[int, RingElement]:
    """Exact minimum pair weight over nonzero codewords, with a witness.

    The zero code (i = p^e) returns 0 with the zero witness by the usual
    convention.  A budget overrun raises BudgetExhausted rather than
    passing off a partial scan as a minimum.
    """
    res = _scan_min_weights(spec, budget or EnumBudget())
    return res.min_pair, RingElement(spec.field(), res.pair_witness)


def min_hamming_weight_bruteforce(
    spec: CodeSpec, budget: EnumBudget | None = None
) -> tuple[int, RingElement]:
    """Exact minimum Hamming weight over nonzero codewords, with a witness."""
    res = _scan_min_weights(spec, budget or EnumBudget())
    return res.min_hamming, RingElement(spec.field(), res.hamming_witness)


def verify_family(
    p: int, e: int, m: int, budget: EnumBudget | None = None
) -> VerificationReport:
    """Compare both closed forms against both oracles for every i.

    Entries whose enumeration exceeds the budget are marked skipped,
    never silently trusted.  The verdict is read off the entry statuses:
    "mismatch" if any entry disagrees, even beside skips, else
    "incomplete" if any was skipped, else "all-match".
    """
    budget = budget or EnumBudget()
    entries = []
    # minima certified for a row bound those of every later row, a subcode;
    # skips (space shrinks with i) only come before the first certified row
    known = (0, 0)
    rows = distance_table(p, e, m)  # validates p, m and e before build_field
    field = build_field(p, m)
    for row in rows:
        try:
            res = _scan_min_weights(CodeSpec(p, m, e, row.i), budget, known)
        except BudgetExhausted:
            found, witness, status = (None, None), None, "skipped"
        else:
            known = found = (res.min_hamming, res.min_pair)
            witness = RingElement(field, res.pair_witness)
            status = "match" if found == (row.d_hamming, row.d_pair) else "mismatch"
        entries.append(
            FamilyEntry(
                row.i, row.dimension, row.d_hamming, found[0], row.d_pair, found[1],
                witness, status,
            )
        )
    statuses = {entry.status for entry in entries}
    if "mismatch" in statuses:
        verdict = "mismatch"
    elif "skipped" in statuses:
        verdict = "incomplete"
    else:
        verdict = "all-match"
    return VerificationReport(p, e, m, tuple(entries), verdict)


_EXHAUSTIVE_PAIR_LIMIT = 2**20


def verify_run_identity(field: Field, n: int) -> IdentityReport:
    """Check d_p = d_H + L over all ordered word pairs with 0 < d_H < n.

    Exhaustive, so it requires q^(2n) ordered pairs to stay under 2^20.
    Pairs with d_H = n are checked for d_p = n instead; d_H = 0 pairs
    are out of scope.
    """
    _check_int("pair read length", n, 2)
    q = field.q
    # q >= 2, so n > 10 means q^(2n) > 2^20 without paying for the power
    if n > 10 or q ** (2 * n) > _EXHAUSTIVE_PAIR_LIMIT:
        raise ValueError("exhaustive mode needs q^(2n) <= 2^20")
    words = list(itertools.product(range(q), repeat=n))
    checked = 0
    full_support = 0
    violations = []
    for x, y in itertools.product(words, repeat=2):
        mask = disagreement(x, y)
        d_h = sum(mask)
        if d_h == 0:
            continue
        d_p = pair_count(mask)
        if d_h == n:  # full support: d_p = n, and no block count applies
            full_support += 1
            blocks, expected = -1, n
        else:
            checked += 1
            blocks = block_count(mask)
            expected = d_h + blocks
        if d_p != expected:
            violations.append(IdentityViolation(x, y, d_h, blocks, d_p))
    return IdentityReport(q, n, checked, full_support, tuple(violations))
