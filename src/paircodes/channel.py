"""Pair-read channel simulation: error injection and nearest decoding.

The channel reads overlapping symbol pairs, so received words live in
pair-sequence space and need not be consistent reads of any word.  The
decoder is exhaustive nearest-codeword search in that space; a code
with minimum pair distance d corrects t pair errors whenever
d >= 2t + 1, and the experiment below validates exactly that.

The search is bit-sliced: the codebook holds one big int per (position,
symbol) whose bit j marks codeword j, so a single AND finds every
codeword agreeing with one received pair.  A held book costs n * q bits
per codeword, and a book over 64 bits per budgeted codeword is refused.
Codeword j is encode(f) for f with the base-q digits of j, and the book
is built from the rotations in codes.digit_vectors without walking the
codewords: each position's planes grow p-fold per base-p digit b*m + d
of j, which adds rotation b times p^d (see _add_digit), by p - 1
shift-ORs per nonzero plane per digit: at most O(p * q) bits of big-int
work per codeword and position, and none for an empty plane.  The
generator has F_p coefficients, so the planes do not depend on the
modulus that presents F_{p^m}: one book per code, shared by every
modulus.
"""

from __future__ import annotations

from functools import lru_cache

from .codes import CodeSpec, digit_vectors
from .gf import Field, _check_int, _digits
from .oracle import BudgetExhausted, EnumBudget, _count_text
from .pairmetrics import PairVector, pair_read
from .polyring import RingElement, _mul_x_minus_one_power


def inject_pair_errors(
    u: PairVector, t: int, seed: int
) -> tuple[PairVector, tuple[int, ...]]:
    """Corrupt exactly t distinct pair positions of u, seeded.

    Returns the corrupted read and its corrupted positions, ascending.
    Positions are drawn uniformly without replacement; each hit pair is
    replaced by a uniformly chosen different pair, so the corrupted read
    sits at pair-sequence distance exactly t from u (and may well be an
    inconsistent read).
    """
    _check_int("error count", t, 0, u.n)
    _check_int("seed", seed)
    import random  # imported on use: table, verify and mds never draw

    rng = random.Random(seed)
    positions = tuple(sorted(rng.sample(range(u.n), t)))
    q = u.field.q
    pairs = list(u.pairs)
    for pos in positions:
        a, b = pairs[pos]
        original = a * q + b
        z = rng.randrange(q * q - 1)
        if z >= original:
            z += 1
        pairs[pos] = (z // q, z % q)
    return PairVector(u.field, tuple(pairs)), positions


class _Codebook:
    """Every codeword of a code, bit-sliced by position and symbol.

    Bit j of planes[k][v] is set iff codeword j, encode(f) for the
    message f whose coefficients are the base-q digits of j, has symbol v
    at position k; len() is the number of codewords.  The generator has
    F_p coefficients, so no plane depends on the modulus that presents
    F_{p^m}: one book per code, shared by every modulus, built under
    spec.field() and cached by _codebook.
    """

    # not a Record: a book is cached by its arguments, never compared or hashed
    __slots__ = ("planes", "spec", "field", "size")

    def __init__(self, spec: CodeSpec, field: Field, max_codewords: int):
        if spec.size > max_codewords:
            raise BudgetExhausted(
                f"codebook of {_count_text(spec.size)} codewords exceeds the budget"
                f" of {max_codewords}",
                space=spec.size,
            )
        bits = spec.size * spec.n * spec.q
        if bits > 64 * max_codewords:  # 8 bytes of planes per budgeted codeword
            raise BudgetExhausted(
                f"codebook of {spec.size} codewords needs {_count_text(bits)}"
                f" plane bits, over the budget of {64 * max_codewords}",
                space=spec.size,
            )
        p, q = field.p, field.q
        rotations = list(digit_vectors(spec))
        units = [p**d for d in range(field.m)]  # base-p digit b*m + d scales by p^d
        planes = []
        for k in range(spec.n):
            by_symbol, span = [1] + [0] * (q - 1), 1
            for rot in rotations:
                for unit in units:
                    by_symbol = _add_digit(by_symbol, span, p, rot[k], unit)
                    span *= p
            planes.append(tuple(by_symbol))
        self.planes, self.spec, self.field = tuple(planes), spec, field
        self.size = spec.size  # len() runs on every decode

    def __len__(self) -> int:
        return self.size

    def word(self, j: int) -> tuple[int, ...]:
        """Coefficients of codeword j: its base-q digits times (x - 1)^i."""
        message = _digits(j, self.field.q, self.spec.n)  # zero-padded to length n
        return tuple(_mul_x_minus_one_power(self.field, message, self.spec.i))


_codebook = lru_cache(maxsize=8)(_Codebook)


def _add_digit(by_symbol: list[int], span: int, p: int, g: int, unit: int) -> list[int]:
    """Planes over p * span codewords from the planes over the first span.

    Codeword a*span + j (0 <= a < p, j < span) has codeword j's symbol
    plus a * gamma, for gamma = g * unit with g in F_p and unit = p^d, so
    old plane u is block a of new plane u + a*gamma: u with its digit d
    raised by a*g mod p, no carries.  Block 0 of new plane u is old plane
    u, and each nonzero old plane is scattered to its blocks 1 .. p-1, so
    empty planes cost nothing; g = 0 repeats every plane p times.
    """
    out = list(by_symbol)
    for u, plane in enumerate(by_symbol):
        if plane:
            digit = u // unit % p
            rest = u - digit * unit  # u with digit d zeroed
            for a in range(1, p):
                out[rest + (digit + a * g) % p * unit] |= plane << a * span
    return out


def decode_min_pair_distance(
    spec: CodeSpec, received: PairVector, budget: EnumBudget | None = None
) -> RingElement | None:
    """Nearest codeword in pair-sequence distance, or None on a tie.

    Exhaustive maximum-likelihood search over every codeword (scalar
    reduction would merge words that decode differently), bit-sliced:
    the codewords agreeing with the read at position k are the bits of
    planes[k][a] & planes[k+1][b] for the received pair (a, b).  These n
    agreement sets are summed per codeword in a bit-sliced counter, and
    the codewords with the most agreements are at minimum distance.  A
    tie between distinct codewords is reported as an ambiguous failure
    rather than resolved arbitrarily.  There is one book per code, shared
    by every modulus: it is built under spec.field(), and the decoded
    word is given the read's field.
    """
    if budget is None:
        budget = EnumBudget()
    field = spec.check(received.field, received.n)
    book = _codebook(spec, spec.field(), budget.max_codewords)
    planes = book.planes
    counter: list[int] = []  # counter[b] holds bit b of every agreement count
    for (a, b), here, there in zip(received.pairs, planes, planes[1:] + planes[:1]):
        carry = here[a] & there[b]
        for bit, digit in enumerate(counter):  # ripple half-adders
            if not carry:
                break
            counter[bit] = digit ^ carry
            carry &= digit
        else:
            if carry:
                counter.append(carry)
    best = (1 << len(book)) - 1
    for digit in reversed(counter):  # keep the most agreements, top bit first
        if best & digit:
            best &= digit
    if best & (best - 1):
        return None
    return RingElement(field, book.word(best.bit_length() - 1))


def correctability_experiment(
    spec: CodeSpec,
    t: int,
    trials: int,
    seed: int,
    budget: EnumBudget | None = None,
) -> tuple[float, int]:
    """Transmit random codewords, inject t pair errors, decode, tally.

    Returns (successes / trials, successes): only the count is kept, so
    memory stays flat in trials.  Trials are independently seeded from
    (seed, trial index), so results are bit-for-bit reproducible.  When
    2t + 1 <= d_p the decoder must recover every trial; larger t is
    permitted for exploratory runs.
    """
    _check_int("trials", trials, 1)
    _check_int("seed", seed)
    _check_int("error count", t, 0, spec.n)
    import random

    if budget is None:
        budget = EnumBudget()
    field = spec.field()
    book = _codebook(spec, field, budget.max_codewords)
    successes = 0
    for k in range(trials):
        rng = random.Random(seed * 1_000_003 + k)
        transmitted = RingElement(field, book.word(rng.randrange(len(book))))
        clean = pair_read(transmitted)
        received, _ = inject_pair_errors(clean, t, rng.randrange(2**63))
        decoded = decode_min_pair_distance(spec, received, budget)
        successes += decoded is not None and decoded.coeffs == transmitted.coeffs
    return successes / trials, successes
