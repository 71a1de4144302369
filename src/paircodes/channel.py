"""Pair-read channel simulation: error injection and nearest decoding.

The channel reads overlapping symbol pairs, so received words live in
pair-sequence space and need not be consistent reads of any word.  The
decoder is exhaustive nearest-codeword search in that space; a code
with minimum pair distance d corrects t pair errors whenever
d >= 2t + 1, and the experiment below validates exactly that.

The search is bit-sliced: the codebook holds one big int per (position,
symbol) whose bit j marks codeword j, so a single AND finds every
codeword agreeing with one received pair.  A held book costs n * q bits
per codeword; while it is built, n bytes per codeword (more when a
symbol needs more than one byte).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .codes import CodeSpec
from .gf import Field
from .oracle import BudgetExhausted, EnumBudget, _codeword_stream
from .pairmetrics import PairVector, pair_read
from .polyring import RingElement


@dataclass(frozen=True)
class PairErrorPattern:
    """Which pair positions were corrupted and what was written there."""

    positions: tuple[int, ...]
    replacements: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class TrialOutcome:
    transmitted: RingElement
    received: PairVector
    decoded: RingElement | None
    success: bool


def inject_pair_errors(
    u: PairVector, t: int, seed: int
) -> tuple[PairVector, PairErrorPattern]:
    """Corrupt exactly t distinct pair positions of u, seeded.

    Positions are drawn uniformly without replacement; each hit pair is
    replaced by a uniformly chosen different pair, so the corrupted read
    sits at pair-sequence distance exactly t from u (and may well be an
    inconsistent read).
    """
    n = u.n
    if not 0 <= t <= n:
        raise ValueError(f"error count must lie in [0, {n}], got {t}")
    rng = random.Random(seed)
    positions = tuple(sorted(rng.sample(range(n), t)))
    q = u.field.q
    pairs = list(u.pairs)
    replacements = []
    for pos in positions:
        a, b = pairs[pos]
        original = a * q + b
        z = rng.randrange(q * q - 1)
        if z >= original:
            z += 1
        new_pair = (z // q, z % q)
        pairs[pos] = new_pair
        replacements.append(new_pair)
    return (
        PairVector(u.field, tuple(pairs)),
        PairErrorPattern(positions, tuple(replacements)),
    )


# translate tables: byte s -> b"1" if bit b of s is set, else b"0"
_BIT_DIGITS = tuple((b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8))


class _Codebook:
    """Every codeword of a code, bit-sliced by position and symbol.

    Bit j of planes[k][v] is set iff codeword j has symbol v at
    position k; codewords are numbered zero first, then in ascending
    message order.  len() is the number of codewords.
    """

    # a plain class: a dataclass would add about 1 ms to every import
    __slots__ = ("planes", "size")

    def __init__(self, planes: tuple[tuple[int, ...], ...], size: int):
        self.planes = planes
        self.size = size

    def __len__(self) -> int:
        return self.size

    def word(self, j: int) -> tuple[int, ...]:
        """Coefficients of codeword j."""
        return tuple(
            next(v for v, plane in enumerate(column) if plane >> j & 1)
            for column in self.planes
        )


@lru_cache(maxsize=8)
def _codebook(spec: CodeSpec, field: Field, max_codewords: int) -> _Codebook:
    if spec.size > max_codewords:
        raise BudgetExhausted(
            f"codebook of {spec.size} codewords exceeds the budget of {max_codewords}",
            space=spec.size,
        )
    n = spec.n
    q = field.q
    bits = (q - 1).bit_length()
    width = (bits + 7) // 8  # bytes per symbol, little-endian
    rows = bytearray(n * width)  # one row per codeword, zero first
    if spec.dimension >= 1:
        budget = EnumBudget(max_codewords=max_codewords, reduce_by_scalars=False)
        for word in _codeword_stream(spec, field, budget):
            if width == 1:
                rows += bytes(word)
            else:
                rows += b"".join(s.to_bytes(width, "little") for s in word)
    full = (1 << spec.size) - 1
    planes = []
    for k in range(n):
        # reversed byte columns put codeword j at bit j of int(..., 2)
        columns = [rows[(k * width + d) :: n * width][::-1] for d in range(width)]
        by_symbol = [full]
        for b in range(bits):
            hi = int(columns[b // 8].translate(_BIT_DIGITS[b % 8]), 2)
            lo = full ^ hi
            by_symbol = [x & lo for x in by_symbol] + [x & hi for x in by_symbol]
        planes.append(tuple(by_symbol[:q]))
    return _Codebook(tuple(planes), spec.size)


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
    rather than resolved arbitrarily.
    """
    if budget is None:
        budget = EnumBudget()
    if received.field.p != spec.p or received.field.m != spec.m:
        raise ValueError("received word's field does not match the code")
    if received.n != spec.n:
        raise ValueError(f"length mismatch: {received.n} vs {spec.n}")
    book = _codebook(spec, received.field, budget.max_codewords)
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
    best = (1 << book.size) - 1
    for digit in reversed(counter):  # keep the most agreements, top bit first
        if best & digit:
            best &= digit
    if best & (best - 1):
        return None
    return RingElement(received.field, book.word(best.bit_length() - 1))


def correctability_experiment(
    spec: CodeSpec,
    t: int,
    trials: int,
    seed: int,
    budget: EnumBudget | None = None,
) -> tuple[float, list[TrialOutcome]]:
    """Transmit random codewords, inject t pair errors, decode, tally.

    Trials are independently seeded from (seed, trial index), so results
    are bit-for-bit reproducible.  When 2t + 1 <= d_p the decoder must
    recover every trial; larger t is permitted for exploratory runs.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if budget is None:
        budget = EnumBudget()
    field = spec.field()
    book = _codebook(spec, field, budget.max_codewords)
    outcomes = []
    successes = 0
    for k in range(trials):
        rng = random.Random(seed * 1_000_003 + k)
        transmitted = RingElement(field, book.word(rng.randrange(len(book))))
        clean = pair_read(transmitted)
        received, _pattern = inject_pair_errors(clean, t, rng.randrange(2**63))
        decoded = decode_min_pair_distance(spec, received, budget)
        success = decoded is not None and decoded.coeffs == transmitted.coeffs
        successes += success
        outcomes.append(TrialOutcome(transmitted, received, decoded, success))
    return successes / trials, outcomes
