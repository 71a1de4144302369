"""The symbol-pair metric layer.

A length-n word x is read cyclically as overlapping adjacent pairs
(x_i, x_{i+1 mod n}).  Pair weight counts positions whose pair is not
(0, 0); pair distance counts positions where two words' pair reads
differ.  For 0 < d_H(x, y) < n the two metrics are linked exactly by

    d_p(x, y) = d_H(x, y) + L,

where L is the number of maximal cyclically-consecutive blocks in the
disagreement set.  Every comparison of two words reads one kernel on
plain sequences: disagreement gives the mask of differing positions,
whose count is d_H, whose pair_count is d_p and whose block_count is L.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

from ._record import Record
from .gf import Field, _check_int
from .polyring import RingElement, check_shape


class PairVector(Record):
    """A symbol-pair read: n ordered pairs over the field alphabet.

    Produced from a word, pair i is (x_i, x_{(i+1) mod n}) and adjacent
    pairs agree on the shared symbol.  Arbitrary PairVectors (corrupted
    channel reads) may be inconsistent; see consistent().
    """

    field: Field
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_int("pair read length", len(self.pairs), 2)
        pairs = tuple((a, b) for a, b in self.pairs)
        self.field.check_vec(chain.from_iterable(pairs))
        object.__setattr__(self, "pairs", pairs)

    @property
    def n(self) -> int:
        return len(self.pairs)

    def consistent(self) -> bool:
        """Whether every pair's right symbol matches the next pair's left."""
        n = self.n
        return all(
            self.pairs[i][1] == self.pairs[(i + 1) % n][0] for i in range(n)
        )


def pair_read(x: RingElement) -> PairVector:
    """The symbol-pair read vector of x; requires n >= 2."""
    c = x.coeffs
    n = x.n
    return PairVector(x.field, tuple((c[i], c[(i + 1) % n]) for i in range(n)))


def pair_count(word: Sequence) -> int:
    """Positions i of a plain sequence with word[i] or word[i+1 mod n] nonzero."""
    count = 0
    prev = word[-1]
    for cur in word:
        if prev or cur:
            count += 1
        prev = cur
    return count


def hamming_weight(x: RingElement) -> int:
    return x.n - x.coeffs.count(0)


def pair_weight(x: RingElement) -> int:
    """Number of positions i with (x_i, x_{i+1 mod n}) != (0, 0)."""
    _check_int("pair read length", x.n, 2)
    return pair_count(x.coeffs)


def disagreement(x: Sequence, y: Sequence) -> list[bool]:
    """The mask of positions where plain sequences x and y differ."""
    return [a != b for a, b in zip(x, y)]


def block_count(mask: Sequence) -> int:
    """Maximal cyclic runs of true entries in a mask, counted as run_count does."""
    starts = sum(1 for k, cur in enumerate(mask) if cur and not mask[k - 1])
    return starts or int(bool(mask[0]))  # no run starts: all false or all true


def hamming_distance(x: RingElement, y: RingElement) -> int:
    check_shape(x, y, "words")
    return sum(disagreement(x.coeffs, y.coeffs))


def pair_distance(x: RingElement, y: RingElement) -> int:
    """Positions where the pair reads of x and y differ (cyclic indices)."""
    check_shape(x, y, "words")
    _check_int("pair read length", x.n, 2)
    return pair_count(disagreement(x.coeffs, y.coeffs))


def pair_seq_distance(u: PairVector, v: PairVector) -> int:
    """Positionwise disagreement count of two raw pair sequences."""
    check_shape(u, v, "pair vectors")
    return sum(disagreement(u.pairs, v.pairs))


def run_count(x: RingElement, y: RingElement) -> int:
    """Number of maximal cyclic runs of positions where x and y differ.

    Runs are cyclic: indices n-1 and 0 are consecutive.  Full support is
    a single run by convention (the wrap makes all of Z_n one block).
    """
    check_shape(x, y, "words")
    return block_count(disagreement(x.coeffs, y.coeffs))
