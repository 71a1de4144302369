import random
import tracemalloc

import pytest

from paircodes import channel
from paircodes.channel import (
    correctability_experiment,
    decode_min_pair_distance,
    inject_pair_errors,
)
from paircodes.codes import (
    CodeSpec,
    closed_form_pair_distance,
    contains,
    encode,
    generator,
)
from paircodes.gf import Field, build_field
from paircodes.oracle import BudgetExhausted, EnumBudget
from paircodes.pairmetrics import PairVector, pair_read, pair_seq_distance
from paircodes.polyring import Poly, vector, zero_ring_element

F2 = build_field(2, 1)


def every_codeword(spec):
    """Codewords j = 0 .. q^k - 1: encode of the base-q digits of j.

    Built by encode alone, so it checks the book and the oracle's walk,
    both read off codes.digit_vectors, against an independent list.
    """
    field = spec.field()
    q, k = spec.q, spec.dimension
    return [
        encode(spec, Poly(field, tuple(j // q**d % q for d in range(k))))
        for j in range(q**k)
    ]


def test_inject_zero_errors_is_identity():
    u = pair_read(generator(CodeSpec(3, 1, 2, 4)))
    v, positions = inject_pair_errors(u, 0, seed=5)
    assert v == u
    assert positions == ()


def test_inject_distance_equals_t():
    u = pair_read(vector(F2, (1, 0, 1, 1, 0, 0, 0, 1)))
    for t in range(9):
        v, positions = inject_pair_errors(u, t, seed=100 + t)
        assert pair_seq_distance(u, v) == t
        assert len(positions) == t
        assert positions == tuple(k for k in range(u.n) if v.pairs[k] != u.pairs[k])


def test_inject_full_corruption_n2():
    u = pair_read(vector(F2, (1, 0)))
    v, _ = inject_pair_errors(u, 2, seed=1)
    assert pair_seq_distance(u, v) == 2


def test_inject_rejects_too_many():
    u = pair_read(vector(F2, (1, 0, 0)))
    with pytest.raises(ValueError):
        inject_pair_errors(u, 4, seed=0)


def test_inject_deterministic():
    u = pair_read(vector(F2, (1, 1, 0, 0, 1)))
    a = inject_pair_errors(u, 3, seed=77)
    b = inject_pair_errors(u, 3, seed=77)
    assert a == b
    c = inject_pair_errors(u, 3, seed=78)
    assert a != c


def test_decode_clean_reads():
    spec = CodeSpec(2, 1, 3, 5)
    for cw in every_codeword(spec):  # the zero word among them
        decoded = decode_min_pair_distance(spec, pair_read(cw))
        assert decoded is not None
        assert decoded.coeffs == cw.coeffs


def test_decode_tie_is_failure():
    # C_2 over F_2, n = 4: d_p = 4; a read two pair-corruptions toward the
    # generator is equidistant from it and the zero codeword
    spec = CodeSpec(2, 1, 2, 2)
    received = PairVector(F2, ((1, 0), (0, 1), (0, 0), (0, 0)))
    assert decode_min_pair_distance(spec, received) is None


def test_decode_membership():
    spec = CodeSpec(3, 1, 2, 4)
    u = pair_read(generator(spec))
    corrupted, _ = inject_pair_errors(u, 2, seed=9)
    decoded = decode_min_pair_distance(spec, corrupted)
    assert decoded is not None
    assert contains(spec, decoded)


def test_one_book_per_code_under_every_modulus():
    # GF(9) under its canonical modulus and under x^2 + x + 2: the generator
    # has F_3 coefficients, so both reads share one book
    spec = CodeSpec(3, 2, 1, 1)
    channel._codebook.cache_clear()
    for field in (build_field(3, 2), Field(3, 2, (2, 1, 1))):
        sent = generator(spec, field)
        decoded = decode_min_pair_distance(spec, pair_read(sent))
        assert decoded == sent
        assert decoded.field is field
    assert channel._codebook.cache_info().misses == 1


def test_decode_budget_exhausted():
    spec = CodeSpec(3, 1, 2, 1)
    received = pair_read(zero_ring_element(spec.field(), 9))
    with pytest.raises(BudgetExhausted):
        decode_min_pair_distance(spec, received, EnumBudget(max_codewords=100))


def test_zero_code_book_counts_a_64_bit_slot_per_plane():
    # the zero code has one codeword, yet its book holds n * q planes:
    # counted at one bit each, (2,12,1) at i = 2 would pass a budget of
    # 1000 words with 2^13 planes; at 64 bits each it needs 2^19
    spec = CodeSpec(2, 12, 1, 2)
    message = (
        "codebook of 1 codewords needs 524288 plane bits, over the budget of 64000"
    )
    with pytest.raises(BudgetExhausted, match=f"^{message}$"):
        channel._codebook(spec, spec.field(), 1000)


def _reference_decode(reads, received):
    # plain nearest-codeword search; a tie at the minimum is a failure
    dists = [pair_seq_distance(read, received) for _, read in reads]
    best = min(dists)
    if dists.count(best) > 1:
        return None
    return reads[dists.index(best)][0]


# q in {2, 3, 4, 8, 9}, odd and even n, with i = 0 and i = n among them
REFERENCE_SPECS = [
    (2, 1, 3, i) for i in (0, 1, 3, 5, 8)
] + [
    (3, 1, 1, 0), (3, 1, 1, 3), (3, 1, 2, 2), (3, 1, 2, 4), (3, 1, 2, 9),
    (2, 2, 2, 0), (2, 2, 2, 1), (2, 2, 2, 4), (2, 2, 3, 3),
    (2, 3, 1, 0), (2, 3, 2, 2), (3, 2, 1, 0), (3, 2, 1, 1), (3, 2, 1, 3),
]


def test_decode_matches_plain_reference():
    rng = random.Random(2011)
    ties = 0
    for p, m, e, i in REFERENCE_SPECS:
        spec = CodeSpec(p, m, e, i)
        reads = [(w.coeffs, pair_read(w)) for w in every_codeword(spec)]
        guarantee = (closed_form_pair_distance(spec) - 1) // 2
        for t in range(min(spec.n, guarantee + 2) + 1):
            for _ in range(4):
                _, clean = reads[rng.randrange(len(reads))]
                received, _ = inject_pair_errors(clean, t, rng.randrange(2**63))
                expected = _reference_decode(reads, received)
                got = decode_min_pair_distance(spec, received)
                assert (None if got is None else got.coeffs) == expected, (spec, t, received)
                ties += expected is None
    assert ties > 0


# the counter adds the n agreement sets four at a time: n = 2, 3, 9 and
# 27 leave a zero-padded last group; every t up to n is tried, so the
# zero codes (i = n) read t away from their one word and (2,1,3,1) is
# read well past its guarantee: many reads lie 4 or more away from
# every codeword
EDGE_SPECS = [
    (2, 1, 1, 0), (2, 1, 1, 1), (2, 1, 1, 2), (3, 1, 1, 1), (3, 1, 1, 3),
    (2, 1, 3, 1), (2, 1, 3, 8), (2, 2, 2, 4),
    (3, 1, 2, 1), (3, 1, 2, 3), (3, 1, 2, 9),
    (3, 1, 3, 21), (3, 1, 3, 23), (3, 1, 3, 27),
]


def test_decode_counter_edges_match_plain_reference():
    rng = random.Random(1607)
    ties = far = 0
    for p, m, e, i in EDGE_SPECS:
        spec = CodeSpec(p, m, e, i)
        reads = [(w.coeffs, pair_read(w)) for w in every_codeword(spec)]
        q = spec.q
        received = [
            inject_pair_errors(reads[rng.randrange(len(reads))][1], t, rng.randrange(2**63))[0]
            for t in range(spec.n + 1) for _ in range(3)
        ] + [  # uniformly random reads, most of them far from every word
            PairVector(spec.field(), tuple(divmod(rng.randrange(q * q), q) for _ in range(spec.n)))
            for _ in range(8)
        ]
        for read in received:
            expected = _reference_decode(reads, read)
            got = decode_min_pair_distance(spec, read)
            assert (None if got is None else got.coeffs) == expected, (spec, read)
            ties += expected is None
            far += min(pair_seq_distance(r, read) for _, r in reads) >= 4
    assert ties > 0
    assert far > 0


def test_cached_book_is_small():
    # the (2,1,5,18) book holds 16,384 words of length 32
    spec = CodeSpec(2, 1, 5, 18)
    field = spec.field()
    channel._codebook.cache_clear()
    tracemalloc.start()
    try:
        book = channel._codebook(spec, field, EnumBudget().max_codewords)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(book) == spec.size == 16_384
    assert held < 2_000_000


# GF(25) and GF(27): odd p with m > 1; (2,1,2,2) has g = 1 + x^2, so a
# zero generator coefficient (gamma = 0) lands on some digit of every
# position; (2,9,1,1) has q = 512, (257,1,1,256) q = 257
BOOK_SPECS = REFERENCE_SPECS + [
    (5, 2, 1, 2), (5, 2, 1, 3), (3, 3, 1, 1), (3, 3, 2, 7),
    (2, 1, 2, 2), (2, 9, 1, 1), (257, 1, 1, 256),
]


def test_codebook_matches_enumeration():
    for p, m, e, i in BOOK_SPECS:
        spec = CodeSpec(p, m, e, i)
        field = spec.field()
        words = every_codeword(spec)
        expected = [[0] * field.q for _ in range(spec.n)]
        for j, word in enumerate(words):
            for k, v in enumerate(word.coeffs):
                expected[k][v] |= 1 << j
        book = channel._codebook(spec, field, EnumBudget().max_codewords)
        assert len(book) == len(words) == spec.size
        assert [list(column) for column in book.planes] == expected, spec
        assert all(book.word(j) == word.coeffs for j, word in enumerate(words)), spec


def _build_traced(spec):
    """The book of spec, built cold, with the bytes it holds and the build's peak."""
    field = spec.field()
    channel._codebook.cache_clear()
    tracemalloc.start()
    try:
        book = channel._codebook(spec, field, EnumBudget().max_codewords)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        channel._codebook.cache_clear()
    return book, held, peak


def test_book_build_peak_is_held_size():
    # (2,1,5,14) holds 262,144 words of length 32: 2.2 MB of planes
    book, held, peak = _build_traced(CodeSpec(2, 1, 5, 14))
    assert len(book) == 262_144
    assert peak < 1.25 * held


def test_odd_p_book_build_peak_is_held_size():
    # (3,1,3,14) holds 1,594,323 words of length 27 over F_3: 17 MB of planes
    book, held, peak = _build_traced(CodeSpec(3, 1, 3, 14))
    assert len(book) == 1_594_323
    assert peak < 1.25 * held


def test_experiment_zero_errors():
    assert correctability_experiment(CodeSpec(3, 1, 2, 4), 0, 20, seed=3) == (1.0, 20)


def test_experiment_within_guarantee():
    # d_p = 6 corrects t = 2; d_p = 3 corrects t = 1
    rate, _ = correctability_experiment(CodeSpec(3, 1, 2, 4), 2, 30, seed=11)
    assert rate == 1.0
    rate, _ = correctability_experiment(CodeSpec(2, 1, 2, 1), 1, 30, seed=12)
    assert rate == 1.0


def test_experiment_refuses_a_bad_error_count_before_building_the_book(monkeypatch):
    def no_book(*args):
        raise AssertionError("the codebook was built for a refused error count")

    monkeypatch.setattr(channel, "_codebook", no_book)
    for t in (-1, 9):
        message = rf"error count must be an integer in \[0, 8\], got {t}$"
        with pytest.raises(ValueError, match=message):
            correctability_experiment(CodeSpec(2, 1, 3, 2), t, 5, 1)


def test_experiment_refuses_an_over_budget_book_before_building_a_field(monkeypatch):
    def no_field(self):
        raise AssertionError("a field was built for a refused book")

    monkeypatch.setattr(CodeSpec, "field", no_field)
    # the zero code at m = 28: one word, but 2^29 planes of 64 bits
    message = "codebook of 1 codewords needs 34359738368 plane bits, over the budget of 640000000"
    with pytest.raises(BudgetExhausted, match=f"^{message}$"):
        correctability_experiment(CodeSpec(2, 28, 1, 2), 0, 1, 1)
    message = "codebook of 32 codewords exceeds the budget of 31"
    with pytest.raises(BudgetExhausted, match=f"^{message}$"):
        correctability_experiment(CodeSpec(2, 1, 3, 3), 0, 1, 1, EnumBudget(max_codewords=31))


def test_experiment_deterministic():
    a = correctability_experiment(CodeSpec(3, 1, 2, 4), 2, 15, seed=21)
    b = correctability_experiment(CodeSpec(3, 1, 2, 4), 2, 15, seed=21)
    assert a == b


def test_experiment_success_implies_membership():
    # the trials the experiment counts, run by hand: d_p = 8 corrects t = 2
    spec = CodeSpec(2, 1, 3, 5)
    rng = random.Random(8)
    for _ in range(25):
        message = Poly(F2, tuple(rng.randrange(2) for _ in range(spec.dimension)))
        transmitted = encode(spec, message)
        received, _ = inject_pair_errors(pair_read(transmitted), 2, rng.randrange(2**63))
        decoded = decode_min_pair_distance(spec, received)
        assert decoded == transmitted
        assert contains(spec, decoded)
        assert pair_seq_distance(pair_read(transmitted), received) == 2


def _experiment_peak(trials):
    """tracemalloc peak of one t = 1 experiment of the given trials."""
    tracemalloc.start()
    try:
        correctability_experiment(CodeSpec(3, 1, 2, 4), 1, trials, seed=1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_experiment_memory_is_flat_in_trials():
    # the untraced warm-up builds the book, imports random and fills the
    # interpreter's free lists, which tracemalloc would count once
    correctability_experiment(CodeSpec(3, 1, 2, 4), 1, 2000, seed=1)
    assert _experiment_peak(4000) - _experiment_peak(1000) < 64_000


def test_experiment_validates_trials():
    with pytest.raises(ValueError):
        correctability_experiment(CodeSpec(2, 1, 2, 1), 1, 0, seed=1)
