"""
Decoding over a pair-read channel
=================================

The channel delivers overlapping symbol pairs, and a pair error
corrupts at least one symbol of one read.  Corrupted reads may be
inconsistent (adjacent pairs disagreeing on the shared symbol), so the
decoder works directly in pair-sequence space: exhaustive nearest
codeword, with ties reported as failures.  A code with minimum pair
distance d corrects t pair errors whenever d >= 2t + 1.
"""

from paircodes import (
    CodeSpec,
    closed_form_pair_distance,
    correctability_experiment,
    decode_min_pair_distance,
    generator,
    inject_pair_errors,
    pair_read,
    pair_seq_distance,
)

spec = CodeSpec(3, 1, 2, 4)  # n = 9, dimension 5, d_p = 6
d_p = closed_form_pair_distance(spec)
print(f"code <(x-1)^{spec.i}> of length {spec.n} over F_3: d_p = {d_p}")

# One transmission, by hand: corrupt two pair reads and decode.
transmitted = generator(spec)
clean = pair_read(transmitted)
received, positions = inject_pair_errors(clean, t=2, seed=42)
print("transmitted:", transmitted.coeffs)
print("corrupted positions:", positions)
print("received consistent read?", received.consistent())
print("pair-sequence distance:", pair_seq_distance(clean, received))
decoded = decode_min_pair_distance(spec, received)
print("decoded:", decoded.coeffs, "- recovered:", decoded == transmitted)
print()

# The guarantee, statistically: with t <= (d_p - 1) // 2 every seeded
# trial must decode to the transmitted word.
trials = 100
for spec, t, seed in [
    (CodeSpec(3, 1, 2, 4), 2, 7),
    (CodeSpec(3, 1, 2, 1), 1, 11),
    (CodeSpec(2, 1, 3, 5), 2, 3),
]:
    d_p = closed_form_pair_distance(spec)
    rate, _ = correctability_experiment(spec, t, trials, seed)
    print(
        f"p={spec.p} e={spec.e} i={spec.i}: d_p={d_p}, t={t}"
        f" (guarantee up to {(d_p - 1) // 2}), success rate {rate:.2f}"
        f" over {trials} trials"
    )
