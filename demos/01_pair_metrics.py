"""
Pair reads, pair weight, and the block-count identity
=====================================================

A word of length n over a finite field is read cyclically as n
overlapping pairs.  This demo walks through the basic metric layer:
the pair read itself, Hamming vs pair weight, and the exact identity
d_p = d_H + L linking the two metrics through the number of cyclic
runs in the disagreement set.
"""

from paircodes import (
    build_field,
    hamming_distance,
    hamming_weight,
    pair_distance,
    pair_read,
    pair_weight,
    run_count,
    vector,
    zero_ring_element,
)

f2 = build_field(2, 1)

# The pair read of (1,0,1,0,0): each position contributes the pair of
# itself and its right neighbour, wrapping at the end.
x = vector(f2, (1, 0, 1, 0, 0))
print("x          =", x.coeffs)
print("pair read  =", pair_read(x).pairs)
print("w_H(x)     =", hamming_weight(x))
print("w_p(x)     =", pair_weight(x))
print()

# Two isolated ones produce 4 nonzero pairs; move them together at the
# cyclic seam and one pair is shared, giving 3.
y = vector(f2, (1, 0, 0, 0, 1))
z = zero_ring_element(f2, 5)
print("y          =", y.coeffs)
print("pair read  =", pair_read(y).pairs)
print("w_p(y)     =", pair_weight(y))
print()

# The identity d_p = d_H + L: L counts maximal cyclically-consecutive
# blocks of disagreeing positions.  y disagrees with 0 at {0, 4},
# which wraps into a single block.
for word in (x, y):
    d_h = hamming_distance(word, z)
    d_p = pair_distance(word, z)
    blocks = run_count(word, z)
    print(
        f"word {word.coeffs}: d_H={d_h}, L={blocks}, d_p={d_p},"
        f" identity d_p == d_H + L: {d_p == d_h + blocks}"
    )
