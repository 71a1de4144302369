"""Symbol-pair weights and distances for repeated-root cyclic codes.

The cyclic codes of length p^e over F_{p^m} are exactly the powers
<(x-1)^i>; both their minimum Hamming distance and minimum pair
distance are known in closed form.  This package implements the field
and ring arithmetic, the pair metric, the closed forms, a brute-force
oracle that certifies every formula branch at desk scale, and a
pair-read channel experiment for the correctability guarantee.
"""

from .gf import Field, build_field, is_irreducible, is_prime
from .polyring import (
    Poly,
    RingElement,
    cyclic_shift,
    ring_one,
    vector,
    x_minus_one_power,
    zero_ring_element,
)
from .pairmetrics import (
    PairVector,
    hamming_distance,
    hamming_weight,
    pair_distance,
    pair_read,
    pair_seq_distance,
    pair_weight,
    run_count,
)
from .codes import (
    CodeSpec,
    DistanceRecord,
    closed_form_hamming_distance,
    closed_form_pair_distance,
    contains,
    distance_table,
    encode,
    generator,
    hamming_branch,
    is_mds_pair,
    pair_branch,
)
from .oracle import (
    BudgetExhausted,
    EnumBudget,
    FamilyEntry,
    IdentityReport,
    VerificationReport,
    codeword_class_count,
    enumerate_codewords,
    min_hamming_weight_bruteforce,
    min_pair_weight_bruteforce,
    verify_family,
    verify_run_identity,
)
from .channel import (
    correctability_experiment,
    decode_min_pair_distance,
    inject_pair_errors,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "build_field",
    "is_irreducible",
    "is_prime",
    "Poly",
    "RingElement",
    "cyclic_shift",
    "ring_one",
    "vector",
    "x_minus_one_power",
    "zero_ring_element",
    "PairVector",
    "hamming_distance",
    "hamming_weight",
    "pair_distance",
    "pair_read",
    "pair_seq_distance",
    "pair_weight",
    "run_count",
    "CodeSpec",
    "DistanceRecord",
    "closed_form_hamming_distance",
    "closed_form_pair_distance",
    "contains",
    "distance_table",
    "encode",
    "generator",
    "hamming_branch",
    "is_mds_pair",
    "pair_branch",
    "BudgetExhausted",
    "EnumBudget",
    "FamilyEntry",
    "IdentityReport",
    "VerificationReport",
    "codeword_class_count",
    "enumerate_codewords",
    "min_hamming_weight_bruteforce",
    "min_pair_weight_bruteforce",
    "verify_family",
    "verify_run_identity",
    "correctability_experiment",
    "decode_min_pair_distance",
    "inject_pair_errors",
]
