"""
Certifying the closed forms against a brute-force oracle
========================================================

The formulas are only trustworthy because every branch can be checked
by exhaustive search at desk scale.  The oracle enumerates the
codewords of the monic messages over F_p (the F_p-subcode, one word per
scalar class, holds every minimum weight over F_{p^m}), measures them,
and compares against the closed forms.  It stops a scan early only
once its best weights meet lower bounds proven without the formulas
(see the oracle module docstring).
A budget keeps the search honest: anything too large to finish is
reported as skipped, never silently trusted.
"""

from paircodes import EnumBudget, verify_family

# Full verification of the length-9 ternary family: ten codes, every
# entry must match both closed forms.
report = verify_family(3, 2, 1)
print(f"family p=3, e=2, m=1: verdict {report.verdict}")
print(f"{'i':>3} {'formula':>14} {'oracle':>13}  witness (min pair weight)")
for entry in report.entries:
    formula = f"dH={entry.formula_d_hamming} dp={entry.formula_d_pair}"
    oracle = f"dH={entry.oracle_d_hamming} dp={entry.oracle_d_pair}"
    print(f"{entry.i:>3} {formula:>14} {oracle:>13}  {entry.witness.coeffs}")
print()

# The same verification over the extension field F_4.
report = verify_family(2, 2, 2)
print(f"family p=2, e=2, m=2 over F_4: verdict {report.verdict}")
print()

# With a tight budget, large codes are skipped and the verdict says so.
report = verify_family(3, 2, 1, EnumBudget(max_codewords=50))
skipped = [e.i for e in report.entries if e.status == "skipped"]
print(f"with a 50-codeword budget: verdict {report.verdict}, skipped i={skipped}")
