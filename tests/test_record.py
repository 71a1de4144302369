"""The frozen records behave as the dataclasses they replaced did.

Every record type prints the exact dataclass form (Field the form it
printed before it became a record), compares equal only within its own
class, hashes as its field tuple and refuses mutation;
a fresh import of the package loads neither dataclasses nor typing,
nor random, which only the channel imports on use.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from paircodes._record import Record
from paircodes.codes import CodeSpec, DistanceRecord
from paircodes.gf import build_field
from paircodes.oracle import (
    EnumBudget,
    FamilyEntry,
    IdentityReport,
    IdentityViolation,
    VerificationReport,
    _ScanResult,
)
from paircodes.pairmetrics import PairVector
from paircodes.polyring import Poly, RingElement

SRC = Path(__file__).resolve().parents[1] / "src"

F2 = build_field(2, 1)
F9 = build_field(3, 2)
_F2 = "Field(p=2, m=1, modulus=(0, 1))"
_F9 = "Field(p=3, m=2, modulus=(1, 0, 1))"
_WORD = RingElement(F2, (1, 1, 0, 0))
_ENTRY = FamilyEntry(1, 3, 2, 2, 3, 3, _WORD, "match")
_READ = PairVector(F9, ((0, 8), (8, 3), (3, 0)))
_VIOLATION = IdentityViolation((0, 1), (1, 1), 1, 1, 3)

# one record of each type, with the repr the dataclass version printed
SAMPLES = [
    (F9, _F9),
    (Poly(F9, (1, 2, 0)), f"Poly(field={_F9}, coeffs=(1, 2))"),
    (RingElement(F9, (0, 8, 3)), f"RingElement(field={_F9}, coeffs=(0, 8, 3))"),
    (_READ, f"PairVector(field={_F9}, pairs=((0, 8), (8, 3), (3, 0)))"),
    (CodeSpec(2, 1, 3, 2), "CodeSpec(p=2, m=1, e=3, i=2)"),
    (
        DistanceRecord(1, 3, 2, 3, "3", True),
        "DistanceRecord(i=1, dimension=3, d_hamming=2, d_pair=3, branch='3', mds_pair=True)",
    ),
    (EnumBudget(), "EnumBudget(max_codewords=10000000)"),
    (
        _ENTRY,
        "FamilyEntry(i=1, dimension=3, formula_d_hamming=2, oracle_d_hamming=2,"
        " formula_d_pair=3, oracle_d_pair=3,"
        f" witness=RingElement(field={_F2}, coeffs=(1, 1, 0, 0)), status='match')",
    ),
    (
        VerificationReport(2, 2, 1, (_ENTRY,), "all-match"),
        "VerificationReport(p=2, e=2, m=1, entries=(FamilyEntry(i=1, dimension=3,"
        " formula_d_hamming=2, oracle_d_hamming=2, formula_d_pair=3, oracle_d_pair=3,"
        f" witness=RingElement(field={_F2}, coeffs=(1, 1, 0, 0)), status='match'),),"
        " verdict='all-match')",
    ),
    (
        _VIOLATION,
        "IdentityViolation(x=(0, 1), y=(1, 1), d_hamming=1, block_count=1, d_pair=3)",
    ),
    (
        IdentityReport(2, 2, 8, 2, (_VIOLATION,)),
        "IdentityReport(q=2, n=2, pairs_checked=8,"
        " full_support_pairs=2, violations=(IdentityViolation(x=(0, 1), y=(1, 1),"
        " d_hamming=1, block_count=1, d_pair=3),))",
    ),
    (
        _ScanResult(2, (1, 1, 0, 0), 3, (1, 1, 0, 0), 1),
        "_ScanResult(min_hamming=2, hamming_witness=(1, 1, 0, 0), min_pair=3,"
        " pair_witness=(1, 1, 0, 0), scanned=1)",
    ),
]
_IDS = [type(record).__name__ for record, _ in SAMPLES]


@pytest.mark.parametrize("record,text", SAMPLES, ids=_IDS)
def test_repr_is_the_dataclass_form(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record,text", SAMPLES, ids=_IDS)
def test_equal_records_hash_alike_and_refuse_mutation(record, text):
    twin = type(record)(*record._values())
    assert twin == record and twin is not record
    assert hash(twin) == hash(record) == hash(record._values())
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert repr(record) == text


def test_equality_needs_the_same_class():
    assert Poly(F2, (1, 1)) != RingElement(F2, (1, 1))
    assert RingElement(F2, (1, 1)) != RingElement(F2, (1, 0))
    assert RingElement(F2, (1, 1)) != (F2, (1, 1))
    assert CodeSpec(2, 1, 3, 2) != CodeSpec(2, 1, 3, 1)


def test_fields_defaults_and_keywords():
    assert EnumBudget._fields == ("max_codewords",)
    assert EnumBudget() == EnumBudget(max_codewords=10_000_000)
    assert CodeSpec(p=3, m=1, e=2, i=4) == CodeSpec(3, 1, 2, 4)
    assert Poly(coeffs=(1, 0), field=F2).coeffs == (1,)  # __post_init__ ran


def test_missing_or_unknown_field_is_a_type_error():
    with pytest.raises(TypeError):
        CodeSpec(2, 1, 3)
    with pytest.raises(TypeError):
        CodeSpec(2, 1, 3, 2, 0)
    with pytest.raises(TypeError):
        EnumBudget(budget=5)
    with pytest.raises(TypeError):
        RingElement(field=F2)


def test_a_field_without_default_cannot_follow_a_default():
    with pytest.raises(TypeError):

        class Bad(Record):
            first: int = 0
            second: int


def test_post_init_still_validates():
    with pytest.raises(ValueError):
        EnumBudget(0)


def test_import_loads_neither_dataclasses_nor_typing():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import paircodes; "
        "print(sorted({'dataclasses', 'typing', 'inspect', 'random'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"
