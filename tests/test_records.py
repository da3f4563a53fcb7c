"""The contract of the eight record types: field names and order, repr,
equality and hash, fields that cannot be assigned, pickling, and what three
of them add (ProgressionFamily's checks on every construction path,
ConditionCheck's truth value, ScanResult's cached views).

The records are NamedTuples: _fields, _make and _replace stand where
dataclasses.fields and dataclasses.replace stood, and the two helpers below
fall back to those for frozen dataclass records.
"""

import dataclasses
import pickle

import pytest

from twistrank.classgroup import ClassGroupSummary
from twistrank.discriminants import NEGATIVE, POSITIVE, ConditionCheck, ProgressionFamily
from twistrank.selmer import TwistRecord, twist_record
from twistrank.stats import (
    FamilyReport,
    RearrangementCheck,
    ScanResult,
    _Family,
    rearrangement_check,
    scan_family,
)


def field_names(cls):
    if hasattr(cls, "_fields"):
        return cls._fields
    return tuple(f.name for f in dataclasses.fields(cls))


def replaced(record, **changes):
    if hasattr(record, "_replace"):
        return record._replace(**changes)
    return dataclasses.replace(record, **changes)


NEG2_8_A_POS = "<StollCase.NEG2_8_A_POS: 'NEG2_8_A_POS'>"
REPORT_REPR = (
    "FamilyReport(a=1, x=400, k=0, family_size=7, squarefree_count=61, "
    "h3_mean=Fraction(9, 7), avg_selmer_dim=Fraction(2, 7), "
    "certified_proportion_per_k={0: Fraction(6, 61), 1: Fraction(7, 61)}, "
    "certified_proportion_within_family={0: Fraction(6, 7), 1: Fraction(1, 1)}, "
    "theoretical={'low_rank_factor': Fraction(1, 2), 'density_constant': "
    "Fraction(1, 8), 'certified_density_bound': Fraction(1, 16), "
    "'average_dimension_bound': Fraction(1, 1)})"
)

# type -> (builds one instance afresh, its fields, its repr, whether it hashes)
RECORDS = {
    "ClassGroupSummary": (
        lambda: ClassGroupSummary(-3299, 27, 9, 2),
        ("delta", "class_number", "three_torsion", "three_rank"),
        "ClassGroupSummary(delta=-3299, class_number=27, three_torsion=9, three_rank=2)",
        True,
    ),
    "ProgressionFamily": (
        lambda: ProgressionFamily(4000, -4, 48, NEGATIVE),
        ("bound_x", "residue_m", "modulus_n", "sign"),
        "ProgressionFamily(bound_x=4000, residue_m=44, modulus_n=48, sign='negative')",
        True,
    ),
    "ConditionCheck": (
        lambda: ConditionCheck(False, "x"),
        ("ok", "failing_clause"),
        "ConditionCheck(ok=False, failing_clause='x')",
        True,
    ),
    "TwistRecord": (
        lambda: twist_record(1, 13),
        ("a", "d", "field_discriminant", "case", "selmer_dim", "rank_bound",
         "torsion_trivial"),
        f"TwistRecord(a=1, d=13, field_discriminant=-52, case={NEG2_8_A_POS}, "
        "selmer_dim=0, rank_bound=0, torsion_trivial=False)",
        True,
    ),
    "_Family": (
        lambda: _Family.of(-35),
        ("a", "case", "base", "primes"),
        "_Family(a=-35, case=<StollCase.NEG2_8_A_NEG: 'NEG2_8_A_NEG'>, base=140, "
        "primes=(5, 7))",
        True,
    ),
    "FamilyReport": (
        lambda: scan_family(1, 400).report,
        ("a", "x", "k", "family_size", "squarefree_count", "h3_mean",
         "avg_selmer_dim", "certified_proportion_per_k",
         "certified_proportion_within_family", "theoretical"),
        REPORT_REPR,
        False,  # its proportions are dicts
    ),
    "ScanResult": (
        lambda: scan_family(1, 400),
        ("report", "parameters", "case", "base", "class_numbers", "three_torsion",
         "computed"),
        f"ScanResult(report={REPORT_REPR}, parameters=[1, 13, 37, 61, 73, 85, 97], "
        f"case={NEG2_8_A_POS}, base=-4, class_numbers=array('q', [1, 2, 2, 6, 4, 4, 4]), "
        "three_torsion=array('q', [1, 1, 1, 3, 1, 1, 1]), "
        "computed=b'\\x01\\x01\\x01\\x01\\x01\\x01\\x01')",
        False,  # its parameters are a list
    ),
    "RearrangementCheck": (
        lambda: rearrangement_check([1, 3, 9], 2, 1),
        ("sample_mean", "small_fraction", "bound", "holds"),
        "RearrangementCheck(sample_mean=Fraction(13, 3), small_fraction=Fraction(2, 3), "
        "bound=Fraction(7, 8), holds=True)",
        True,
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    build, fields, text, hashable = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert field_names(type(record)) == fields
    assert repr(record) == text
    # a value built twice is equal, and hashes equal where its fields hash
    twin = build()
    assert twin is not record and twin == record
    if hashable:
        assert hash(twin) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record) and copy == record and repr(copy) == text


def progression_builders():
    family = ProgressionFamily(4000, 44, 48, NEGATIVE)
    yield lambda x, m, n, s: ProgressionFamily(x, m, n, s)
    yield lambda x, m, n, s: ProgressionFamily(bound_x=x, residue_m=m, modulus_n=n, sign=s)
    yield lambda x, m, n, s: replaced(family, bound_x=x, residue_m=m, modulus_n=n, sign=s)
    if hasattr(ProgressionFamily, "_make"):
        yield lambda x, m, n, s: ProgressionFamily._make((x, m, n, s))


def test_progression_family_is_checked_on_every_construction_path():
    builders = list(progression_builders())
    for build in builders:
        for bad in ((0, 1, 4, NEGATIVE), (10, 1, 0, NEGATIVE), (10, 1, 4, "zero")):
            with pytest.raises(ValueError):
                build(*bad)
        family = build(100, -1, 12, POSITIVE)
        assert type(family) is ProgressionFamily
        assert family == ProgressionFamily(100, 11, 12, POSITIVE)
        assert family.residue_m == 11
    family = ProgressionFamily(100, 11, 12, POSITIVE)
    # each field changed alone, the residue re-canonicalized under a new modulus
    assert replaced(family, residue_m=-1).residue_m == 11
    assert replaced(family, modulus_n=5).residue_m == 1
    for changes in ({"bound_x": 0}, {"modulus_n": -3}, {"sign": "+"}):
        with pytest.raises(ValueError):
            replaced(family, **changes)


def test_condition_check_is_its_verdict():
    assert not ConditionCheck(False, "x")
    assert ConditionCheck(True)
    assert ConditionCheck(True).failing_clause is None


def test_scan_result_views_are_built_once():
    result = scan_family(1, 400)
    assert result.records is result.records
    assert result.new_class_data is result.new_class_data
    assert [r.d for r in result.records] == result.parameters
    assert list(result.new_class_data) == sorted(-4 * d for d in result.parameters)
    # the views survive a pickle round trip, and the copy equals the original
    copy = pickle.loads(pickle.dumps(result))
    assert copy == result and copy.records == result.records
    assert isinstance(result.records[0], TwistRecord)
