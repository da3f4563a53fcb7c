"""Tests for the isogeny Selmer dimension of twists y^2 = x^3 - A*D^3.

The dimension formula is cross-checked against an independent route: the
parity term from the residue case plus twice the 3-rank obtained from the
brute-force group structure of the twist's field discriminant.
"""

import math

import pytest

from twistrank import selmer
from twistrank.arith import factorize
from twistrank.classgroup import (
    brute_force_group_structure,
    class_group_summary,
    summary_from_counts,
)
from twistrank.selmer import (
    StollCase,
    TwistRecord,
    ValidationError,
    _certify_twist,
    _record,
    selmer_dimension,
    twist_record,
    validate_coefficient,
)


# ---------------------------------------------------------------------------
# Coefficient and pair validation


@pytest.mark.parametrize(
    "a,case",
    [
        (1, StollCase.NEG2_8_A_POS),
        (37, StollCase.NEG2_8_A_POS),
        (61, StollCase.NEG2_8_A_POS),
        (-35, StollCase.NEG2_8_A_NEG),
        (-11, StollCase.NEG2_8_A_NEG),
        (13, StollCase.NEG5_A_POS),
        (-23, StollCase.NEG5_A_NEG),
    ],
)
def test_validate_coefficient_cases(a, case):
    assert validate_coefficient(a) is case


def test_case_parity_and_field():
    assert StollCase.NEG2_8_A_NEG.dimension_parity == 1
    assert StollCase.NEG2_8_A_POS.dimension_parity == 0
    assert StollCase.NEG5_A_NEG.dimension_parity == 0
    assert StollCase.NEG5_A_POS.dimension_parity == 1
    assert StollCase.NEG5_A_POS.uses_sqrt_3a
    assert not StollCase.NEG2_8_A_NEG.uses_sqrt_3a


@pytest.mark.parametrize("a", [0, 2, 4, 7, 9, 12, 25, 49, -1, -13, -45])
def test_validate_coefficient_rejections(a):
    with pytest.raises(ValidationError):
        validate_coefficient(a)


def test_validate_coefficient_rejection_messages():
    with pytest.raises(ValidationError, match="square-free"):
        validate_coefficient(25)
    with pytest.raises(ValidationError, match="mod 36"):
        validate_coefficient(2)


@pytest.fixture
def no_class_groups(monkeypatch):
    """Fail any class group computation: a rejected pair must not reach one."""

    def refuse(delta):
        raise AssertionError(f"class group of {delta} computed for a rejected pair")

    monkeypatch.setattr(selmer, "class_group_summary", refuse)


@pytest.mark.parametrize(
    "a,d", [(1, 2), (1, 4), (1, 12), (1, 49), (1, 0), (1, -11), (13, 26), (-35, 25)]
)
def test_validate_twist_pair_rejections(a, d, no_class_groups):
    with pytest.raises(ValidationError):
        twist_record(a, d)


def test_validate_twist_pair_rejection_messages(no_class_groups):
    with pytest.raises(ValidationError, match="square-free"):
        twist_record(1, 25)
    with pytest.raises(ValidationError, match="mod 12"):
        twist_record(1, 5)
    with pytest.raises(ValidationError, match="factor"):
        twist_record(13, 13)  # 13 ≡ 1 mod 12 but shares the factor 13


def test_twist_record_keeps_its_rejection_messages(no_class_groups):
    for a, d, message in [
        (1, 25, "D = 25 is not square-free"),
        (-35, 169, "D = 169 is not square-free"),
        (1, 5, "D = 5 is not ≡ 1 mod 12"),
        (-35, 0, "D must be a positive integer"),
        (13, 13, "D = 13 shares the factor 13 with A = 13"),
        (-35, 85, "D = 85 shares the factor 5 with A = -35"),
    ]:
        with pytest.raises(ValidationError) as err:
            twist_record(a, d)
        assert str(err.value) == message


def test_twist_record_refuses_past_the_scan_limit_before_factoring_d(
    monkeypatch, no_class_groups
):
    real_factorize = selmer.factorize
    pairs = [
        (1, 3000000000000000064000000000000000333),
        (1, 250000009),  # |delta| = 4D = 1000000036, though D is not square-free
        (13, 6410257),  # the sqrt(3A) case: |delta| = 12|A|D = 1000000092
    ]

    def factor_a_only(n):
        if any(n == d for _, d in pairs):
            raise AssertionError(f"D = {n} factored past the scan limit")
        return real_factorize(n)

    monkeypatch.setattr(selmer, "factorize", factor_a_only)
    for a, d in pairs:
        with pytest.raises(ValueError, match=r"^\|delta\| exceeds the scan limit 1000000000$"):
            twist_record(a, d)
    # the largest family twist of A = 1 inside the limit still certifies
    assert _certify_twist(1, 249999997)[1] == -999999988


# ---------------------------------------------------------------------------
# Field discriminants


@pytest.mark.parametrize(
    "a,d,delta",
    [
        (1, 1, -4),
        (1, 13, -52),
        (1, 61, -244),
        (37, 13, -1924),
        (-35, 1, 140),
        (13, 1, 156),
        (-23, 1, -276),
    ],
)
def test_twist_field_discriminant_frozen(a, d, delta):
    assert _certify_twist(a, d)[1] == delta


def squarefree_kernel(n: int) -> int:
    """n with each square factor divided out, its sign kept (trial division)."""
    kernel, m, p = (1 if n > 0 else -1), abs(n), 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        kernel *= p ** (e % 2)
        p += 1
    return kernel * m


def kernel_discriminant(a: int, d: int) -> int | None:
    """Field discriminant of the twist from the square-free kernel of its
    radicand, -A*D**3, or 3A*D**3 when -A ≡ 5 mod 9; None for a pair the
    formula refuses (D not square-free, or gcd(A, D) > 1)."""
    if squarefree_kernel(d) != d or math.gcd(a, d) > 1:
        return None
    radicand = 3 * a * d**3 if -a % 9 == 5 else -a * d**3
    kernel = squarefree_kernel(radicand)
    return kernel if kernel % 4 == 1 else 4 * kernel


def test_twist_field_discriminant_against_kernel_oracle():
    coefficients = [
        a for a in range(-299, 300)
        if a % 36 in (1, 13, 25) and squarefree_kernel(a) == a
    ]
    assert {validate_coefficient(a) for a in coefficients} == set(StollCase)
    for a in coefficients:
        for d in range(1, 1000, 12):
            want = kernel_discriminant(a, d)
            if want is None:
                with pytest.raises(ValidationError):
                    _certify_twist(a, d)
            else:
                assert _certify_twist(a, d) == (validate_coefficient(a), want), (a, d)


def test_twist_field_discriminant_is_fundamental():
    from twistrank.discriminants import is_fundamental

    for a in (1, 37, 61, -35, 13, -23):
        for d in (1, 13, 37, 49 + 12, 73):
            try:
                _, delta = _certify_twist(a, d)
            except ValidationError:
                continue
            assert is_fundamental(delta), (a, d)


# ---------------------------------------------------------------------------
# Dimensions


@pytest.mark.parametrize(
    "a,d,dim",
    [
        (1, 1, 0),
        (1, 13, 0),
        (1, 61, 2),  # delta = -244 has 3-rank 1
        (-35, 1, 1),
        (13, 1, 1),
        (-23, 1, 0),
    ],
)
def test_selmer_dimension_frozen(a, d, dim):
    assert selmer_dimension(a, d) == dim


def test_selmer_dimension_against_structure_oracle():
    """parity + 2 * (number of invariant factors divisible by 3)."""
    pairs = [(1, d) for d in (1, 13, 37, 61, 73, 85, 97, 109)]
    pairs += [(37, 1), (61, 1), (-35, 1), (13, 1), (-23, 1), (-11, 1), (-11, 13)]
    for a, d in pairs:
        case = validate_coefficient(a)
        delta = _certify_twist(a, d)[1]
        rank = sum(1 for n in brute_force_group_structure(delta) if n % 3 == 0)
        assert selmer_dimension(a, d) == case.dimension_parity + 2 * rank, (a, d)


def test_selmer_dimension_with_precomputed_summary():
    s = class_group_summary(-244)
    assert selmer_dimension(1, 61, summary=s) == 2
    with pytest.raises(ValueError):
        selmer_dimension(1, 13, summary=s)  # wrong discriminant


def test_dimension_parity_matches_case():
    for a in (1, 37, -35, -11, 13, -23):
        d = selmer_dimension(a, 1)
        assert d % 2 == validate_coefficient(a).dimension_parity % 2


# ---------------------------------------------------------------------------
# Torsion


def mordell_torsion_is_trivial(b: int) -> bool:
    """The classical rule for y**2 = x**3 + B with B sixth-power free: the
    rational torsion is nontrivial exactly when B is 1, -432, a cube or a square."""
    if b in (1, -432):
        return False
    r = round(abs(b) ** (1 / 3))
    if any(c**3 == abs(b) for c in (r - 1, r, r + 1)):
        return False
    return b < 0 or math.isqrt(b) ** 2 != b


def test_torsion_flag_is_the_theorem_a_not_1():
    assert mordell_torsion_is_trivial(-35) is True
    assert mordell_torsion_is_trivial(-37 * 13**3) is True
    assert mordell_torsion_is_trivial(-432) is False
    assert mordell_torsion_is_trivial(1) is False
    assert mordell_torsion_is_trivial(16) is False
    assert mordell_torsion_is_trivial(-2197) is False  # (-13)^3
    checked = 0
    for a in range(-299, 300):
        for d in range(1, 1000, 12):
            try:
                case, delta = _certify_twist(a, d)
            except ValidationError:
                continue
            b = -a * d**3
            assert all(e < 6 for _, e in factorize(b)), (a, d)
            rec = _record(case, a, d, delta, summary_from_counts(delta, 1, 1))
            assert rec.torsion_trivial is mordell_torsion_is_trivial(b) is (a != 1), (a, d)
            checked += 1
    assert checked > 1000


# ---------------------------------------------------------------------------
# Records


def test_twist_record_frozen():
    rec = twist_record(1, 13)
    assert rec == TwistRecord(
        a=1,
        d=13,
        field_discriminant=-52,
        case=StollCase.NEG2_8_A_POS,
        selmer_dim=0,
        rank_bound=0,
        torsion_trivial=False,
    )
    assert rec.to_json_dict() == {
        "A": 1,
        "D": 13,
        "delta": -52,
        "case": "NEG2_8_A_POS",
        "selmer_dim": 0,
        "rank_bound": 0,
        "torsion_trivial": False,
    }


def test_twist_record_holds_what_it_prints():
    rec = twist_record(37, 13)
    fields = {name: getattr(rec, name) for name in TwistRecord._fields}
    fields["case"] = rec.case.value
    names = {"a": "A", "d": "D", "field_discriminant": "delta"}
    assert {names.get(name, name): v for name, v in fields.items()} == rec.to_json_dict()


def test_twist_record_negative_branch():
    rec = twist_record(-35, 1)
    assert rec.field_discriminant == 140
    assert rec.selmer_dim == rec.rank_bound == 1
    assert rec.torsion_trivial is True


def test_twist_record_with_summary_matches_direct():
    for a, d in ((1, 61), (37, 13), (-35, 1)):
        delta = _certify_twist(a, d)[1]
        summary = class_group_summary(delta)
        rec = twist_record(a, d, summary=summary)
        assert rec == twist_record(a, d)
        assert rec.three_rank == summary.three_rank
