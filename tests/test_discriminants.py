"""Tests for fundamental discriminants, progression families, and the
admissibility condition on (m, N).

The oracle for fundamentality builds the set of fundamental discriminants
from first principles: d for square-free d ≡ 1 mod 4, and 4d for square-free
d ≡ 2, 3 mod 4.
"""

import math

import pytest

from twistrank.discriminants import (
    MAX_DISCRIMINANT,
    NEGATIVE,
    POSITIVE,
    ProgressionFamily,
    condition_star,
    enumerate_progression,
    is_fundamental,
)


def naive_squarefree(n: int) -> bool:
    m = abs(n)
    return m > 0 and all(m % (d * d) for d in range(2, math.isqrt(m) + 1))


def fundamental_set(limit: int) -> set:
    """All fundamental discriminants delta with 0 < |delta| <= limit."""
    out = set()
    for d in range(-limit, limit + 1):
        if d == 0 or d == 1 or not naive_squarefree(d):
            continue
        if d % 4 == 1:
            out.add(d)
        elif abs(4 * d) <= limit:
            out.add(4 * d)
    return out


# ---------------------------------------------------------------------------
# Fundamentality


def test_is_fundamental_matches_constructive_oracle():
    oracle = fundamental_set(3000)
    for delta in range(-3000, 3001):
        assert is_fundamental(delta) == (delta in oracle), delta


@pytest.mark.parametrize("delta", [-3, -4, -23, -52, -163, 5, 8, 12, 13, 229])
def test_is_fundamental_known_true(delta):
    assert is_fundamental(delta)


@pytest.mark.parametrize("delta", [0, 1, -1, 10, -2, 25, -12, -100, 9, 4])
def test_is_fundamental_known_false(delta):
    assert not is_fundamental(delta)


# ---------------------------------------------------------------------------
# Progression families


def test_progression_frozen_small_family():
    family = ProgressionFamily(50, 1, 4, NEGATIVE)
    assert enumerate_progression(family) == [
        -3, -7, -11, -15, -19, -23, -31, -35, -39, -43, -47,
    ]


def test_progression_empty_family():
    assert enumerate_progression(ProgressionFamily(4, 1, 4, POSITIVE)) == []


def test_progression_positive_family():
    got = enumerate_progression(ProgressionFamily(60, 1, 4, POSITIVE))
    assert got == [5, 13, 17, 21, 29, 33, 37, 41, 53, 57]


def test_progression_matches_filter_oracle():
    oracle = fundamental_set(499)
    for m, n in ((1, 4), (44, 48), (2, 3), (5, 7)):
        for sign in (NEGATIVE, POSITIVE):
            family = ProgressionFamily(500, m, n, sign)
            want = sorted(
                (
                    d
                    for d in oracle
                    if (d < 0 if sign == NEGATIVE else d > 0) and d % n == m % n
                ),
                key=abs,
            )
            assert enumerate_progression(family) == want, (m, n, sign)


def test_progression_bound_is_strict():
    # -47 ≡ 1 mod 4 is fundamental; |delta| < X excludes it exactly at X = 47
    assert -47 in enumerate_progression(ProgressionFamily(48, 1, 4, NEGATIVE))
    assert -47 not in enumerate_progression(ProgressionFamily(47, 1, 4, NEGATIVE))


def test_progression_residue_canonicalized():
    family = ProgressionFamily(100, -4, 48, NEGATIVE)
    assert family.residue_m == 44


def test_progression_validation():
    with pytest.raises(ValueError):
        ProgressionFamily(0, 1, 4, NEGATIVE)
    with pytest.raises(ValueError):
        ProgressionFamily(100, 1, 0, NEGATIVE)
    with pytest.raises(ValueError):
        ProgressionFamily(100, 1, 4, "both")
    with pytest.raises(ValueError):
        enumerate_progression(
            ProgressionFamily(MAX_DISCRIMINANT + 2, 1, 4, NEGATIVE)
        )


# ---------------------------------------------------------------------------
# Condition on (m, N)


def test_condition_frozen_examples():
    assert condition_star(44, 48)
    assert condition_star(140, 58800)
    check = condition_star(3, 6)
    assert not check
    assert "3" in check.failing_clause


def test_condition_odd_prime_clause():
    # p^2 | N and p^2 does not divide m -> admissible
    assert condition_star(3, 27)
    assert condition_star(3, 9)
    # p^2 | m as well -> the "p^2 does not divide m" clause fails
    assert not condition_star(9, 27)
    # p | gcd without p^2 | N -> inadmissible
    assert not condition_star(3, 15)


def test_condition_even_clauses():
    assert condition_star(5, 4)  # 4 | N, m ≡ 1 mod 4
    assert not condition_star(3, 4)  # m ≡ 3 mod 4
    assert condition_star(8, 16)  # 16 | N, m ≡ 8 mod 16
    assert condition_star(12, 16)  # 16 | N, m ≡ 12 mod 16
    assert not condition_star(4, 16)
    assert not condition_star(2, 4)
    assert not condition_star(6, 8)  # 8 = 2^3 with 16 not dividing N


def test_condition_odd_modulus_without_shared_primes():
    assert condition_star(1, 3)
    assert condition_star(2, 5)


def test_condition_takes_m_as_a_residue():
    # ProgressionFamily stores the residue 0 for any m ≡ 0 mod N
    assert condition_star(0, 1)
    check = condition_star(0, 4)
    assert not check and "N is even" in check.failing_clause


def test_condition_validation():
    with pytest.raises(ValueError):
        condition_star(1, 0)
