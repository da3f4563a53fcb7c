"""Tests for integer arithmetic: factorization, square-free sieves, Kronecker.

Oracles are deliberately naive re-implementations: trial division for
factorization and primality, divisor-square scans for square-freeness, and
Euler's criterion for quadratic residues.
"""

import math

import pytest

from twistrank import arith
from twistrank.arith import (
    count_squarefree,
    exact_log,
    factorize,
    is_squarefree,
    kronecker,
    squarefree_flags,
    xgcd,
)


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def naive_factor(n: int) -> dict:
    out = {}
    m = abs(n)
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def naive_squarefree(n: int) -> bool:
    m = abs(n)
    return m > 0 and all(m % (d * d) for d in range(2, math.isqrt(m) + 1))


def euler_legendre(a: int, p: int) -> int:
    """Legendre symbol for odd prime p via Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return r - p if r == p - 1 else r


# ---------------------------------------------------------------------------
# Factorization


def test_factorize_frozen_examples():
    assert factorize(60) == ((2, 2), (3, 1), (5, 1))
    # the prime powers of |n|: the sign is dropped
    assert factorize(-35) == ((5, 1), (7, 1))
    assert factorize(1) == () and factorize(-1) == ()


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_matches_naive_oracle():
    for n in list(range(1, 600)) + list(range(-600, 0)) + [2**31 - 1, 3 * 5 * 7 * 11 * 13]:
        factors = factorize(n)
        assert dict(factors) == naive_factor(n), n
        assert [p for p, _ in factors] == sorted(p for p, _ in factors)
        prod = 1
        for p, e in factors:
            assert naive_is_prime(p)
            prod *= p**e
        assert prod == abs(n)


def test_factorize_semiprime_beyond_trial_bound():
    # neither factor is found by trial division to 10**6, and the product is
    # past 1_000_001**2, so nothing is left that trial division can prove
    with pytest.raises(ValueError, match=f"trial division bound {arith.TRIAL_DIVISION_BOUND}$"):
        factorize(1_000_003 * 1_000_033)


def test_factorize_trial_division_proves_the_cofactor_prime():
    # both prime and below 1_000_001**2, the square of the first odd number
    # past the trial bound, so trial division alone proves them prime
    for n in (999_999_999_989, 10**12 + 39):
        assert factorize(n) == ((n, 1),)
        assert factorize(-2 * 3 * n) == ((2, 1), (3, 1), (n, 1))
    assert factorize(2**4 * 3 * 7**2) == ((2, 4), (3, 1), (7, 2))


# ---------------------------------------------------------------------------
# Square-free machinery


def test_is_squarefree_matches_naive():
    for n in range(-500, 500):
        if n == 0:
            continue
        assert is_squarefree(n) == naive_squarefree(n), n


def test_squarefree_flags_matches_naive():
    flags = squarefree_flags(300)
    for n in range(1, 301):
        assert bool(flags[n]) == naive_squarefree(n), n


def test_count_squarefree_frozen_values():
    assert count_squarefree(2) == 1
    assert count_squarefree(11) == 7
    assert count_squarefree(10001) == 6083
    # 6/pi^2 * 10^6 = 607927.1...; the exact strict count n < 10^6
    assert count_squarefree(10**6) == 607926


def test_count_squarefree_is_strict_upper_bound():
    # 10 = 2 * 5 is square-free, so the strict count jumps at 11, not at 10
    assert count_squarefree(10) == count_squarefree(9)
    assert count_squarefree(11) == count_squarefree(10) + 1


# ---------------------------------------------------------------------------
# Kronecker symbol


def test_kronecker_matches_euler_criterion_at_odd_primes():
    primes = [p for p in range(3, 200) if naive_is_prime(p)]
    for p in primes:
        for a in range(-50, 51):
            assert kronecker(a, p) == euler_legendre(a, p), (a, p)


def test_kronecker_frozen_examples():
    assert kronecker(-4, 5) == 1
    assert kronecker(-23, 5) == -1
    assert kronecker(-23, 1) == 1


def test_kronecker_completely_multiplicative_in_bottom():
    for a in (-23, -4, 5, 12, -35):
        for m in range(1, 40):
            for n in range(1, 40):
                assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_kronecker_special_cases():
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(2, 0) == 0
    assert kronecker(0, 3) == 0
    assert kronecker(0, 1) == 1
    assert kronecker(2, 2) == 0
    # (a/2) for odd a depends on a mod 8
    assert kronecker(7, 2) == 1
    assert kronecker(3, 2) == -1
    # (a/-1) is the sign character
    assert kronecker(-5, -1) == -1
    assert kronecker(5, -1) == 1


def test_kronecker_periodicity_of_discriminant_character():
    """chi(n) = (delta/n) has period |delta| for a fundamental discriminant."""
    for delta in (-23, -4, -52, 140, 229):
        for n in range(1, 120):
            assert kronecker(delta, n) == kronecker(delta, n + abs(delta))


# ---------------------------------------------------------------------------
# Small helpers


def test_exact_log_matches_powers():
    for p in (2, 3, 5):
        powers = {p**e: e for e in range(12)}
        for n in range(-30, 3000):
            # 0 and the negatives are no power of p
            assert exact_log(n, p) == powers.get(n), (n, p)


def test_xgcd_bezout_identity():
    for a in range(-120, 120, 7):
        for b in range(-120, 120, 11):
            g, x, y = xgcd(a, b)
            assert g == math.gcd(a, b)
            assert a * x + b * y == g
