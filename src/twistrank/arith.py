"""Exact integer arithmetic kernel.

Everything here works on arbitrary-precision Python integers: factorization
by trial division up to 10**6, the full Kronecker symbol and square-free
sieves.  These are the primitives the discriminant and class group layers are
built on.  Every number those layers factor is at most about
MAX_DISCRIMINANT = 10**9, far inside what trial division alone proves; a
number it cannot finish is refused rather than handed to a slower method.
"""

from __future__ import annotations

from functools import lru_cache

TRIAL_DIVISION_BOUND = 10**6


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The prime powers ((p, e), ...) of |n| for a nonzero integer n, p ascending.

    Trial division by 2, 3, 5 and the odd numbers up to 10**6.  A cofactor
    left below the square of the next trial divisor is 1 or a prime, so the
    result is exact whenever the part of n free of primes up to 10**6 is
    below 10**12, in particular for every |n| < 10**12.  Any other n raises
    ValueError naming the bound.
    """
    if n == 0:
        raise ValueError("0 has no prime factorization")
    m = abs(n)
    powers: dict[int, int] = {}

    def _account(p: int) -> None:
        powers[p] = powers.get(p, 0) + 1

    for p in (2, 3, 5):
        while m % p == 0:
            _account(p)
            m //= p
    i = 7
    while i <= TRIAL_DIVISION_BOUND and i * i <= m:
        while m % i == 0:
            _account(i)
            m //= i
        i += 2
    if i * i <= m:
        raise ValueError(
            f"{n} has a cofactor {m} with no prime factor up to the trial "
            f"division bound {TRIAL_DIVISION_BOUND}"
        )
    # no prime below i divides m < i*i, so m is 1 or prime
    if m > 1:
        _account(m)
    factors = tuple(sorted(powers.items()))
    assert _product(factors) == abs(n)
    return factors


def _product(factors: tuple[tuple[int, int], ...]) -> int:
    out = 1
    for p, e in factors:
        out *= p**e
    return out


def is_squarefree(n: int) -> bool:
    """True when no prime square divides n (sign ignored, n != 0)."""
    if n == 0:
        return False
    m = abs(n)
    if m % 4 == 0 or m % 9 == 0 or m % 25 == 0:
        return False
    return all(e == 1 for _, e in factorize(m))


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a | n), the full extension to all integer pairs."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            result = -result
    # Jacobi symbol on the remaining odd positive n via reciprocity.
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@lru_cache(maxsize=8)
def squarefree_flags(limit: int) -> bytearray:
    """Bitmap over 0..limit: flags[n] == 1 exactly when n is square-free.

    Treat the returned buffer as read-only; it is cached and shared.
    """
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    flags = bytearray(b"\x01" * (limit + 1))
    flags[0:1] = b"\x00"
    d = 2
    while d * d <= limit:
        step = d * d
        flags[step :: step] = bytes((limit - step) // step + 1)
        d += 1
    return flags


def count_squarefree(x: int) -> int:
    """Number of square-free integers n with 0 < n < x."""
    if x <= 1:
        return 0
    return squarefree_flags(x - 1).count(1)


def exact_log(n: int, p: int) -> int | None:
    """The e with n == p**e for an integer p >= 2, or None for any other n
    (n <= 0 included, so no division loop runs forever on 0)."""
    if n < 1:
        return None
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e if n == 1 else None


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t
