"""Fundamental discriminants and arithmetic-progression families.

A fundamental discriminant is the discriminant of a quadratic field: either
delta ≡ 1 mod 4 and square-free, or delta = 4d with d square-free and
d ≡ 2, 3 mod 4.  The integer 1 is excluded (it is not the discriminant of a
quadratic field).  Families N^±(X, m, N) collect the fundamental discriminants
of one sign below X in a fixed residue class m mod N; the mean of the
3-torsion count over such a family is governed by a congruence condition on
the pair (m, N), checked here clause by clause.
"""

from __future__ import annotations

from collections.abc import Callable
from math import gcd
from typing import NamedTuple

from .arith import factorize, is_squarefree, squarefree_flags

NEGATIVE = "negative"
POSITIVE = "positive"

#: Largest |delta| the scan layers accept.  A family's square-free sieve takes
#: one byte per integer below its bound; one class group takes O~(sqrt|delta|)
#: time and memory.
MAX_DISCRIMINANT = 10**9


def check_scan_limit(name: str, value: int) -> None:
    """Refuse a bound or |delta| above MAX_DISCRIMINANT before any work on it."""
    if value > MAX_DISCRIMINANT:
        raise ValueError(f"{name} exceeds the scan limit {MAX_DISCRIMINANT}")


def is_fundamental(delta: int) -> bool:
    """True when delta is the discriminant of a quadratic field."""
    return _is_fundamental(delta, is_squarefree)


def _is_fundamental(delta: int, squarefree: Callable[[int], bool]) -> bool:
    # squarefree gets |delta| or |delta/4|: a sieve's flags.__getitem__ will do
    if delta == 1 or delta == 0:
        return False
    r = delta % 4
    if r == 1:
        return squarefree(abs(delta))
    if r == 0:
        d = delta // 4
        return d % 4 in (2, 3) and squarefree(abs(d))
    return False


class _Progression(NamedTuple):
    bound_x: int
    residue_m: int
    modulus_n: int
    sign: str


class ProgressionFamily(_Progression):
    """Fundamental discriminants delta ≡ residue_m mod modulus_n with 0 < |delta| < bound_x.

    The sign field selects N^-(X, m, N) (negative discriminants) or
    N^+(X, m, N).  The residue is canonicalized into [0, N) on construction,
    which _make and _replace go through too.
    """

    __slots__ = ()

    def __new__(
        cls, bound_x: int, residue_m: int, modulus_n: int, sign: str
    ) -> ProgressionFamily:
        if bound_x < 1:
            raise ValueError("bound_x must be a positive integer")
        if modulus_n < 1:
            raise ValueError("modulus_n must be a positive integer")
        if sign not in (NEGATIVE, POSITIVE):
            raise ValueError(f"sign must be {NEGATIVE!r} or {POSITIVE!r}")
        return super().__new__(cls, bound_x, residue_m % modulus_n, modulus_n, sign)

    @classmethod
    def _make(cls, iterable) -> ProgressionFamily:
        # the inherited _make, behind _replace, would skip __new__'s checks
        return cls(*iterable)


def enumerate_progression(family: ProgressionFamily) -> list[int]:
    """All members of the family, sorted by absolute value (ascending)."""
    x, m, n = family.bound_x, family.residue_m, family.modulus_n
    check_scan_limit("bound_x", x)
    squarefree = squarefree_flags(x).__getitem__
    if family.sign == NEGATIVE:
        candidates = range(m - n, -x, -n)
    else:
        candidates = range(m if m > 0 else n, x, n)
    return [delta for delta in candidates if _is_fundamental(delta, squarefree)]


class ConditionCheck(NamedTuple):
    """Outcome of the mean-value congruence condition, naming the first failing clause."""

    ok: bool
    failing_clause: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def condition_star(m: int, n: int) -> ConditionCheck:
    """Congruence condition on (m, N) under which the 3-torsion mean theorems apply.

    Requires for every odd prime p dividing gcd(m, N) that p**2 | N and
    p**2 does not divide m; and when N is even, that either 4 | N with
    m ≡ 1 mod 4, or 16 | N with m ≡ 8 or 12 mod 16.  m is a residue mod N,
    so any integer m is accepted, 0 included.
    """
    if n < 1:
        raise ValueError("N must be a positive integer")
    g = gcd(m, n)
    for p, _ in factorize(g):
        if p == 2:
            continue
        if n % (p * p) != 0:
            return ConditionCheck(
                False, f"odd prime {p} divides gcd(m, N) but {p}^2 does not divide N"
            )
        if m % (p * p) == 0:
            return ConditionCheck(
                False, f"odd prime {p} divides gcd(m, N) and {p}^2 divides m"
            )
    if n % 2 == 0:
        if n % 4 == 0 and m % 4 == 1:
            return ConditionCheck(True)
        if n % 16 == 0 and m % 16 in (8, 12):
            return ConditionCheck(True)
        return ConditionCheck(
            False,
            "N is even but neither (4 | N with m ≡ 1 mod 4) nor "
            "(16 | N with m ≡ 8, 12 mod 16) holds",
        )
    return ConditionCheck(True)
