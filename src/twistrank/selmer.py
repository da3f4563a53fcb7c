"""Selmer dimensions and rank bounds for twists of Mordell curves y**2 = x**3 - A.

For coefficients A with -A ≡ 2 mod 3 whose curve satisfies the right local
conditions, the F_3-dimension of the isogeny Selmer group is an explicit
affine function of the 3-rank of one quadratic field: Q(sqrt(-A)) when
-A ≡ 2, 8 mod 9, and Q(sqrt(3A)) when -A ≡ 5 mod 9, with parity decided by
the sign of A.  The dimension bounds rank E(Q).  Quadratic twists by D
replace A with A*D**3; D ≡ 1 mod 12 keeps every hypothesis intact and moves
the field to Q(sqrt(-A*D)), or to Q(sqrt(3A*D)) in the sqrt(3A) cases; its
discriminant is D * Delta(A, 1) (_base_discriminant).
"""

from __future__ import annotations

from enum import Enum
from math import gcd
from typing import NamedTuple

from .arith import factorize
from .classgroup import _span_counts, _three_rank
from .discriminants import check_scan_limit


class ValidationError(ValueError):
    """Input outside the formula's reach; the message names the failing clause."""


class NotSquareFree(ValidationError):
    """A coefficient or parameter that some prime divides twice."""


class StollCase(Enum):
    """Which branch of the dimension formula applies, by -A mod 9 and sign of A."""

    NEG2_8_A_NEG = "NEG2_8_A_NEG"  # -A ≡ 2, 8 mod 9, A < 0: dim = 1 + 2*r3(Q(sqrt(-A)))
    NEG2_8_A_POS = "NEG2_8_A_POS"  # -A ≡ 2, 8 mod 9, A > 0: dim = 2*r3(Q(sqrt(-A)))
    NEG5_A_NEG = "NEG5_A_NEG"      # -A ≡ 5 mod 9, A < 0: dim = 2*r3(Q(sqrt(3A)))
    NEG5_A_POS = "NEG5_A_POS"      # -A ≡ 5 mod 9, A > 0: dim = 1 + 2*r3(Q(sqrt(3A)))

    @property
    def dimension_parity(self) -> int:
        return 1 if self in (StollCase.NEG2_8_A_NEG, StollCase.NEG5_A_POS) else 0

    @property
    def uses_sqrt_3a(self) -> bool:
        return self in (StollCase.NEG5_A_NEG, StollCase.NEG5_A_POS)


#: Residues mod 36 with -A ≡ 2, 8 mod 9 (the family pipeline's cases).
FAMILY_RESIDUES = (1, 25)
#: Residue mod 36 with -A ≡ 5 mod 9 (recognized for direct evaluation only).
DIRECT_ONLY_RESIDUE = 13


def _check_squarefree(name: str, n: int) -> tuple[tuple[int, int], ...]:
    """Refuse n when some prime divides it twice; return its prime powers."""
    powers = factorize(n)
    if any(e > 1 for _, e in powers):
        raise NotSquareFree(f"{name} = {n} is not square-free")
    return powers


def _classify(a: int) -> tuple[StollCase, tuple[int, ...]]:
    """The case of a Mordell coefficient and the primes of |A|, from one
    factorization; refuses anything outside the formula."""
    if a == 0:
        raise ValidationError("A must be nonzero")
    primes = tuple(p for p, _ in _check_squarefree("A", a))
    r = a % 36
    if r in FAMILY_RESIDUES:
        return (StollCase.NEG2_8_A_POS if a > 0 else StollCase.NEG2_8_A_NEG), primes
    if r == DIRECT_ONLY_RESIDUE:
        return (StollCase.NEG5_A_POS if a > 0 else StollCase.NEG5_A_NEG), primes
    raise ValidationError(
        f"A = {a} has A mod 36 = {r}; need 1 or 25 (family cases) or 13 (direct case)"
    )


def validate_coefficient(a: int) -> StollCase:
    """Classify a Mordell coefficient, rejecting anything outside the formula."""
    return _classify(a)[0]


def _base_discriminant(case: StollCase, a: int) -> int:
    """Delta(A, 1), the discriminant of Q(sqrt(r)) for r = -A, or 3A in the
    sqrt(3A) cases; every twist's field discriminant is D * Delta(A, 1).

    For square-free D ≡ 1 mod 12 coprime to A, r*D is square-free, as
    gcd(D, 3A) = 1, and r*D ≡ r mod 4, so Delta(A, D) takes the branch r or
    4r that r takes: Delta(A, D) = D * Delta(A, 1).
    """
    r = 3 * a if case.uses_sqrt_3a else -a
    return r if r % 4 == 1 else 4 * r


def _certify_twist(a: int, d: int) -> tuple[StollCase, int]:
    """Validate the quadratic twist y**2 = x**3 - A*D**3 with D ≡ 1 mod 12.

    Returns the case and the field discriminant D * Delta(A, 1); A and D are
    factored once each.  A pair whose |delta| is past the scan limit is
    refused before D is factored.
    """
    case = validate_coefficient(a)
    if d < 1:
        raise ValidationError("D must be a positive integer")
    if d % 12 != 1:
        raise ValidationError(f"D = {d} is not ≡ 1 mod 12")
    delta = d * _base_discriminant(case, a)
    check_scan_limit("|delta|", abs(delta))
    _check_squarefree("D", d)
    if gcd(a, d) != 1:
        raise ValidationError(f"D = {d} shares the factor {gcd(a, d)} with A = {a}")
    return case, delta


def selmer_dimension(a: int, d: int) -> int:
    """F_3-dimension of the isogeny Selmer group of y**2 = x**3 - A*D**3."""
    return twist_record(a, d).selmer_dim


class TwistRecord(NamedTuple):
    """Certified data for one quadratic twist y**2 = x**3 - A*D**3."""

    a: int
    d: int
    field_discriminant: int
    case: StollCase
    selmer_dim: int
    rank_bound: int
    torsion_trivial: bool

    @property
    def three_rank(self) -> int:
        """3-rank of the field's class group, read back from the Selmer dimension."""
        return (self.selmer_dim - self.case.dimension_parity) // 2

    def to_json_dict(self) -> dict:
        return {
            "A": self.a,
            "D": self.d,
            "delta": self.field_discriminant,
            "case": self.case.value,
            "selmer_dim": self.selmer_dim,
            "rank_bound": self.rank_bound,
            "torsion_trivial": self.torsion_trivial,
        }


def twist_record(a: int, d: int) -> TwistRecord:
    """Full certified record for the pair (A, D): dimension, rank bound, torsion flag.

    _certify_twist has proved delta fundamental by _base_discriminant's rule,
    so its class group is spanned directly, with no second factorization.
    """
    case, delta = _certify_twist(a, d)
    return _record(case, a, d, delta, _three_rank(*_span_counts(delta), {}))


def _dimension(case: StollCase, three_rank: int) -> int:
    """Selmer dimension, parity + 2 * r, of a twist in `case` whose field has
    3-rank r; it is also the twist's rank bound.  The one dimension rule
    behind records, scan statistics and traces."""
    return case.dimension_parity + 2 * three_rank


def _record(case: StollCase, a: int, d: int, delta: int, three_rank: int) -> TwistRecord:
    """The record of a twist already certified to be in `case` with field
    discriminant delta, whose class group has the given 3-rank; the one
    builder behind twist_record and ScanResult.records."""
    dim = _dimension(case, three_rank)
    # E_D: y**2 = x**3 + B with B = -A*D**3 is sixth-power free, as A and D are
    # square-free and coprime, so E_D has nontrivial rational torsion exactly
    # when B is 1, -432, a cube or a square.  B is a cube only if A = 1, as
    # A = -1 is not ≡ 1, 13, 25 mod 36; B is 1 or a square only if A = -1 and
    # D = 1; B = -432 = -2**4 * 3**3 only if D = 1 and A = 432, which is not
    # square-free.  So the torsion is trivial exactly when A != 1.
    return TwistRecord(
        a=a,
        d=d,
        field_discriminant=delta,
        case=case,
        selmer_dim=dim,
        rank_bound=dim,
        torsion_trivial=a != 1,
    )
