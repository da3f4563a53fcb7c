"""Family statistics for quadratic twists: exact constants and empirical scans.

The theoretical side is exact rational arithmetic: the mean-to-proportion
rearrangement factor (3**(k+1) - 2)/(3**(k+1) - 1), the family density
constant (1/8) * prod_{p | A} p/((p-1)(p+1)), their product (a certified
asymptotic lower bound for the density of twists with rank <= 2k), and the
asymptotic average-dimension bounds 1 (A > 0) and 4/3 (A < 0).  These
constants, the twist parameters and Delta(A, 1) come from one family value
(_Family), which classifies and factors A once.  The empirical side scans a
twist family and keeps its class data as two integer arrays in scan order, h
and the 3-torsion (from classgroup.compute_class_data, or from validated
(h, 3-torsion) pairs a caller supplies, such as cache.load gives); it counts
the twists per 3-torsion value and folds those counts, through the 3-rank,
into certified proportions and averages, so a scan builds no summary or
record per twist.  ScanResult builds the records only when they are read.
The correspondence D -> D*Delta(A, 1) (selmer._base_discriminant) is checked
against the progression family it is in bijection with.
"""

from __future__ import annotations

import warnings
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import prod

from .arith import count_squarefree, exact_log, squarefree_flags
from .classgroup import ClassData, compute_class_data, summary_from_counts
from .discriminants import (
    MAX_DISCRIMINANT,
    NEGATIVE,
    POSITIVE,
    ProgressionFamily,
    check_scan_limit,
    condition_star,
    enumerate_progression,
)
from .selmer import StollCase, TwistRecord, _base_discriminant, _classify, _dimension, _record


class EmptyFamilyError(ValueError):
    """The requested scan bound admits no twist parameters."""


def low_rank_factor(k: int) -> Fraction:
    """Asymptotic lower bound for the proportion of discriminants with 3-rank <= k,
    given that the mean of the 3-torsion count is 2: (3**(k+1) - 2)/(3**(k+1) - 1)."""
    return proportion_bound_from_mean(Fraction(2), k)


def proportion_bound_from_mean(mean_bound: Fraction, k: int) -> Fraction:
    """Rearrangement bound: values are 1, 3, 9, ... so a mean <= B forces at least
    a (3**(k+1) - B)/(3**(k+1) - 1) fraction of values <= 3**k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    b = Fraction(mean_bound)
    cutoff = 3 ** (k + 1)
    return Fraction(cutoff - b, cutoff - 1)


@dataclass(frozen=True)
class _Family:
    """The twist family of A, classified and factored once.  It accepts what
    validate_coefficient accepts: its progression covers A ≡ 13 mod 36 too,
    and its parameters and constants refuse that direct-evaluation case."""

    a: int
    case: StollCase
    base: int  # Delta(A, 1)
    primes: tuple[int, ...]

    @classmethod
    def of(cls, a: int) -> _Family:
        case, primes = _classify(a)
        return cls(a, case, _base_discriminant(case, a), primes)

    def _refuse_direct_case(self) -> None:
        if self.case.uses_sqrt_3a:
            raise ValueError(
                f"A = {self.a} is in the direct-evaluation case (A ≡ 13 mod 36); "
                "family statistics cover A ≡ 1, 25 mod 36 only"
            )

    def parameters(self, x: int) -> list[int]:
        self._refuse_direct_case()
        if x < 1:
            raise ValueError("X must be a positive integer")
        check_scan_limit("X", x)
        d_max = (x - 1) // abs(self.base)
        flags = squarefree_flags(d_max)
        return [d for d in range(1, d_max + 1, 12 * abs(self.a)) if flags[d]]

    def progression(self, x: int) -> ProgressionFamily:
        sign = NEGATIVE if self.base < 0 else POSITIVE
        return ProgressionFamily(x, self.base, 12 * abs(self.a * self.base), sign)

    def corresponds(self, x: int) -> bool:
        params = self.parameters(x)
        image = {d * self.base for d in params}
        if len(image) != len(params):
            return False
        return image == set(enumerate_progression(self.progression(x)))

    @property
    def density_constant(self) -> Fraction:
        self._refuse_direct_case()
        return Fraction(1, 8) * prod(Fraction(p, (p - 1) * (p + 1)) for p in self.primes)

    def certified_density_bound(self, k: int) -> Fraction:
        return low_rank_factor(k) * self.density_constant

    @property
    def average_dimension_bound(self) -> Fraction:
        self._refuse_direct_case()
        return Fraction(1) if self.a > 0 else Fraction(4, 3)


def density_constant(a: int) -> Fraction:
    """Asymptotic density of the twist family inside the square-free integers:
    (1/8) * prod over primes p | A of p / ((p - 1) * (p + 1)), exactly."""
    return _Family.of(a).density_constant


def certified_density_bound(a: int, k: int) -> Fraction:
    """Certified asymptotic lower bound for the density, among all square-free
    integers, of twist parameters whose curve gets rank bound <= 2k."""
    return _Family.of(a).certified_density_bound(k)


def average_dimension_bound(a: int) -> Fraction:
    """Asymptotic upper bound for the family-average Selmer dimension: 1 for
    A > 0 (even branch), 4/3 for A < 0 (odd branch)."""
    return _Family.of(a).average_dimension_bound


# ---------------------------------------------------------------------------
# Scans


def scan_parameters(a: int, x: int) -> list[int]:
    """Twist parameters D for the family at bound X: square-free D ≡ 1 mod 12|A|
    with 0 < D < X/|Delta(A, 1)|; equivalently the D with D*Delta(A, 1) in the
    progression family the correspondence maps onto."""
    return _Family.of(a).parameters(x)


#: 3**r | h < |delta| <= MAX_DISCRIMINANT gives r < _MAX_K, so every dimension
#: parity + 2r is below 2*_MAX_K: k = _MAX_K certifies every twist a scan reaches.
_MAX_K = next(k for k in count() if 3**k >= MAX_DISCRIMINANT)


@dataclass(frozen=True)
class FamilyReport:
    """Aggregated scan output with exact rational statistics."""

    a: int
    x: int
    k: int
    family_size: int
    squarefree_count: int
    h3_mean: Fraction
    avg_selmer_dim: Fraction
    certified_proportion_per_k: dict[int, Fraction]
    certified_proportion_within_family: dict[int, Fraction]
    theoretical: dict[str, Fraction]

    def to_json_dict(self) -> dict:
        return {
            "A": self.a,
            "X": self.x,
            "k": self.k,
            "family_size": self.family_size,
            "squarefree_count": self.squarefree_count,
            "h3_mean": _rational_json(self.h3_mean),
            "avg_selmer_dim": _rational_json(self.avg_selmer_dim),
            "certified_proportion_per_k": {
                str(kk): _rational_json(v)
                for kk, v in sorted(self.certified_proportion_per_k.items())
            },
            "certified_proportion_within_family": {
                str(kk): _rational_json(v)
                for kk, v in sorted(self.certified_proportion_within_family.items())
            },
            "theoretical": {
                name: _rational_json(v) for name, v in sorted(self.theoretical.items())
            },
        }


@dataclass(frozen=True)
class ScanResult:
    """A family scan: its report, its twist parameters D in scan order, their
    case and Delta(A, 1), and the class data of their discriminants
    D * Delta(A, 1) in the same order, as two integer arrays (h and the
    3-torsion) and one flag per D, 1 where this scan computed the entry
    rather than taking it from the class data it was given."""

    report: FamilyReport
    parameters: list[int]
    case: StollCase
    base: int
    class_numbers: array
    three_torsion: array
    computed: bytes

    @cached_property
    def new_class_data(self) -> ClassData:
        """The (h, 3-torsion) pairs this scan computed, sorted by discriminant."""
        base = self.base
        rows = zip(self.parameters, self.class_numbers, self.three_torsion, self.computed)
        return dict(sorted((d * base, (h, torsion)) for d, h, torsion, new in rows if new))

    @cached_property
    def records(self) -> list[TwistRecord]:
        """One TwistRecord per D, in scan order, each from a summary of its
        class data, built on first access: no statistic, report or trace
        reads them."""
        a, case, base = self.report.a, self.case, self.base
        rows = zip(self.parameters, self.class_numbers, self.three_torsion)
        return [
            _record(case, a, d, d * base, summary_from_counts(d * base, h, torsion))
            for d, h, torsion in rows
        ]


def _rational_json(fr: Fraction) -> dict:
    return {"exact": f"{fr.numerator}/{fr.denominator}", "float": render_float(fr)}


def render_float(value) -> float:
    """Floats are rendered to 12 significant digits, round-tripped exactly."""
    return float(f"{float(value):.12g}")


def scan_family(
    a: int, x: int, *, k: int = 0, jobs: int = 1, class_data: ClassData | None = None
) -> ScanResult:
    """Scan the twist family of A up to X and aggregate certified statistics.

    class_data may carry previously computed, validated (h, 3-torsion) pairs
    keyed by discriminant (cache.load); anything missing is computed (in
    parallel when jobs > 1) and reported back in new_class_data.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > _MAX_K:
        raise ValueError(f"k must be at most {_MAX_K}, which certifies every twist")
    family = _Family.of(a)
    base, params = family.base, family.parameters(x)
    if not params:
        raise EmptyFamilyError(
            f"no twist parameters below X/(4|A|) = {x}/{abs(base)}; raise X"
        )
    n = len(params)
    # Each D is square-free by the sieve, and D ≡ 1 mod 12|A| gives gcd(D, 6A) = 1,
    # so delta = D * Delta(A, 1) by _base_discriminant's rule, as _certify_twist finds.
    deltas = [d * base for d in params]
    if class_data:
        computed = bytes(d not in class_data for d in deltas)
        missing = [d for d in deltas if d not in class_data]
        fresh = zip(*compute_class_data(missing, jobs=jobs))
        class_numbers, three_torsion = array("q"), array("q")
        for delta, new in zip(deltas, computed):
            h, torsion = next(fresh) if new else class_data[delta]
            class_numbers.append(h)
            three_torsion.append(torsion)
    else:
        # nothing supplied: the computed arrays are the class data, with no
        # second copy made (at X = 10**8 that is 1.9 million twists)
        computed = b"\1" * n
        class_numbers, three_torsion = compute_class_data(deltas, jobs=jobs)
    # the square-free D with D * |Delta(A, 1)| < X
    squarefree_count = count_squarefree(-(-x // abs(base)))
    # every statistic depends on a twist through its 3-rank r alone, and
    # selmer._dimension gives it selmer_dim = rank_bound = parity + 2r; the
    # 3-torsion values are validated powers of 3, counted once each
    per_rank = {exact_log(t, 3): m for t, m in Counter(three_torsion).items()}
    per_dim = {_dimension(family.case, r): m for r, m in per_rank.items()}
    h3_mean = Fraction(sum(3**r * m for r, m in per_rank.items()), n)
    avg_dim = Fraction(sum(dim * m for dim, m in per_dim.items()), n)
    k_hi = max(k, max(per_rank) + family.case.dimension_parity)
    per_k: dict[int, Fraction] = {}
    within: dict[int, Fraction] = {}
    for kk in range(k_hi + 1):
        certified = sum(m for dim, m in per_dim.items() if dim <= 2 * kk)
        per_k[kk] = Fraction(certified, squarefree_count)
        within[kk] = Fraction(certified, n)
    report = FamilyReport(
        a=a,
        x=x,
        k=k,
        family_size=n,
        squarefree_count=squarefree_count,
        h3_mean=h3_mean,
        avg_selmer_dim=avg_dim,
        certified_proportion_per_k=per_k,
        certified_proportion_within_family=within,
        theoretical={
            "low_rank_factor": low_rank_factor(k),
            "density_constant": family.density_constant,
            "certified_density_bound": family.certified_density_bound(k),
            "average_dimension_bound": family.average_dimension_bound,
        },
    )
    return ScanResult(
        report=report,
        parameters=params,
        case=family.case,
        base=base,
        class_numbers=class_numbers,
        three_torsion=three_torsion,
        computed=computed,
    )


# ---------------------------------------------------------------------------
# Progression means and the correspondence


def nh_mean(family: ProgressionFamily, *, jobs: int = 1) -> Fraction:
    """Exact mean of the 3-torsion count over a progression family.

    Warns when the congruence condition on (m, N) fails, since the mean-value
    theorems do not apply there.
    """
    check = condition_star(family.residue_m, family.modulus_n)
    if not check:
        warnings.warn(
            f"condition on (m, N) fails ({check.failing_clause}); "
            "the 3-torsion mean theorems do not cover this family",
            stacklevel=2,
        )
    deltas = enumerate_progression(family)
    if not deltas:
        raise EmptyFamilyError("the progression family is empty below the bound")
    _, three_torsion = compute_class_data(deltas, jobs=jobs)
    return Fraction(sum(three_torsion), len(deltas))


def family_progression(a: int, x: int) -> ProgressionFamily:
    """The progression family below X that the twists of A map onto: the
    discriminants ≡ Delta(A, 1) mod 12*|A*Delta(A, 1)|, of the sign of
    Delta(A, 1), as D ≡ 1 mod 12|A| maps to D*Delta(A, 1).  For A ≡ 1, 25
    mod 36 that is -4*A mod 48*A**2; refuses an A outside the formula."""
    return _Family.of(a).progression(x)


def correspondence_check(a: int, x: int) -> bool:
    """Verify D -> D*Delta(A, 1) maps the twist parameters bijectively onto
    the family_progression(A, X)."""
    return _Family.of(a).corresponds(x)


# ---------------------------------------------------------------------------
# Rearrangement check


@dataclass(frozen=True)
class RearrangementCheck:
    sample_mean: Fraction
    small_fraction: Fraction
    bound: Fraction
    holds: bool


def rearrangement_check(values, mean_bound, k: int) -> RearrangementCheck:
    """Finite-sample rearrangement inequality for lists of 3-power values.

    Whenever the sample mean is <= mean_bound, the fraction of values <= 3**k
    must be at least (3**(k+1) - mean_bound)/(3**(k+1) - 1); a sample mean
    above the target makes the claim vacuous.
    """
    values = list(values)
    if not values:
        raise ValueError("values must be nonempty")
    # each distinct value once, in list order, so a refusal names the first bad one
    for v in dict.fromkeys(values):
        if exact_log(v, 3) is None:
            raise ValueError(f"value {v} is not a positive power of 3")
    mean = Fraction(sum(values), len(values))
    top = 3**k
    small = Fraction(sum(1 for v in values if v <= top), len(values))
    bound = proportion_bound_from_mean(mean_bound, k)
    holds = mean > mean_bound or small >= bound
    return RearrangementCheck(
        sample_mean=mean, small_fraction=small, bound=bound, holds=holds
    )
