"""Class groups of quadratic fields through binary quadratic forms.

For delta < 0 the class group is realized by the unique reduced positive
definite forms; for delta > 0 the ordinary class group is, each class by the
rho-cycle of a reduced indefinite form (a, b, c) together with that of
(-a, b, -c).  The narrow class number that every output reports is read off
the principal cycle (_principal_class): it is h when that cycle holds the
form (-1, b, .), and 2h when not.  The narrow and ordinary groups share
their odd part, which is all the 3-rank machinery consumes.  Composition is
Dirichlet's, with one modular inverse for a square or a product of forms
with coprime leading coefficients (_mul).  One routine (_span_counts)
serves both signs: it spans the whole group from the prime forms of norm
p <= sqrt(|delta|/3), or p <= sqrt((delta + 4)/9) when delta > 0 (Markov's
bound on the minimum of an indefinite form: A. Markoff, Math. Ann. 15
(1879) and 17 (1880); Cusick and Flahive, The Markoff and Lagrange Spectra,
AMS 1989), entering each new class by its reduced form, so h is the size of
the span (times the narrow factor when delta > 0) and no form is
enumerated.  When delta > 0 a class x is entered by walking one of its
rho-cycles (_RhoIndex), and that one walk also numbers x**-1; the cycle of
a narrowly self-inverse class is walked only between the two axes of its
mirror, and a prime whose class is spanned already is passed over before
its square root is taken.  For either sign an inert prime, (delta/p) = -1,
is passed over by Euler's criterion, one pow.  The proofs are stated once,
in the comment above _principal_class.
When 9 does not divide h, Lagrange settles the 3-torsion in _span_counts:
1 if 3 does not divide h, and 3 if 3 || h, since a group of order 3 is C3.
Otherwise it is counted inside the 3-Sylow subgroup S, |S| = 3**v with
v >= 2 (_sylow_three_torsion): as 3 as soon as one generator's
3**(v-1)-th power is not the identity, since that generator then has order
|S| and S is cyclic, and otherwise as |S| / |S**3|, where S**3 is spanned
by the cubes of the generators of S, so no class is cubed one by one.  No
generator whose class squares to the identity (a ramified prime's) is
raised to a power: its image in S is the identity.  The
class numbers of many negative discriminants can instead come from one
sweep over the reduced forms of their window, in byte lanes of Python ints
(_definite_class_numbers), building no form; the 3-Sylow span then starts
from the known h, and only where 9 | h.
compute_class_data makes that choice for a set of discriminants (the
sweep over the window _sweep_plan returns, the whole span for the rest),
after checking every one is fundamental, in a process pool
when jobs > 1, and returns h and the 3-torsion as two integer arrays in the
order of its input, building no summary: a ClassGroupSummary is the answer
for one discriminant (class_group_summary).  Two independent oracles
cross-check the class numbers: the exact finite character sum behind the
analytic class number formula, its character built from the prime
discriminants of delta rather than from any table the span shares, and
elementary divisors recovered from the orders of the classes of
every reduced form (listed by a plain double loop over (a, b), and joined
into rho-cycles by _rho_raw when delta > 0), found by walking the powers of
each cyclic subgroup with the reference product _compose_raw, so the oracle
shares neither _mul nor _RhoIndex with the span.
"""

from __future__ import annotations

import os
import sys
from array import array
from collections.abc import Callable, Iterator
from functools import cache
from itertools import accumulate, compress, repeat
from math import gcd, isqrt
from operator import sub
from typing import TYPE_CHECKING, NamedTuple

from .arith import exact_log, factorize, squarefree_flags, xgcd
from .discriminants import MAX_DISCRIMINANT, _is_fundamental, check_scan_limit, is_fundamental

# numpy is imported only inside the analytic oracle: class groups, twists and
# scans of either sign never load it.
if TYPE_CHECKING:
    import numpy as np


class Form(NamedTuple):
    """Integral binary quadratic form a*x**2 + b*x*y + c*y**2."""

    a: int
    b: int
    c: int


class ClassGroupSummary(NamedTuple):
    """Class number and 3-torsion data for one fundamental discriminant.

    class_number is the narrow class number when delta > 0; three_torsion is
    the number of classes killed by cubing, always a power of 3.
    """

    delta: int
    class_number: int
    three_torsion: int
    three_rank: int


#: Validated (class number, 3-torsion) pairs keyed by discriminant.
ClassData = dict[int, tuple[int, int]]


class ExtraUnitsDiscriminant(ValueError):
    """delta in {-3, -4}: the unit group exceeds {1, -1}; h = 1 is known."""

    def __init__(self, delta: int):
        super().__init__(f"delta = {delta} has extra units; class number is 1")
        self.delta = delta
        self.class_number = 1


class InconclusiveOracle(ArithmeticError):
    """The character sum failed its exact integrality check."""


def principal_form(delta: int) -> Form:
    """Identity class representative (1, b0, (b0**2 - delta)/4) with b0 = delta mod 2."""
    _check_discriminant(delta)
    b = delta & 1
    return Form(1, b, (b * b - delta) // 4)


def _check_discriminant(delta: int) -> None:
    if delta % 4 not in (0, 1):
        raise ValueError(f"{delta} is not a discriminant (need 0 or 1 mod 4)")
    if delta == 0:
        raise ValueError("discriminant must be nonzero")
    if delta > 0:
        s = isqrt(delta)
        if s * s == delta:
            raise ValueError(f"square discriminant {delta} is degenerate")


# ---------------------------------------------------------------------------
# Reduction


def _reduce_definite_raw(a: int, b: int, c: int) -> tuple[int, int, int]:
    while True:
        if a > c:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            r = b % (2 * a)
            if r > a:
                r -= 2 * a
            c += (r * r - b * b) // (4 * a)
            b = r
            continue
        break
    if b < 0 and a == c:
        b = -b
    return a, b, c


def _is_reduced_indefinite(a: int, b: int, s: int, delta: int) -> bool:
    if b <= 0 or b > s:
        return False
    t = 2 * abs(a)
    if (t + b) ** 2 <= delta:
        return False
    return t <= b or (t - b) ** 2 < delta


def _rho_raw(a: int, b: int, c: int, delta: int, s: int) -> tuple[int, int, int]:
    n = abs(c)
    t = 2 * n
    if n > s:
        r = (-b) % t
        if r > n:
            r -= t
    else:
        r = s - (s + b) % t
    return c, r, (r * r - delta) // (4 * c)


def _reduce_indefinite_raw(a: int, b: int, c: int, delta: int, s: int) -> tuple[int, int, int]:
    for _ in range(100001):
        if _is_reduced_indefinite(a, b, s, delta):
            return a, b, c
        a, b, c = _rho_raw(a, b, c, delta, s)
    raise ArithmeticError(f"reduction of ({a},{b},{c}) did not terminate")


def _reduce_raw(a: int, b: int, c: int, delta: int, s: int) -> tuple[int, int, int]:
    """A reduced form equivalent to (a, b, c); s = isqrt(delta) when delta > 0."""
    if delta < 0:
        return _reduce_definite_raw(a, b, c)
    return _reduce_indefinite_raw(a, b, c, delta, s)


# ---------------------------------------------------------------------------
# Composition


def _compose_raw(
    a1: int, b1: int, c1: int, a2: int, b2: int, c2: int, delta: int
) -> tuple[int, int, int]:
    s = (b1 + b2) // 2
    d1, u1, v1 = xgcd(a1, a2)
    d, u2, v2 = xgcd(d1, s)
    a3 = a1 * a2 // (d * d)
    num = u2 * u1 * a1 * b2 + u2 * v1 * a2 * b1 + v2 * ((b1 * b2 + delta) // 2)
    if num % d:
        raise ArithmeticError("composition congruence failed; forms not primitive?")
    b3 = (num // d) % (2 * a3)
    c3 = (b3 * b3 - delta) // (4 * a3)
    return a3, b3, c3


# ---------------------------------------------------------------------------
# Primes and square roots modulo a prime, for the prime forms


@cache
def _primes() -> tuple[int, ...]:
    """The primes up to isqrt(MAX_DISCRIMINANT); _prime_forms refuses a larger |delta| first."""
    n = isqrt(MAX_DISCRIMINANT)
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return tuple(compress(range(n + 1), sieve))


def _sqrt_mod_prime(x: int, p: int) -> int | None:
    """A square root of x modulo the prime p, or None if there is none (Tonelli-Shanks)."""
    x %= p
    if p == 2 or x == 0:
        return x
    if p % 4 == 3:
        r = pow(x, (p + 1) // 4, p)
        return r if r * r % p == x else None
    if pow(x, (p - 1) // 2, p) != 1:
        return None
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, r, t = pow(z, q, p), pow(x, (q + 1) // 2, p), pow(x, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (e - i - 1), p)
        e, c = i, b * b % p
        r, t = r * b % p, t * c % p
    return r


# ---------------------------------------------------------------------------
# Class numbers of many negative discriminants in one sweep


def _sweep_window(deltas: list[int]) -> tuple[int, int, int]:
    """(n0, M, L) for the sweep over the n = |delta|, delta in deltas (all
    negative): n0 = min n, M = gcd of the n - n0 (1 for a single n), and L the
    number of n ≡ n0 mod M in [n0, max n]."""
    top = max(deltas)
    m = 0
    for delta in deltas:
        m = gcd(m, top - delta)
    m = m or 1
    return -top, m, (top - min(deltas)) // m + 1


# One sweep costs about a_max * (20*a_max + L + 2**11) cells: a cell is one
# window slot of one a (its byte lane made, read and added), the tail starts,
# built and counted in Python, cost about 20*a_max**2 cells in all, and each
# a about 2**11 cells more.  Spanning one negative delta alone
# costs about sqrt|delta| units more than spanning its 3-Sylow subgroup from
# a known h (_span_counts(delta) against _span_counts(delta, h)).  Measured
# on a 2-core x86 host (Python 3.11) over the A = 1, 37, 61, 73 and 97
# families at X = 10**5 to 10**7 and over scattered discriminants below
# 10**6: 1.8 ns per cell and 0.84 to 1.44 us per unit (median 1.05), so a
# unit is worth about 600 cells.  A window of consecutive discriminants
# (M = 1) has a start for every b, about five times the starts assumed here,
# and its sweep still pays many times over.
_SWEEP_CELLS_PER_UNIT = 600


def _sweep_plan(deltas: list[int]) -> tuple[int, int, int] | None:
    """The window (n0, M, L) of the negative deltas (_sweep_window) when one
    sweep over it is cheaper than spanning each delta alone, else None.  The
    units of the deltas are summed only until they outweigh the cells."""
    if len(deltas) < 2:
        return None
    window = _sweep_window(deltas)
    a_max = isqrt(-min(deltas) // 3)
    cells = a_max * (20 * a_max + window[2] + 2**11)
    units = 0
    for delta in deltas:
        units += isqrt(-delta)
        if _SWEEP_CELLS_PER_UNIT * units >= cells:
            return window
    return None


# The 4-byte unsigned typecode of array ("I" wherever int has 32 bits).
_LANE32 = next(code for code in "IL" if array(code).itemsize == 4)


def _tail_starts(a: int, n0: int, m: int, length: int) -> tuple[int, list[int]]:
    """(stride, starts) for one a of the sweep (_definite_class_numbers).

    starts holds, for each b in (-a, a] whose reduced forms (a, b, c) reach
    the window n ≡ n0 mod M, the index (n - n0)/M of the first such n; the n
    of one tail are stride = 4a/g indices apart.  An index of one tail may
    come out as S < 0, which stands for the tail's first index S mod stride
    (_definite_class_numbers reduces it), and entries may repeat or lie past
    the window of length L.
    """
    a4 = 4 * a
    g = gcd(a4, m)
    step, stride = m // g, a4 // g
    inv = pow(stride, -1, step)
    # b and -b share n0 + b*b, so only the b >= 0 are walked, each b for
    # both: c runs through the class of c0 = (n0 + b*b)/g * inv mod step,
    # from c = a + t, t = c0 - a mod step, which -b takes too when t > 0
    # and one step on (one stride on in the window) when t = 0, as -b needs
    # c > a.  Where n0 + b*b > 4a**2 no n of the class lies below the
    # window, so its first index S = (4a*(a + t) - n0 - b*b)/M may be < 0.
    roots = [r for r in range(min(g, a + 1)) if (n0 + r * r) % g == 0]
    starts: list[int] = []
    if m <= a:
        # t depends on b mod M only, so along b = rho + M*j the first index
        # is S0 - j*(2*rho + M*j): one run per residue rho, built in C
        for rho in [rho for r in roots for rho in range(r, m, g)]:
            rhs = n0 + rho * rho
            t = (rhs // g * inv - a) % step
            last = (a - rho) // m
            gaps = range(2 * rho + m, 2 * rho + m + 2 * m * last, 2 * m)
            run = list(accumulate(gaps, sub, initial=(a4 * (a + t) - rhs) // m))
            starts += run
            # -b for the b of the run other than 0 and a
            twin = run[1 if rho == 0 else 0 : last if rho + last * m == a else last + 1]
            starts += twin if t else [s + stride for s in twin]
        return stride, starts
    for r in roots:
        for b in range(r, a + 1, g):
            rhs = n0 + b * b
            t = (rhs // g * inv - a) % step
            s = (a4 * (a + t) - rhs) // m
            if s < length:
                starts.append(s)
                if 0 < b < a:
                    starts.append(s if t else s + stride)
    return stride, starts


def _definite_class_numbers(deltas: list[int], window: tuple[int, int, int]) -> array:
    """Class numbers of negative fundamental discriminants, by one sweep over
    the reduced forms of their window (after Buell's class-number tables).

    window is _sweep_window(deltas), (n0, M, L), which _sweep_plan measured.
    With n = |delta| ≡ n0 mod M, each a <= sqrt(max n/3) takes every b in
    (-a, a] with g = gcd(4a, M) dividing n0 + b*b; then
    n = 4ac - b*b ≡ n0 mod M exactly when c runs through one class mod M/g,
    and n itself through one class mod 4a*M/g.  The reduced forms (c >= a,
    and c > a when b < 0) of one (a, b) therefore fill a whole tail of that
    class inside the window (_tail_starts), and h(n) counts the tails that
    reach n; no form is built.  Every form of a fundamental discriminant is
    primitive, so the count is h.  Fundamentality is checked against one
    square-free sieve, as in enumerate_progression.

    The tails of one a are counted in byte lanes, one per window slot from
    the first start on: a histogram of the starts, summed down the rows of
    stride slots as one int per row, until every start is passed; from there
    each row repeats the column totals.  The lanes of every a are added, as
    one int (slot L-1 least significant), into an accumulator of 8-bit lanes,
    while the sum of each a's largest lane stays below 256; before a lane
    could pass 255 the accumulator is spread into the 32-bit lanes of the
    total.  No lane carries:
    - one a adds at most #{b in (-a, a] : b*b ≡ -n mod 4a} to the lane of
      any n of the window, fundamental or not.  That count is half the
      number of roots mod 4a (the roots are closed under x -> x + 2a), which
      is multiplicative over the prime powers of 4a; the largest product of
      each prime power's most roots is 440 for a <= isqrt(MAX_DISCRIMINANT/3)
      = 18,257 (at a = 18,150 = 2*3*5**2*11**2, as a loop over every such a
      shows), so no lane of one a passes 220;
    - the total lane is at most sum(2a) = a_max*(a_max + 1) < 2**32.
    A lane past 255 raises ArithmeticError all the same.  The class numbers
    come back as an array('q') in the order of deltas, gathered from the
    32-bit lanes with no list of one Python int per delta.  Memory is O(L)
    bytes for the window length L (the total takes 4L), and no numpy is
    loaded.
    """
    n_max = -min(deltas)
    check_scan_limit("|delta|", n_max)
    # _is_fundamental asks about n itself when n is odd and about n/4 when not.
    squarefree = squarefree_flags(max(-d if d % 2 else -d // 4 for d in deltas)).__getitem__
    for delta in deltas:
        if delta >= 0 or not _is_fundamental(delta, squarefree):
            raise ValueError(f"{delta} is not a fundamental discriminant")
    n0, m, length = window
    total = acc = bound = 0
    # largest a first, so that acc grows with the span of each a
    for a in range(isqrt(n_max // 3), 0, -1):
        stride, starts = _tail_starts(a, n0, m, length)
        if starts and min(starts) < 0:
            starts = [s % stride if s < 0 else s for s in starts]
        if starts and max(starts) >= length:
            starts = [s for s in starts if s < length]
        if not starts:
            continue
        base = min(starts)
        counts = bytearray((max(starts) - base) // stride * stride + stride)
        lanes = bytearray()
        row = 0
        try:
            for s in starts:
                counts[s - base] += 1
            for i in range(0, len(counts), stride):
                row += int.from_bytes(counts[i : i + stride], "big")
                lanes += row.to_bytes(stride, "big")
            totals = row.to_bytes(stride, "big")
            if sum(totals) != len(starts):  # a lane carried into the next
                raise OverflowError
        except (ValueError, OverflowError):
            raise ArithmeticError(f"a sweep lane passed 255 at a = {a}") from None
        span = length - base
        lanes += totals * -((len(lanes) - span) // stride)
        del lanes[span:]
        peak = max(totals)
        if bound + peak > 255:
            total += _spread(acc)
            acc = bound = 0
        bound += peak
        acc += int.from_bytes(lanes, "big")
    total += _spread(acc)
    lanes32 = array(_LANE32, total.to_bytes(4 * length, "big"))
    if sys.byteorder == "little":
        lanes32.byteswap()
    # the window index (n - n0)/M of each delta
    index = map(m.__rfloordiv__, map((-n0).__sub__, deltas))
    return array("q", map(lanes32.__getitem__, index))


def _spread(acc: int) -> int:
    """The 8-bit lanes of acc as 32-bit lanes, in the same order."""
    size = (acc.bit_length() + 7) // 8
    wide = bytearray(4 * size)
    wide[3::4] = acc.to_bytes(size, "big")
    return int.from_bytes(wide, "big")


# ---------------------------------------------------------------------------
# Class group summary

def _mul(
    t1: tuple[int, int, int], t2: tuple[int, int, int], delta: int, s: int
) -> tuple[int, int, int]:
    """Reduced product of two reduced forms; s = isqrt(delta) when delta > 0.

    Dirichlet's united forms (Cohen, GTM 138, §5.4) fix the product's b3
    mod 2*a3 by b3 ≡ b1 mod 2*a1/d, b3 ≡ b2 mod 2*a2/d and
    b3**2 ≡ delta mod 4*a3, with d = gcd(a1, a2, (b1 + b2)/2) and
    a3 = a1*a2/d**2.  Two cases need one modular inverse (pow, in C):
    - gcd(a1, a2) = 1: b3 = b2 + 2*a2*k with k ≡ (b1 - b2)/2 * a2**-1 mod a1;
    - a square, with d = gcd(a, b) and a' = a/d: b3 = b + 2*a'*k with
      k ≡ -c * (b/d)**-1 mod a', as then 4*a'*(d*c + k*b) ≡ 0 mod 4*a'**2.
    Any other pair goes through _compose_raw.  Both identities hold whatever
    the signs of a1 and a2 (so inverses are taken mod |a|), and proper
    equivalence is narrow equivalence, so forms led by a < 0 compose as
    they are.
    """
    a1, b1, c1 = t1
    a2, b2, _ = t2
    if t1 == t2:
        d = gcd(a1, b1)
        m = a1 // d
        k = -c1 * pow(b1 // d, -1, abs(m))
        a3, b3 = m * m, b1 + 2 * m * k
    elif gcd(a1, a2) == 1:
        k = (b1 - b2) // 2 * pow(a2, -1, abs(a1)) % a1
        a3, b3 = a1 * a2, b2 + 2 * a2 * k
    else:
        return _reduce_raw(*_compose_raw(*t1, *t2, delta), delta, s)
    b3 %= 2 * a3
    return _reduce_raw(a3, b3, (b3 * b3 - delta) // (4 * a3), delta, s)


def _power(t: tuple[int, int, int], e: int, delta: int, s: int) -> tuple[int, int, int]:
    """Reduced e-th power of a reduced form, e >= 1, by square-and-multiply."""
    acc = None
    while True:
        if e & 1:
            acc = t if acc is None else _mul(acc, t, delta, s)
        e >>= 1
        if not e:
            return acc
        t = _mul(t, t, delta, s)


def _adjoin(group: list, seen: set, y, delta: int, s: int, key) -> bool:
    """Extend the subgroup listed in group by the class of y; say whether it grew.

    seen holds key(x) for every x in group, and both grow in place.  y is
    adjoined coset by coset: y**k * group is either group itself or disjoint
    from every coset before it, so the first element of each coset decides.
    """
    if key(y) in seen:
        return False
    coset = group
    while True:
        first = _mul(coset[0], y, delta, s)
        if key(first) in seen:
            return True
        coset = [first] + [_mul(x, y, delta, s) for x in coset[1:]]
        seen.update(map(key, coset))
        group.extend(coset)


def _sylow_three_torsion(delta: int, s: int, h: int, generators, one, key) -> int:
    """Number of classes x with x**3 = 1 in a class group of order h, 9 | h,
    or, when delta > 0, of order h or h/2, h the narrow class number.

    With h = 3**v * m, v >= 2 and 3 not dividing m, the 3-torsion lies in the
    3-Sylow subgroup S, the image of x -> x**m, as m is prime to 3 and a
    multiple of the group's 3'-part (v <= 1 is settled by _span_counts
    before any form is built).  The y = g**m, for g drawn from
    reduced forms that generate the group together with classes of order at
    most 2 (whose m-th powers are the identity, as m is then even), are
    taken in turn, skipping each y whose class is already in S.
    If y**(3**(v-1)) is not the identity, y has order |S|, so S is cyclic
    and its 3-torsion is 3, decided by that one power.  If not, y is
    adjoined to the span of S, until |S| = 3**v, and the 3-torsion is
    counted as |S| / |S**3|, with S**3 spanned by the cubes of the y that
    enlarged S.
    one is the identity's reduced form, and key(f) names the class of a
    reduced form f.  Raises ArithmeticError if the generators run out first.
    """
    m = h
    while m % 3 == 0:
        m //= 3
    size = h // m
    sylow = [one]
    seen = {key(one)}
    spanning = []
    for g in generators:
        y = _power(g, m, delta, s)
        if key(y) in seen:
            continue
        # ord(y) divides |S| = 3**v, so if y**(3**(v-1)) is not the identity
        # class then ord(y) = |S|: y generates S, S is cyclic and
        # |S[3]| = 3.  Classes are compared by key, never by form, as a class
        # has many reduced forms when delta > 0.
        if key(_power(y, size // 3, delta, s)) != key(one):
            return 3
        _adjoin(sylow, seen, y, delta, s, key)
        spanning.append(y)
        if len(sylow) == size:
            break
    if len(sylow) != size:
        raise ArithmeticError(f"3-Sylow span stalled at {len(sylow)} of {size} classes")
    # x -> x**3 is an endomorphism of the finite abelian group S, with kernel
    # S[3] and image S**3, so |S[3]| = |S| / |S**3|.  The y in spanning
    # generate S, so their cubes generate S**3.
    cubes = [one]
    seen = {key(one)}
    for y in spanning:
        _adjoin(cubes, seen, _power(y, 3, delta, s), delta, s, key)
    return size // len(cubes)


def _prime_forms(
    delta: int, known: Callable[[int], bool] | None = None
) -> Iterator[tuple[int, int, int]]:
    """Reduced prime forms (p, b, (b*b - delta)/4p), for the primes p <= amax
    with (delta/p) != -1, in increasing order of p.

    amax is isqrt(|delta|/3) when delta < 0 and isqrt((delta + 4)/9), Markov's
    bound, when delta > 0.  The forms generate the class group, the ordinary
    one when delta > 0: every class has a reduced form (a, b, c) with
    0 < a <= amax, and that form is a product of prime forms and their
    inverses for the p dividing a (for delta > 0, see the comment above
    _principal_class).  When delta > 0, 2p <= s = isqrt(delta), so the
    window s + 1 - 2p <= b <= s holds exactly one b of each class mod 2p,
    and the form with that b is reduced as built.  A prime p with known(p)
    true is passed over before its square root is taken; known is asked when
    p is reached, so it sees what the forms yielded before p have spanned.
    An odd p with (delta/p) = -1 is passed over by Euler's criterion, one
    pow, so every square root taken exists.
    """
    check_scan_limit("|delta|", abs(delta))
    s = isqrt(delta) if delta > 0 else 0
    amax = isqrt((delta + 4) // 9) if delta > 0 else isqrt(-delta // 3)
    for p in _primes():
        if p > amax:
            break
        if known is not None and known(p):
            continue
        if p == 2:
            b = next((b for b in range(4) if (b * b - delta) % 8 == 0), None)
        elif pow(delta, (p - 1) // 2, p) == p - 1:
            # (delta/p) = -1 by Euler's criterion: p is inert, with no root
            continue
        else:
            r = _sqrt_mod_prime(delta, p)
            b = None if r is None else r if (r - delta) % 2 == 0 else p - r
        if b is None:
            continue
        if delta < 0:
            yield _reduce_definite_raw(p, b, (b * b - delta) // (4 * p))
        else:
            lo = s + 1 - 2 * p
            b = lo + (b - lo) % (2 * p)
            yield p, b, (b * b - delta) // (4 * p)


def _rho_arc(
    a: int, b: int, c: int, delta: int, s: int, forms: list, stop: tuple[int, int, int]
) -> bool:
    """Append the rho-successors of the reduced form (a, b, c) to forms, up
    to an axis of the mirror (a, b, c) -> (c, b, a) (True) or up to stop,
    not appended (False).

    An axis is a form (a, b, a), appended, or a form that is the mirror
    image of the one before it, not appended.  Either puts the mirror image
    of a form of the cycle in the cycle, so only the cycle of a narrowly
    self-inverse class has axes.  Each step is _rho_raw's branch for
    |c| <= s: c leads the reduced rho-neighbour, and every reduced form has
    |a| < sqrt(delta).
    """
    while True:
        r = s - (s + b) % (2 * abs(c))
        n = (r * r - delta) // (4 * c)
        if r == b and n == a:
            return True
        a, b, c = c, r, n
        g = a, b, c
        if g == stop:
            return False
        forms.append(g)
        if a == c:
            return True


class _RhoIndex(dict):
    """Ordinary class index of the reduced forms of one delta > 0, for the span.

    Looking up a form f not indexed yet walks its rho-cycle, the narrow
    class y of f, and gives the ordinary class x of f a new class number,
    and x**-1 the next one unless x = x**-1.  For each form (a, b, c) of the
    walked cycle, (-a, b, -c) lies in x, as a form of the other narrow class
    of x, y*sigma, and (c, b, a) and (-c, b, -a) lie in x**-1.  A later
    lookup of a form of x or x**-1 finds one of its own images stored and
    takes that class's number, so no other cycle of x or x**-1 is walked;
    the looked-up form is not stored.  The cycle of a narrowly self-inverse
    class is walked only between the two axes of the mirror
    (a, b, c) -> (c, b, a) (_rho_arc), storing at most l/2 + 1 of its l
    forms, and a form of the other arc finds its mirror image stored.  So
    index[f] names the class of any reduced form f, and inverse[k] the
    inverse of class k.  The proofs are in the comment above
    _principal_class.
    led[p] names a class that holds a reduced form led by p > 0.  The c of
    the stored forms and the a of the first one lead, up to sign, every form
    of a cycle walked in halves, as the c of a form is the a of its
    rho-neighbour and of its mirror image, and a class that holds a form
    (-p, b, c) holds (p, b, -c).
    """

    def __init__(self, delta: int, s: int):
        super().__init__()
        self.delta, self.s = delta, s
        self.led: dict[int, int] = {}
        self.inverse: list[int] = []

    def __missing__(self, f: tuple[int, int, int]) -> int:
        delta, s, inverse = self.delta, self.s, self.inverse
        a0, b0, c0 = f
        # f itself is not stored, so the walked halves of self-inverse
        # cycles stay halves
        k = self.get((-a0, b0, -c0))
        if k is not None:
            return k
        for g in (c0, b0, a0), (-c0, b0, -a0):
            k = self.get(g)
            if k is not None:
                return inverse[k]
        cid, size = len(inverse), len(self)
        forms = [f]
        mirrored = a0 == c0 or _rho_arc(a0, b0, c0, delta, s, forms, f)
        if mirrored:
            # the walk met one axis of the mirror, and the arc from the
            # mirror image of f runs to the other one
            _rho_arc(c0, b0, a0, delta, s, forms, f)
        self.update(zip(forms, repeat(cid)))
        if len(self) != size + len(forms):
            raise ArithmeticError(f"rho walk from {f} did not close into a cycle")
        # x = x**-1 when the cycle has axes, or when it holds (-c0, b0, -a0),
        # which no earlier walk stored, or f would have found it
        if mirrored or (-c0, b0, -a0) in self:
            inverse.append(cid)
        else:
            inverse += cid + 1, cid
        self.led.update(zip([abs(c) for _, _, c in forms], repeat(cid)))
        self.led[abs(a0)] = cid
        return cid


# Why the prime forms span the ordinary class group when delta > 0.  Let
# m(f) be the least |f(x, y)| over the integer vectors (x, y) != 0.  Forms
# of one class take the same values, and for a form f of discriminant delta
# m = m(f) is a positive integer, attained, as delta is not a square.
# Markov's theorem (A. Markoff, Math. Ann. 15 (1879) and 17 (1880); Cusick
# and Flahive, The Markoff and Lagrange Spectra, AMS 1989, ch. 1 and 2):
# either sqrt(delta)/m >= 3, or f is equivalent to t*F for a real t and a
# Markov form F, an integral form of discriminant 9*mu**2 - 4 and minimum
# mu for a Markov number mu (1, 2, 5, 13, 29, ...).  In the first case
# 9*m*m <= delta, with equality only for a square delta, so m*m < delta/9.
# In the second, f is primitive (delta is fundamental) and F is integral,
# so |t| is 1 over the content of F, delta = t*t*(9*mu**2 - 4) is at most
# 9*mu**2 - 4, and m*m = t*t*mu*mu = delta*mu*mu/(9*mu**2 - 4), which is at
# most (delta + 4)/9 exactly when delta <= 9*mu**2 - 4.
# So m <= isqrt((delta + 4)/9), the bound of _prime_forms, and it is sharp:
# at delta = 221 = 9*5**2 - 4 the class of the Markov form (5, 11, -5) holds
# no form led by less than 5 in absolute value.  m is attained at a
# primitive vector, since g*v with g > 1 has |f(g*v)| = g*g*|f(v)|, and a
# primitive vector is the first column of a matrix of determinant 1, so f
# is properly equivalent to a form (a, b, c) with |a| = m.  As
# m*m <= (delta + 4)/9 < delta/4 for delta >= 5, 2m <= s = isqrt(delta), and
# (x, y) -> (x + k*y, y) moves b by 2mk into the window s - 2m < b <= s,
# where |sqrt(delta) - 2|a|| < b < sqrt(delta): that form is reduced.  The
# ordinary class of (a, b, c) holds (-a, b, -c) (below), so every ordinary
# class holds a reduced form (a, b, c) with 0 < a <= isqrt((delta + 4)/9).
# The ideal [a, (-b + sqrt(delta))/2] of (a, b, c) has norm a and factors
# into prime ideals over the primes p | a, each split or ramified since
# b*b ≡ delta mod 4a.  The class of a prime ideal of norm p is that of the
# prime form (p, b_p, .) or of its inverse (p, -b_p, .), and
# p <= a <= isqrt((delta + 4)/9).  So the classes of the forms from
# _prime_forms generate the group, and adjoining them all to the principal
# class lists it.
#
# Why one walk numbers x and x**-1 (_RhoIndex), and the narrow factor
# (_principal_class).  For sigma the narrow class of the negated principal
# form, the images (c, b, a), (-a, b, -c) and (-c, b, -a) of a reduced form
# (a, b, c) of a narrow class y are reduced forms of y**-1, y*sigma and
# y**-1*sigma:
# - (c, b, a) lies in y**-1, the class of (a, -b, c), by (x, y) -> (-y, x);
# - (-a, b, -c) lies in y*sigma: it is the united-form product of (a, b, c)
#   with (-1, b, -a*c), a form of sigma;
# - reducedness, |sqrt(delta) - 2|a|| < b < sqrt(delta), depends only on
#   |a|, b and |c|, and is symmetric in |a| and |c|, since
#   4|a*c| = (sqrt(delta) - b)*(sqrt(delta) + b).
# The three maps are commuting involutions, and the reduced forms of a
# narrow class are one cycle, so each maps the cycle of y onto the whole
# cycle of its image class.  The narrow class group maps onto the ordinary
# one with kernel {1, sigma} (Cohen, GTM 138, §5.2 and §5.6), so the
# ordinary class x of y is the cycle of y with that of y*sigma, and x**-1
# the cycles of y**-1 and y**-1*sigma.  x = x**-1 exactly when y**2 is 1 or
# sigma, that is when the cycle of y holds (c, b, a) (it has axes, below)
# or (-c, b, -a).  The narrow class number is h times the order of sigma:
# h when sigma is principal, that is when the principal cycle holds the one
# reduced form led by -1, (-1, b, (delta - b*b)/4) with s - 2 < b <= s (or,
# walked in halves, its mirror image), and 2h when not.  sigma is principal
# exactly when the fundamental unit has norm -1, which the primes of delta
# do not decide: 136 = 8*17 has none ≡ 3 mod 4, yet sigma is not principal.
#
# Why a prime p whose led class is indexed is passed over.  A reduced form
# (p, b, c) with p <= isqrt(delta/4), as every p of _prime_forms is, has
# 2p <= s, so sqrt(delta) - 2p < b <= s:
# b lies in the window where _prime_forms builds p's prime form, and
# b*b ≡ delta mod 4p puts b in the class of b_p or -b_p mod 2p.  So the
# only reduced forms led by p are the prime forms of norm p, of the classes
# P and P**-1.  Between two prime forms every class the index has numbered
# lies in the span: _adjoin keys only the prime form y it adjoins and
# products of spanned classes with y, and each walk numbers a class x with
# x**-1.  So once index.led holds p, the span, a group, holds P or P**-1 and
# so both, and p's prime form would not enlarge it: the forms that enlarge
# the span are the same with and without the skip.  An inert p, (delta/p) = -1, has
# no prime form at all; Euler's criterion, delta**((p-1)/2) ≡ -1 mod p,
# passes it over before Tonelli-Shanks.
#
# Why a self-inverse class is walked in halves.  The mirror
# iota: (a, b, c) -> (c, b, a) satisfies iota*rho*iota = rho**-1 on reduced
# forms: for rho(a, b, c) = (c, r, c'), the form rho(c', r, c) is led by c,
# and its middle coefficient is ≡ -r ≡ b mod 2|c| and lies in the window
# (s - 2|c|, s] that holds b, so it is (c, b, a).  If y = y**-1, iota maps
# the cycle of y onto itself, as a reflection i -> k - i of the positions of
# its l forms, and a reflection of a cycle has two axes: a position it
# fixes, a form (a, b, a), or a pair of neighbours it swaps, each the mirror
# image of the other.  An axis puts the mirror image of a form of the cycle
# in the cycle, so it shows y = y**-1, and the cycle of a class with
# y != y**-1 has none.  The walk from f goes forward to the first axis and
# then, from the rho-neighbour of iota(f), forward to the second: that
# second leg is the mirror image of the way back from f.  The forms it
# stores are, each as itself or as its mirror image, the forms of one arc
# between the axes, at most l/2 + 1 of them; a form of the other arc has its
# mirror image stored, so the lookup through that image names x = x**-1.  A
# cycle with no axis is walked whole and is back at f after l steps.


def _principal_class(delta: int, s: int):
    """The identity's reduced form, the class key of reduced forms, the class
    index's led (see _RhoIndex) and the narrow factor, the narrow class
    number over the ordinary one.

    A reduced definite form is its own class key, so no class index is built
    when delta < 0, led is None and the factor is 1.  When delta > 0 the
    principal cycle is walked here, and the factor is 1 if it holds the
    negated principal form's reduced form (-1, b, c), and 2 if not.
    """
    one = _reduce_raw(*principal_form(delta), delta, s)
    if delta < 0:
        return one, (lambda f: f), None, 1
    index = _RhoIndex(delta, s)
    index[one]  # walks the principal cycle, in halves
    b = s - (s - delta) % 2
    c = (delta - b * b) // 4
    # a cycle walked in halves stores a form or its mirror image
    narrow = 1 if (-1, b, c) in index or (c, b, -1) in index else 2
    return one, index.__getitem__, index.led, narrow


def _squares_to_one(g: tuple[int, int, int], delta: int) -> bool:
    """Whether g, a form from _prime_forms, is known to have a class of order
    at most 2: the prime form of a ramified prime p | delta, whose square is
    the class of (p), principal.  When delta < 0, g is reduced, the one
    reduced form of its class, and the class is its own inverse, as a
    ramified prime's is, exactly when b = 0, b = a or a = c.
    """
    a, b, c = g
    if delta < 0:
        return b == 0 or a in (b, c)
    # the prime forms of delta > 0 are built led by p
    return delta % a == 0


def _span_counts(delta: int, h: int | None = None) -> tuple[int, int]:
    """(h, 3-torsion) of a fundamental discriminant of either sign, from prime forms.

    h is the class number, the narrow one when delta > 0, if known.  If not,
    the whole group, the ordinary one when delta > 0, is spanned from the
    prime forms first, h is its size times the narrow factor of
    _principal_class, and the prime forms that enlarged it, which generate
    it, go on to span the 3-Sylow subgroup, which the narrow and ordinary
    groups share.  When delta > 0, a prime whose reduced forms already lie
    in an indexed class is passed over before its square root is taken (see
    the comment above _principal_class).
    If 9 does not divide h, Lagrange settles the 3-torsion: 1 when 3 does
    not divide h, and 3 when 3 || h, as the 3-Sylow subgroup then has order
    3 and is C3.  So a known h with 9 not dividing it builds no form at all.
    The 3-Sylow span is handed no form whose class is known to square to the
    identity (_squares_to_one), and with h known a ramified prime is passed
    over before its square root is taken.
    """
    s = isqrt(delta) if delta > 0 else 0
    spanned = h is None
    if spanned:
        one, key, led, narrow = _principal_class(delta, s)
        group, seen = [one], {key(one)}
        known = None if led is None else led.__contains__
        gens = [
            g for g in _prime_forms(delta, known) if _adjoin(group, seen, g, delta, s, key)
        ]
        h = len(group) * narrow
    if h % 9:
        return h, 3 if h % 3 == 0 else 1
    if not spanned:
        one, key, _, _ = _principal_class(delta, s)
        # a ramified prime's form would be dropped below: pass over it first
        gens = _prime_forms(delta, lambda p: delta % p == 0)
    # g**m is the identity when g**2 is, as m, the 3'-part of h, is then even
    gens = (g for g in gens if not _squares_to_one(g, delta))
    return h, _sylow_three_torsion(delta, s, h, gens, one, key)


def _three_rank(class_number: int, three_torsion: int, ranks: dict[int, int]) -> int:
    """The 3-rank of stored (h, 3-torsion) counts, refusing a pair that no
    class group has: h must be positive, and the 3-torsion a power of 3 that
    divides h.  ranks maps each torsion value already checked to its 3-rank,
    so exact_log runs once per distinct value, however many pairs share it.
    """
    if class_number < 1:
        raise ValueError(f"class number {class_number} must be positive")
    rank = ranks.get(three_torsion)
    if rank is None:
        rank = exact_log(three_torsion, 3)
        if rank is None:
            raise ArithmeticError(f"3-torsion count {three_torsion} is not a power of 3")
        ranks[three_torsion] = rank
    if class_number % three_torsion:
        raise ArithmeticError(
            f"3-torsion {three_torsion} does not divide h = {class_number}"
        )
    return rank


def summary_from_counts(delta: int, class_number: int, three_torsion: int) -> ClassGroupSummary:
    """A validated summary of (h, 3-torsion) counts: the structural
    invariants (torsion is a power of 3 dividing h) are checked, so a
    corrupted pair cannot silently enter a dimension computation.
    """
    return ClassGroupSummary(
        delta=delta,
        class_number=class_number,
        three_torsion=three_torsion,
        three_rank=_three_rank(class_number, three_torsion, {}),
    )


def _check_fundamental(delta: int) -> None:
    check_scan_limit("|delta|", abs(delta))
    if not is_fundamental(delta):
        raise ValueError(f"{delta} is not a fundamental discriminant")


def class_group_summary(delta: int) -> ClassGroupSummary:
    """Class number and 3-torsion of the (narrow, if delta > 0) class group.

    For either sign the whole group, the ordinary one when delta > 0, is
    spanned from prime forms first (_span_counts, _prime_forms), so h is the
    size of the span, times the narrow factor of _principal_class when
    delta > 0, and no form is enumerated; the 3-torsion is then counted
    inside the 3-Sylow subgroup (_sylow_three_torsion), which the narrow and
    ordinary groups share.
    """
    _check_fundamental(delta)
    return summary_from_counts(delta, *_span_counts(delta))


def compute_class_data(deltas: list[int], jobs: int = 1) -> tuple[array, array]:
    """h and the 3-torsion of each of the distinct discriminants deltas, as
    two array('q') in the order of deltas, optionally in parallel.

    Every delta is checked to be a fundamental discriminant before any class
    number is computed.  When one sweep over their window is cheaper than
    spanning each alone (_sweep_plan), the negative discriminants are checked
    against the sweep's square-free sieve and take their class numbers from
    it; every other delta is checked alone (~10 us each).
    The result does not depend on jobs; partitioning only affects wall time,
    and no more workers start than there are discriminants or CPUs.
    """
    if jobs < 1:
        raise ValueError("jobs must be a positive integer")
    negative = [d for d in deltas if d < 0]
    window = _sweep_plan(negative)
    for delta in deltas:
        if window is None or delta >= 0:
            _check_fundamental(delta)
    if window is None:
        known = repeat(None)
    else:
        swept = iter(_definite_class_numbers(negative, window))
        known = (next(swept) if d < 0 else None for d in deltas)
    jobs = min(jobs, len(deltas), os.cpu_count() or 1)
    if jobs == 1 or len(deltas) < 8:
        counts = map(_span_counts, deltas, known)
    else:
        # imported here, as only a pool needs it: loading it costs every other
        # process (--jobs 1, a warm rescan, classgroup, twist, verify) about 10 ms
        import multiprocessing

        chunk = max(1, len(deltas) // (jobs * 8))
        with multiprocessing.Pool(jobs) as pool:
            counts = pool.starmap(_span_counts, zip(deltas, known), chunksize=chunk)
    class_numbers, three_torsion = array("q"), array("q")
    for h, torsion in counts:
        class_numbers.append(h)
        three_torsion.append(torsion)
    return class_numbers, three_torsion


# ---------------------------------------------------------------------------
# Independent oracles

# Largest |delta| either oracle accepts: the analytic oracle's memory and the
# form enumeration's time grow linearly in |delta|.
_ORACLE_LIMIT = 10**7

# The oracle squares k and sums t * chi(t) this many at a time, so no int64
# array of length |delta| is built; each partial sum stays below 2**43.
_BLOCK = 2**18


# chi_d2 over one period |d2| for the 2-part d2 != 1 of a fundamental discriminant.
_CHI_2_PART = {
    -4: (0, 1, 0, -1),
    8: (0, 1, 0, -1, 0, -1, 0, 1),
    -8: (0, 1, 0, 1, 0, -1, 0, -1),
}

# Odd primes up to this bound keep their Legendre table for the process: at
# most 445 tables, 642,867 bytes.  Every prime factor of a |delta| the oracle
# accepts but the largest is at most this bound, so at most one table per
# call is built and dropped.
_LEGENDRE_MEMO_BOUND = isqrt(_ORACLE_LIMIT)


def _legendre_table(q: int) -> np.ndarray:
    """(t|q) for 0 <= t < q, q an odd prime, as int8, by marking the squares mod q."""
    import numpy as np

    legendre = np.full(q, -1, dtype=np.int8)
    legendre[0] = 0
    for start in range(1, (q + 1) // 2, _BLOCK):
        k = np.arange(start, min(start + _BLOCK, (q + 1) // 2), dtype=np.int64)
        k *= k
        k %= q
        legendre[k] = 1
    return legendre


@cache
def _small_legendre_table(q: int) -> np.ndarray:
    """_legendre_table(q) for q <= _LEGENDRE_MEMO_BOUND, built once and read-only."""
    table = _legendre_table(q)
    table.flags.writeable = False
    return table


def _kronecker_table(delta: int, factors: tuple[tuple[int, int], ...]) -> np.ndarray:
    """chi[t] = kronecker(delta, t) for 0 <= t < |delta|, delta fundamental.

    A fundamental delta is a product of prime discriminants,
    delta = d2 * prod q*, with q* = +-q = 1 mod 4 for each odd prime q | delta
    and d2 in {1, -4, 8, -8}, so chi(t) = chi_d2(t) * prod (t|q).  Each
    period q or |d2| divides |delta|: chi starts as np.tile of the first
    factor's table, and viewing chi as rows of each further period, one
    in-place multiply applies that factor's table to every row.  factors is
    factorize(|delta|), which the caller has, so |delta| is factored once.
    The Legendre table of q is built by marking the squares mod q; for
    q <= _LEGENDRE_MEMO_BOUND it is kept for the process, read-only, and a
    larger one is dropped with the call.  No table of the span is shared:
    neither arith.kronecker nor the prime list (_primes) is used, only
    factorize (trial division).  chi is int8, one byte per t.
    """
    import numpy as np

    n = abs(delta)
    odd, tables = 1, []
    for q, _ in factors:
        if q == 2:
            continue
        odd *= q if q % 4 == 1 else -q
        small = q <= _LEGENDRE_MEMO_BOUND
        tables.append(_small_legendre_table(q) if small else _legendre_table(q))
    d2 = delta // odd
    if d2 != 1:
        tables.insert(0, np.array(_CHI_2_PART[d2], dtype=np.int8))
    chi = np.tile(tables[0], n // len(tables[0]))
    for table in tables[1:]:
        rows = chi.reshape(-1, len(table))
        rows *= table
    return chi


def analytic_class_number_oracle(delta: int) -> int:
    """Imaginary quadratic class number by Dirichlet's analytic formula.

    Evaluates h = w * sqrt|delta| / (2*pi) * L(1, chi) through the exact
    finite character sum  h = |sum_{t=1}^{|delta|-1} t * chi(t)| / |delta|
    (unit count w = 2), a route fully independent of form reduction and
    composition.  |delta| is factored once: its odd part's exponents decide
    fundamentality (through discriminants._is_fundamental, as is_fundamental
    does), and its primes feed _kronecker_table, which fills chi = (delta|.)
    from the prime discriminants of delta: one Legendre table per odd prime
    q | delta and the character mod 4 or 8 of the 2-part, each multiplied in
    place over the whole period with no per-t loop.  The sum covers exactly
    one character period and is checked for exact integrality; anything
    else fails loudly.

    Time is O(|delta|); memory is one byte per unit of |delta| for the int8
    chi plus one per unit of the largest prime q | delta for its Legendre
    table.  A table with q > isqrt(10**7) = 3,162 does not outlive the call;
    the smaller ones are kept for the process, read-only, at most 445 tables
    and 642,867 bytes.  Measured with tracemalloc (numpy loaded, 2-CPU Xeon,
    Python 3.11, numpy 2.4): delta = -999,995 peaks at 5.0 MiB in about
    0.008 s, -9,999,995 (q = 1,999,999) at 13.5 MiB in 0.03 s, and the prime
    -9,999,991 at 19.1 MiB in 0.08 s.  |delta| > 10**7 is refused with
    ValueError before any table is built.
    """
    import numpy as np

    if delta >= 0:
        raise ValueError("the analytic oracle handles negative discriminants only")
    if -delta > _ORACLE_LIMIT:
        raise ValueError(f"|delta| exceeds the analytic oracle's limit {_ORACLE_LIMIT}")
    n = -delta
    factors = factorize(n)
    # _is_fundamental asks whether n or n/4 is square-free; both have n's odd part
    odd_squarefree = all(e == 1 for q, e in factors if q > 2)
    if not _is_fundamental(delta, lambda m: odd_squarefree and m % 4 != 0):
        raise ValueError(f"{delta} is not a fundamental discriminant")
    if delta in (-3, -4):
        raise ExtraUnitsDiscriminant(delta)
    chi = _kronecker_table(delta, factors)
    total = 0
    for start in range(0, n, _BLOCK):
        block = chi[start : start + _BLOCK]
        total += int(np.dot(np.arange(start, start + len(block), dtype=np.int64), block))
    if total % n:
        raise InconclusiveOracle(
            f"character sum {total} for delta = {delta} is not divisible by {n}"
        )
    h = abs(total) // n
    if h == 0:
        raise InconclusiveOracle(f"character sum vanished for delta = {delta}")
    return h


def reduced_forms(delta: int) -> list[Form]:
    """Every primitive reduced form of the discriminant, sorted lexicographically.

    A plain double loop over (a, b), with b in the parity of delta, tests
    b*b ≡ delta mod 4a for each pair; it shares nothing with the prime-form
    span, so the brute-force oracle (its only reader) stays independent of
    it.  Only primitive forms are kept (for fundamental discriminants every
    form is primitive), so the count is always the form class number.  Time
    is O(|delta|); |delta| > 10**7 (_ORACLE_LIMIT) is refused before any loop.
    """
    _check_discriminant(delta)
    if abs(delta) > _ORACLE_LIMIT:
        raise ValueError(f"|delta| exceeds the form enumeration's limit {_ORACLE_LIMIT}")
    s = isqrt(delta) if delta > 0 else 0
    out = []
    for a in range(1, s + 1 if delta > 0 else isqrt(-delta // 3) + 1):
        t, m = 2 * a, 4 * a
        if delta < 0:
            lo, hi = 1 - a, a
        else:
            # Reduced window |sqrt(delta) - 2a| < b <= s; as delta is not a
            # square, lo is its least integer.
            lo, hi = (s + 1 - t if t <= s else t - s), s
        lo += (lo - delta) % 2
        for b in [b for b in range(lo, hi + 1, 2) if (b * b - delta) % m == 0]:
            c = (b * b - delta) // m
            if gcd(a, b, c) != 1:
                continue
            if delta > 0:
                out += Form(a, b, c), Form(-a, b, -c)
            elif c > a or (c == a and b >= 0):
                out.append(Form(a, b, c))
    out.sort()
    return out


def _classes(
    delta: int, s: int
) -> tuple[list[tuple[int, int, int]], dict[tuple[int, int, int], int], int]:
    """Partition the sorted reduced forms into classes (rho-cycles when delta > 0).

    Returns the least form of each class, the class index of every form and
    the identity's index.  A reduced definite form is its own class; when
    delta > 0 each form not yet indexed starts a new class, and its whole
    cycle is walked with _rho_raw.  So the oracle shares neither the span's
    class index (_RhoIndex) nor its prime skip.  Raises ArithmeticError if a
    walk runs into a form it did not start from.
    """
    index: dict[tuple[int, int, int], int] = {}
    reps = []
    for f in reduced_forms(delta):
        if f in index:
            continue
        # the forms are sorted, so the first form met of each class is its least
        cid = index[f] = len(reps)
        reps.append(f)
        if delta > 0:
            g = _rho_raw(*f, delta, s)
            while g not in index:
                index[g] = cid
                g = _rho_raw(*g, delta, s)
            if g != f:
                raise ArithmeticError(f"rho walk from {f} did not close into a cycle")
    return reps, index, index[_reduce_raw(*principal_form(delta), delta, s)]


# Largest class number the brute-force oracle accepts; its walks compose up to h**2 times.
_BRUTE_FORCE_GUARD = 200


def brute_force_group_structure(delta: int) -> list[int]:
    """Invariant factors [d1, d2, ...] (d1 | d2 | ...) from the orders of all classes.

    The classes come from enumerating every reduced form (_classes; their
    rho-cycles when delta > 0), independent of the span for both signs
    (_span_counts, which class_group_summary uses) and of its 3-Sylow
    count.  Orders are found by cyclic walks: from each class x whose order
    is still unknown, the powers x, x**2, ... are composed until the walk
    reaches the identity at x**n, so n = ord(x), and every class on the walk
    takes its order n / gcd(n, k) at once as x**k.  Each product is the
    reference composition _compose_raw, reduced by _reduce_raw, so the
    oracle cross-checks the span's fast product _mul rather than sharing it.
    The elementary divisors are then recovered by order counting.  Refuses a class number above 200
    (_BRUTE_FORCE_GUARD) before walking any class.
    """
    s = isqrt(delta) if delta > 0 else 0
    reps, index, identity = _classes(delta, s)
    h = len(reps)
    if h > _BRUTE_FORCE_GUARD:
        raise ValueError(f"class number {h} exceeds the brute-force guard {_BRUTE_FORCE_GUARD}")
    orders = [0] * h
    for i in range(h):
        if orders[i]:
            continue
        walk = [i]  # walk[k - 1] is the class of reps[i]**k
        while walk[-1] != identity:
            product = _compose_raw(*reps[walk[-1]], *reps[i], delta)
            walk.append(index[_reduce_raw(*product, delta, s)])
            if len(walk) > h:
                raise ArithmeticError("element order exceeded the group size")
        n = len(walk)
        for k, j in enumerate(walk, 1):
            orders[j] = n // gcd(n, k)
    for order in orders:
        if h % order:
            raise ArithmeticError(f"order {order} does not divide h = {h}")
    return _invariant_factors(orders, h)


def _invariant_factors(orders: list[int], h: int) -> list[int]:
    """Elementary divisors of a finite abelian group from its element orders."""
    if h == 1:
        return []
    per_prime: dict[int, list[int]] = {}
    for p, e in factorize(h):
        # ranks[j] = log_p #{x : x**(p**j) == identity}; in an abelian group
        # each count is a p-power, and it reaches the Sylow size p**e by j = e.
        ranks = [0]
        for j in range(1, e + 1):
            r = exact_log(sum(1 for o in orders if p**j % o == 0), p)
            if r is None:
                raise ArithmeticError(f"element count for {p}^{j}-torsion is not a p-power")
            ranks.append(r)
        if ranks[-1] != e:
            raise ArithmeticError(f"{p}-Sylow count {p}^{ranks[-1]} is not the Sylow size {p}^{e}")
        # m[j] = number of cyclic p-factors with exponent >= j.
        m = [ranks[i] - ranks[i - 1] for i in range(1, len(ranks))]
        powers = []
        for exp in range(1, len(m) + 1):
            mult = m[exp - 1] - (m[exp] if exp < len(m) else 0)
            powers.extend([p**exp] * mult)
        per_prime[p] = sorted(powers, reverse=True)
    width = max(len(v) for v in per_prime.values())
    descending = []
    for rank_pos in range(width):
        d = 1
        for p, powers in per_prime.items():
            if rank_pos < len(powers):
                d *= powers[rank_pos]
        descending.append(d)
    factors = list(reversed(descending))
    for i in range(len(factors) - 1):
        if factors[i + 1] % factors[i]:
            raise ArithmeticError(f"invariant factors {factors} fail divisibility")
    product = 1
    for d in factors:
        product *= d
    if product != h:
        raise ArithmeticError(f"invariant factors {factors} do not multiply to h = {h}")
    return factors
