"""Class groups of quadratic fields through binary quadratic forms.

For delta < 0 the class group is realized by the unique reduced positive
definite forms; for delta > 0 the narrow class group is realized by
rho-cycles of reduced indefinite forms (the narrow and ordinary groups share
their odd part, which is all the 3-rank machinery consumes).  Reduced forms
are enumerated from the square roots of delta modulo 4a, built from the prime
powers of each admissible a, in O~(sqrt|delta|) time and memory.  Composition
is Dirichlet's, 3-torsion is counted inside the 3-Sylow subgroup, and two
independent oracles cross-check the enumeration: the exact finite character
sum behind the analytic class number formula, and elementary divisors
recovered from a brute-force composition table.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import gcd, isqrt
from typing import NamedTuple

import numpy as np

from .arith import factorize, kronecker, xgcd
from .discriminants import MAX_DISCRIMINANT, is_fundamental


class Form(NamedTuple):
    """Integral binary quadratic form a*x**2 + b*x*y + c*y**2."""

    a: int
    b: int
    c: int

    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def content(self) -> int:
        return gcd(gcd(abs(self.a), abs(self.b)), abs(self.c))


@dataclass(frozen=True)
class ClassGroupSummary:
    """Class number and 3-torsion data for one fundamental discriminant.

    class_number is the narrow class number when delta > 0; three_torsion is
    the number of classes killed by cubing, always a power of 3.
    """

    delta: int
    class_number: int
    three_torsion: int
    three_rank: int


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
    t = 2 * abs(c)
    if abs(c) > s:
        r = (-b) % t
        if r > abs(c):
            r -= t
    else:
        r = s - (s + b) % t
    return c, r, (r * r - delta) // (4 * c)


def _reduce_indefinite_raw(a: int, b: int, c: int, delta: int, s: int) -> tuple[int, int, int]:
    steps = 0
    while not _is_reduced_indefinite(a, b, s, delta):
        a, b, c = _rho_raw(a, b, c, delta, s)
        steps += 1
        if steps > 100000:
            raise ArithmeticError(f"reduction of ({a},{b},{c}) did not terminate")
    return a, b, c


def reduce_form(form: Form) -> Form:
    """Reduced representative: the canonical one for delta < 0, a cycle member for delta > 0."""
    delta = form.discriminant()
    _check_discriminant(delta)
    if form.content() != 1:
        raise ValueError("reduction requires a primitive form")
    if delta < 0:
        if form.a <= 0:
            raise ValueError("definite forms must be positive definite (a > 0)")
        return Form(*_reduce_definite_raw(form.a, form.b, form.c))
    return Form(*_reduce_indefinite_raw(form.a, form.b, form.c, delta, isqrt(delta)))


def is_reduced(form: Form) -> bool:
    delta = form.discriminant()
    _check_discriminant(delta)
    if delta < 0:
        a, b, c = form
        if a <= 0:
            return False
        if not (-a < b <= a <= c):
            return False
        return b >= 0 or a != c
    return _is_reduced_indefinite(form.a, form.b, isqrt(delta), delta)


def reduction_cycle(form: Form) -> list[Form]:
    """Rho-cycle through an indefinite form's class, lexicographically least form first."""
    delta = form.discriminant()
    if delta <= 0:
        raise ValueError("reduction cycles exist only for positive discriminants")
    _check_discriminant(delta)
    s = isqrt(delta)
    start = _reduce_indefinite_raw(form.a, form.b, form.c, delta, s)
    cycle = [start]
    g = _rho_raw(*start, delta, s)
    while g != start:
        cycle.append(g)
        g = _rho_raw(*g, delta, s)
    lead = min(range(len(cycle)), key=cycle.__getitem__)
    return [Form(*t) for t in cycle[lead:] + cycle[:lead]]


# ---------------------------------------------------------------------------
# Composition


def _positive_leading_raw(a: int, b: int, c: int, delta: int, s: int) -> tuple[int, int, int]:
    if a > 0:
        return a, b, c
    a, b, c = _reduce_indefinite_raw(a, b, c, delta, s)
    if a < 0:
        # Reduced indefinite forms have a*c < 0, so the rho-neighbor leads with c > 0.
        a, b, c = _rho_raw(a, b, c, delta, s)
    return a, b, c


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


def compose(f1: Form, f2: Form) -> Form:
    """Dirichlet composition of primitive forms of one discriminant (Gauss product)."""
    delta = f1.discriminant()
    if f2.discriminant() != delta:
        raise ValueError("cannot compose forms of different discriminants")
    _check_discriminant(delta)
    if f1.content() != 1 or f2.content() != 1:
        raise ValueError("composition requires primitive forms")
    if delta < 0:
        if f1.a <= 0 or f2.a <= 0:
            raise ValueError("definite forms must be positive definite (a > 0)")
        t1, t2 = tuple(f1), tuple(f2)
    else:
        s = isqrt(delta)
        t1 = _positive_leading_raw(*f1, delta, s)
        t2 = _positive_leading_raw(*f2, delta, s)
    return Form(*_compose_raw(*t1, *t2, delta))


def is_equivalent(f1: Form, f2: Form) -> bool:
    """Proper (narrow, for delta > 0) equivalence of two forms."""
    delta = f1.discriminant()
    if f2.discriminant() != delta:
        return False
    if delta < 0:
        return reduce_form(f1) == reduce_form(f2)
    return reduce_form(f2) in set(reduction_cycle(f1))


# ---------------------------------------------------------------------------
# Reduced form enumeration


_spf = np.zeros(0, dtype=np.int64)


def _spf_table(limit: int) -> np.ndarray:
    """Smallest-prime-factor table 0..limit, grown geometrically and kept for reuse."""
    global _spf
    if len(_spf) <= limit:
        size = max(limit + 1, 2 * len(_spf), 10**4 + 1)
        spf = np.zeros(size, dtype=np.int64)
        for i in range(2, isqrt(size - 1) + 1):
            if spf[i] == 0:
                sl = spf[i * i :: i]
                sl[sl == 0] = i
        # The entries still unmarked are 0, 1 and the primes.
        primes = np.flatnonzero(spf == 0)[2:]
        spf[primes] = primes
        _spf = spf
    return _spf


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


def _odd_prime_power_roots(delta: int, p: int, amax: int) -> list[list[int]]:
    """Entry k - 1 lists the b mod p**k with b*b ≡ delta mod p**k, for p**k <= amax.

    The list stops before the first power of p without a root.
    """
    r = _sqrt_mod_prime(delta, p)
    if r is None:
        return []
    roots = [r, p - r] if r else [0]
    out, q = [roots], p
    while q * p <= amax:
        # Test the p lifts of each root, which needs no case split on p | delta.
        roots = [x for r in roots for x in range(r, q * p, q) if (x * x - delta) % (q * p) == 0]
        if not roots:
            break
        out.append(roots)
        q *= p
    return out


def _square_roots(delta: int, amax: int) -> Iterator[tuple[int, list[int]]]:
    """Yield (a, roots) for each 1 <= a <= amax where b*b ≡ delta mod 4a is
    solvable; roots lists those b mod 2a, each in [0, 2a).

    The a are built depth-first from their prime powers, and the roots are
    combined by CRT one prime power at a time, so an a without a root is
    never visited.  The a come in no particular order.
    """
    spf = _spf_table(amax)
    odd = (np.flatnonzero(spf[3 : amax + 1] == np.arange(3, amax + 1)) + 3).tolist()
    split = [(p, powers) for p in odd if (powers := _odd_prime_power_roots(delta, p, amax))]
    # a = 2**k: lift the b mod 2a with b*b ≡ delta mod 4a up from a = 1.
    stack = []
    a, roots = 1, [delta & 1]
    while roots and a <= amax:
        stack.append((a, 0, roots))
        roots = [x for r in roots for x in (r, r + 2 * a) if (x * x - delta) % (8 * a) == 0]
        a *= 2
    while stack:
        a, first, roots = stack.pop()
        yield a, roots
        m = 2 * a
        for j in range(first, len(split)):
            p, powers = split[j]
            if a * p > amax:
                break
            q = p
            for proots in powers:
                if a * q > amax:
                    break
                inv = pow(m, -1, q)
                combined = [r + m * ((s - r) * inv % q) for r in roots for s in proots]
                stack.append((a * q, j + 1, combined))
                q *= p


def _reduced_forms_definite(delta: int) -> list[Form]:
    out = []
    for a, roots in _square_roots(delta, isqrt(-delta // 3)):
        for r in roots:
            b = r if r <= a else r - 2 * a
            c = (b * b - delta) // (4 * a)
            if c >= a and not (b < 0 and c == a) and gcd(a, b, c) == 1:
                out.append(Form(a, b, c))
    out.sort()
    return out


def _reduced_forms_indefinite(delta: int) -> list[Form]:
    s = isqrt(delta)
    out = []
    for a, roots in _square_roots(delta, s):
        # Reduced window |sqrt(delta) - 2a| < b <= s; as delta is not a
        # square, lo is its least integer.
        t = 2 * a
        lo = s + 1 - t if t <= s else t - s
        for r in roots:
            for b in range(lo + (r - lo) % t, s + 1, t):
                n = (delta - b * b) // (4 * a)
                if gcd(a, b, n) == 1:
                    out.append(Form(a, b, -n))
                    out.append(Form(-a, b, n))
    out.sort()
    return out


def reduced_forms(delta: int) -> list[Form]:
    """Every primitive reduced form of the discriminant, sorted lexicographically.

    Both enumerators keep only primitive forms (for fundamental discriminants
    every form is primitive), so the count is always the form class number.
    """
    _check_discriminant(delta)
    if abs(delta) > MAX_DISCRIMINANT:
        raise ValueError(f"|delta| exceeds the scan limit {MAX_DISCRIMINANT}")
    if delta < 0:
        return _reduced_forms_definite(delta)
    return _reduced_forms_indefinite(delta)


# ---------------------------------------------------------------------------
# Class group summary

def _mul(
    t1: tuple[int, int, int], t2: tuple[int, int, int], delta: int, s: int
) -> tuple[int, int, int]:
    """Reduced product of two reduced forms; s = isqrt(delta) when delta > 0."""
    if delta < 0:
        return _reduce_definite_raw(*_compose_raw(*t1, *t2, delta))
    t1 = _positive_leading_raw(*t1, delta, s)
    t2 = _positive_leading_raw(*t2, delta, s)
    return _reduce_indefinite_raw(*_compose_raw(*t1, *t2, delta), delta, s)


def _classes(
    delta: int, s: int
) -> tuple[list[tuple[int, int, int]], dict[tuple[int, int, int], int], int]:
    """A representative per class, the class index of every reduced form, the identity's index."""
    forms = reduced_forms(delta)
    if delta < 0:
        index = {f: i for i, f in enumerate(forms)}
        return forms, index, index[_reduce_definite_raw(*principal_form(delta))]
    reps, index = _cycles_indefinite(forms, delta, s)
    return reps, index, index[_reduce_indefinite_raw(*principal_form(delta), delta, s)]


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


def _exact_three_rank(three_torsion: int) -> int:
    rank = 0
    t = three_torsion
    while t % 3 == 0:
        t //= 3
        rank += 1
    if t != 1:
        raise ArithmeticError(f"3-torsion count {three_torsion} is not a power of 3")
    return rank


def summary_from_counts(delta: int, class_number: int, three_torsion: int) -> ClassGroupSummary:
    """Rebuild a validated summary from stored (h, 3-torsion) counts.

    Used when reloading cached class data: the structural invariants (torsion
    is a power of 3 dividing h) are re-checked, so a corrupted pair cannot
    silently enter a dimension computation.
    """
    if class_number < 1:
        raise ValueError(f"class number {class_number} must be positive")
    rank = _exact_three_rank(three_torsion)
    if class_number % three_torsion:
        raise ArithmeticError(
            f"3-torsion {three_torsion} does not divide h = {class_number}"
        )
    return ClassGroupSummary(
        delta=delta,
        class_number=class_number,
        three_torsion=three_torsion,
        three_rank=rank,
    )


def class_group_summary(delta: int) -> ClassGroupSummary:
    """Class number and 3-torsion of the (narrow, if delta > 0) class group.

    With h = 3**v * m and 3 not dividing m, the 3-torsion lies in the 3-Sylow
    subgroup S = {x**m}.  If v = 0 it is trivial by Lagrange.  Otherwise S is
    spanned by the g**m, g in class-index order, until |S| = 3**v, and the
    3-torsion is counted inside S alone.
    """
    if not is_fundamental(delta):
        raise ValueError(f"{delta} is not a fundamental discriminant")
    s = isqrt(delta) if delta > 0 else 0
    reps, index, identity = _classes(delta, s)
    h = m = len(reps)
    while m % 3 == 0:
        m //= 3
    if m == h:
        return summary_from_counts(delta, h, 1)
    size = h // m
    sylow = [reps[identity]]
    seen = {identity}
    for g in reps:
        y = _power(g, m, delta, s)
        if index[y] in seen:
            continue
        # Adjoin y coset by coset: y**k * S is either S again or disjoint from it.
        coset = sylow
        while True:
            first = _mul(coset[0], y, delta, s)
            if index[first] in seen:
                break
            coset = [first] + [_mul(x, y, delta, s) for x in coset[1:]]
            seen.update(index[x] for x in coset)
            sylow.extend(coset)
        if len(sylow) == size:
            break
    if len(sylow) != size:
        raise ArithmeticError(f"3-Sylow span stalled at {len(sylow)} of {size} classes")
    torsion = sum(
        1 for x in sylow if index[_mul(_mul(x, x, delta, s), x, delta, s)] == identity
    )
    return summary_from_counts(delta, h, torsion)


def _cycles_indefinite(
    forms: list[Form], delta: int, s: int
) -> tuple[list[tuple[int, int, int]], dict[tuple[int, int, int], int]]:
    """Partition the reduced forms into rho-cycles; every form lands in exactly one.

    Returns the least form of each cycle and the cycle index of every form.
    """
    index: dict[tuple[int, int, int], int] = {}
    leads: list[tuple[int, int, int]] = []
    for f in forms:
        if f in index:
            continue
        cid = len(leads)
        cyc = []
        g = f
        while g not in index:
            index[g] = cid
            cyc.append(g)
            g = _rho_raw(*g, delta, s)
        if g != f:
            raise ArithmeticError(f"rho walk from {f} did not close into a cycle")
        leads.append(min(cyc))
    return leads, index


# ---------------------------------------------------------------------------
# Independent oracles

def _kronecker_table(delta: int) -> np.ndarray:
    """chi[t] = kronecker(delta, t) for 0 <= t < |delta|, where |delta| >= 3.

    Odd primes p take Euler's criterion delta**((p-1)/2) mod p, by
    square-and-multiply over the whole array of them at once; chi(2) is the
    Kronecker symbol's own rule.  Composites follow by complete
    multiplicativity, chi(t) = chi(spf[t]) * chi(t // spf[t]), one block
    [2**k, 2**(k+1)) at a time: t // spf[t] <= t/2 and spf[t] <= sqrt(t) lie
    in earlier blocks, and a prime t reads its own entry times chi(1) = 1.
    Needs |delta| <= MAX_DISCRIMINANT, so that p**2 fits in int64.
    """
    n = abs(delta)
    spf = _spf_table(n)[:n]
    t = np.arange(n, dtype=np.int64)
    chi = np.zeros(n, dtype=np.int64)
    chi[1] = 1
    chi[2] = kronecker(delta, 2)
    primes = t[3:][spf[3:] == t[3:]]
    base = delta % primes
    e = (primes - 1) // 2
    power = np.ones_like(primes)
    while e.any():
        power = np.where(e & 1, power * base % primes, power)
        base = base * base % primes
        e >>= 1
    chi[primes] = np.where(power == primes - 1, -1, power)
    lo = 4
    while lo < n:
        hi = min(2 * lo, n)
        p = spf[lo:hi]
        chi[lo:hi] = chi[p] * chi[t[lo:hi] // p]
        lo = hi
    return chi


def analytic_class_number_oracle(delta: int) -> int:
    """Imaginary quadratic class number by Dirichlet's analytic formula.

    Evaluates h = w * sqrt|delta| / (2*pi) * L(1, chi) through the exact
    finite character sum  h = |sum_{t=1}^{|delta|-1} t * chi(t)| / |delta|
    (unit count w = 2), a route fully independent of form reduction and
    composition.  chi = (delta|.) is filled by _kronecker_table: Euler's
    criterion on every odd prime below |delta| at once, then composites by
    complete multiplicativity in doubling blocks [2**k, 2**(k+1)), with no
    per-t loop.  Time and memory are O(|delta|): the smallest-prime-factor
    table, chi and the indices t are int64 arrays of that length.  The sum
    covers exactly one character period and is checked for exact
    integrality; anything else fails loudly.
    """
    if delta >= 0:
        raise ValueError("the analytic oracle handles negative discriminants only")
    if -delta > MAX_DISCRIMINANT:
        raise ValueError(f"|delta| exceeds the scan limit {MAX_DISCRIMINANT}")
    if not is_fundamental(delta):
        raise ValueError(f"{delta} is not a fundamental discriminant")
    if delta in (-3, -4):
        raise ExtraUnitsDiscriminant(delta)
    n = -delta
    chi = _kronecker_table(delta)
    total = int(np.dot(np.arange(n, dtype=np.int64), chi))
    if total % n:
        raise InconclusiveOracle(
            f"character sum {total} for delta = {delta} is not divisible by {n}"
        )
    h = abs(total) // n
    if h == 0:
        raise InconclusiveOracle(f"character sum vanished for delta = {delta}")
    return h


def brute_force_group_structure(delta: int, max_order: int = 200) -> list[int]:
    """Invariant factors [d1, d2, ...] (d1 | d2 | ...) from the full composition table.

    Orders of all classes are computed by repeated composition and the
    elementary divisors recovered by order counting, independent of the
    3-Sylow count in class_group_summary.  Refuses groups larger than max_order.
    """
    s = isqrt(delta) if delta > 0 else 0
    reps, index, identity = _classes(delta, s)
    h = len(reps)
    if h > max_order:
        raise ValueError(f"class number {h} exceeds the brute-force guard {max_order}")
    orders = []
    for i in range(h):
        acc, order = i, 1
        while acc != identity:
            acc = index[_mul(reps[acc], reps[i], delta, s)]
            order += 1
            if order > h:
                raise ArithmeticError("element order exceeded the group size")
        orders.append(order)
    for order in orders:
        if h % order:
            raise ArithmeticError(f"order {order} does not divide h = {h}")
    return _invariant_factors(orders, h)


def _invariant_factors(orders: list[int], h: int) -> list[int]:
    """Elementary divisors of a finite abelian group from its element orders."""
    if h == 1:
        return []
    per_prime: dict[int, list[int]] = {}
    for p, e in factorize(h).factors:
        sylow = p**e
        # ranks[j] = log_p #{x : x**(p**j) == identity}; in an abelian group the
        # count climbs strictly to the Sylow size and each count is a p-power.
        ranks = [0]
        j = 1
        while p ** ranks[-1] < sylow:
            if j > e:
                raise ArithmeticError("order counting stalled below the Sylow size")
            count = sum(1 for o in orders if o <= p**j and _is_p_power(o, p))
            r = 0
            while count % p == 0:
                count //= p
                r += 1
            if count != 1:
                raise ArithmeticError(f"element count for {p}^{j}-torsion is not a p-power")
            ranks.append(r)
            j += 1
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


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1
