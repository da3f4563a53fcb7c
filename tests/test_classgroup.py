"""Tests for binary quadratic forms and class groups.

Independent oracles cross-check the prime-form span and the form
enumeration: standalone loop enumerations of reduced definite and indefinite
forms, and the exact finite character sum for the class number.  The 3-Sylow
torsion count is checked against cubing every class, and group structure
against explicit multiplication tables.
"""

import gc
import itertools
import math
import tracemalloc
import weakref
from array import array
from collections import Counter

import pytest

from twistrank import classgroup
from twistrank.arith import factorize, kronecker
from twistrank.classgroup import (
    ClassGroupSummary,
    ExtraUnitsDiscriminant,
    Form,
    InconclusiveOracle,
    analytic_class_number_oracle,
    brute_force_group_structure,
    class_group_summary,
    principal_form,
    reduced_forms,
    summary_from_counts,
)
from twistrank.classgroup import (
    _classes,
    _compose_raw,
    _definite_class_numbers,
    _invariant_factors,
    _is_reduced_indefinite,
    _kronecker_table,
    _mul,
    _prime_forms,
    _primes,
    _reduce_definite_raw,
    _reduce_indefinite_raw,
    _reduce_raw,
    _rho_raw,
    _RhoIndex,
    _span_counts,
    _sqrt_mod_prime,
    _sweep_window,
)
from twistrank.discriminants import (
    MAX_DISCRIMINANT,
    NEGATIVE,
    ProgressionFamily,
    enumerate_progression,
    is_fundamental,
)
from twistrank.stats import scan_family, scan_parameters


def naive_reduced_definite(delta: int) -> set:
    """Triple-loop enumeration of reduced primitive positive definite forms.

    |b| <= a <= c with b >= 0 when |b| = a or a = c; b^2 - 4ac = delta.
    """
    out = set()
    bound = math.isqrt(-delta // 3)
    for a in range(1, bound + 1):
        for b in range(-a, a + 1):
            if (b * b - delta) % (4 * a):
                continue
            c = (b * b - delta) // (4 * a)
            if c < a:
                continue
            if b < 0 and (c == a or -b == a):
                continue
            if math.gcd(math.gcd(a, b), c) == 1:
                out.add((a, b, c))
    return out


def naive_reduced_indefinite(delta: int) -> set:
    """Double-loop enumeration of reduced primitive indefinite forms.

    0 < b < sqrt(delta) and |sqrt(delta) - 2|a|| < b, over every |a| < sqrt(delta).
    """
    out = set()
    root = math.isqrt(delta)
    for b in range(1, root + 1):
        for a in range(-root, root + 1):
            if a == 0 or (b * b - delta) % (4 * a):
                continue
            c = (b * b - delta) // (4 * a)
            # sqrt(delta) < 2|a| + b, and 2|a| - b < sqrt(delta)
            if (2 * abs(a) + b) ** 2 <= delta:
                continue
            if 2 * abs(a) > b and (2 * abs(a) - b) ** 2 >= delta:
                continue
            if math.gcd(math.gcd(a, b), c) == 1:
                out.add((a, b, c))
    return out


def cube_every_class(delta: int) -> tuple[int, int]:
    """(h, 3-torsion) from every reduced form: h counts the classes (rho-cycles
    when delta > 0), and the 3-torsion is counted by cubing each of them."""
    s = math.isqrt(delta) if delta > 0 else 0
    reps, index, identity = _classes(delta, s)
    torsion = sum(
        1 for t in reps if index[_mul(_mul(t, t, delta, s), t, delta, s)] == identity
    )
    return len(reps), torsion


def all_discriminants(limit: int, sign: int) -> list:
    """Every discriminant 0 < sign * delta < limit (non-square when positive)."""
    return [
        d for d in range(sign, sign * limit, sign)
        if d % 4 in (0, 1) and (d < 0 or math.isqrt(d) ** 2 != d)
    ]


def negative_fundamentals(limit: int) -> list:
    return [d for d in range(-3, -limit - 1, -1) if is_fundamental(d)]


def positive_fundamentals(limit: int) -> list:
    return [d for d in range(5, limit + 1) if is_fundamental(d)]


# ---------------------------------------------------------------------------
# Reduction


def test_reduce_frozen_example():
    assert _reduce_definite_raw(6, 2, 1) == (1, 0, 5)


def forms_around_reduced(delta: int):
    """Primitive forms (a, b, c) of the discriminant with 0 < |a| < 12, |b| <= 15."""
    for a in [*range(1, 12), *range(-11, 0)]:
        for b in range(-15, 16):
            if (b * b - delta) % (4 * a):
                continue
            c = (b * b - delta) // (4 * a)
            if math.gcd(a, b, c) == 1:
                yield a, b, c


def test_reduce_definite_lands_in_oracle_set():
    for delta in negative_fundamentals(250):
        oracle = naive_reduced_definite(delta)
        # a chunk of non-reduced forms equivalent to reduced ones
        for a, b, c in forms_around_reduced(delta):
            if a > 0:
                assert _reduce_definite_raw(a, b, c) in oracle, (delta, a, b, c)


def test_reduce_indefinite_lands_in_oracle_set():
    for delta in positive_fundamentals(250):
        oracle = naive_reduced_indefinite(delta)
        s = math.isqrt(delta)
        for f in forms_around_reduced(delta):
            assert _reduce_indefinite_raw(*f, delta, s) in oracle, (delta, f)


def test_reduce_form_is_idempotent():
    for delta in (-23, -52, -244, 229, 316):
        s = math.isqrt(delta) if delta > 0 else 0
        for f in reduced_forms(delta):
            if delta < 0:
                assert _reduce_definite_raw(*f) == f
            else:
                assert _reduce_indefinite_raw(*f, delta, s) == f
                assert _is_reduced_indefinite(f.a, f.b, s, delta)


def test_reduction_cycle_frozen_example():
    # the narrow class group of Q(sqrt 5) is trivial: one rho-cycle
    reps, index, identity = _classes(5, 2)
    assert index[(1, 1, -1)] == index[(-1, 1, 1)] == identity
    assert reps == [(-1, 1, 1)]


def test_reduction_cycle_closure_and_membership():
    for delta in (12, 40, 136, 229):
        s = math.isqrt(delta)
        reps, index, _ = _classes(delta, s)
        forms = reduced_forms(delta)
        assert set(index) == set(forms)
        assert sorted(index[r] for r in reps) == list(range(len(reps)))
        for f in forms:
            a, b, c = g = _rho_raw(*f, delta, s)
            assert _is_reduced_indefinite(a, b, s, delta) and b * b - 4 * a * c == delta
            assert index[g] == index[f]


# ---------------------------------------------------------------------------
# Enumeration


def test_reduced_forms_frozen_minus_23():
    assert set(map(tuple, reduced_forms(-23))) == {(1, 1, 6), (2, -1, 3), (2, 1, 3)}


def test_reduced_forms_definite_matches_triple_loop():
    # every discriminant, fundamental or not
    for delta in all_discriminants(6000, -1):
        got = set(map(tuple, reduced_forms(delta)))
        assert got == naive_reduced_definite(delta), delta


def test_reduced_forms_indefinite_matches_double_loop():
    for delta in all_discriminants(6000, 1):
        got = set(map(tuple, reduced_forms(delta)))
        assert got == naive_reduced_indefinite(delta), delta


def test_reduced_forms_definite_raw_enumerator_agrees():
    # the enumerator, which tests primitivity itself, against the
    # triple-loop oracle; -6039 = 9 * (-671) is not fundamental, and 30 of
    # its 90 reduced forms are imprimitive
    for delta in (-6004, -7403, -9587):
        assert is_fundamental(delta)
    for delta in (-6004, -7403, -9587, -6039):
        raw = reduced_forms(delta)
        assert raw == sorted(set(raw))
        assert set(raw) == naive_reduced_definite(delta), delta


def test_sqrt_mod_prime_matches_brute_force():
    for p in range(2, 1000):
        if any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            continue
        roots: dict = {}
        for r in range(p):
            roots.setdefault(r * r % p, set()).add(r)
        for x in range(p):
            expected = roots.get(x)
            if expected is None:
                assert _sqrt_mod_prime(x, p) is None, (x, p)
            else:
                assert _sqrt_mod_prime(x, p) in expected, (x, p)
                assert _sqrt_mod_prime(x - 5 * p, p) in expected, (x, p)


def test_prime_list_matches_naive_loop():
    # every admitted |delta| <= 10**9 asks only for primes <= isqrt(10**9) = 31,622
    end = math.isqrt(MAX_DISCRIMINANT)
    naive = [t for t in range(2, end + 1) if all(t % p for p in range(2, math.isqrt(t) + 1))]
    assert list(_primes()) == naive
    assert len(naive) == 3401 and naive[-1] == 31_607


def test_reduced_forms_indefinite_basic_properties():
    for delta in positive_fundamentals(300):
        forms = reduced_forms(delta)
        assert forms == sorted(forms)
        s = math.isqrt(delta)
        for f in forms:
            assert _is_reduced_indefinite(f.a, f.b, s, delta)
            assert f.b * f.b - 4 * f.a * f.c == delta
            assert f.a * f.c < 0
        # reduced indefinite forms come in (a, b, c) / (-a, b, -c) pairs
        present = set(map(tuple, forms))
        for a, b, c in present:
            assert (-a, b, -c) in present


def test_reduced_forms_non_fundamental_keeps_primitive_classes():
    # -12 = 4 * (-3) is not fundamental; (2, 2, 2) is a reduced but
    # imprimitive form of -12 and must not be counted; likewise
    # (2, 2, -2) and (-2, 2, 2) of 20 = 4 * 5
    assert reduced_forms(-12) == [Form(1, 0, 3)]
    assert reduced_forms(20) == [Form(-1, 4, 1), Form(1, 4, -1)]


def test_reduced_forms_refuses_past_the_oracle_limit():
    # the first is (10**18 + 3) * (3 * 10**18 + 37): refused before any loop
    for delta in (
        -3000000000000000046000000000000000111,
        -(MAX_DISCRIMINANT + 3),
        -(10**7 + 3),
        10**7 + 1,
        10**7 + 4,
    ):
        with pytest.raises(
            ValueError, match=r"^\|delta\| exceeds the form enumeration's limit 10000000$"
        ):
            reduced_forms(delta)


# ---------------------------------------------------------------------------
# Class numbers in one sweep


def test_sweep_matches_enumeration_on_every_fundamental():
    # odd and even |delta| mix, so the window modulus is 1
    deltas = negative_fundamentals(2 * 10**4 - 1)
    assert _sweep_window(deltas)[1] == 1
    assert _definite_class_numbers(deltas) == array("q", [len(reduced_forms(d)) for d in deltas])


def test_sweep_matches_the_span_on_twist_families(monkeypatch):
    # the span reaches h by composition, not by enumeration
    spreads = []
    spread = classgroup._spread
    monkeypatch.setattr(classgroup, "_spread", lambda acc: spreads.append(acc) or spread(acc))
    family = [-4 * d for d in scan_parameters(1, 2 * 10**5)]
    upper = [d for d in family if d < -18 * 10**4]
    for deltas in (
        family,
        upper,
        [-4 * 37 * d for d in scan_parameters(37, 2 * 10**5)],
        [-4 * 61 * d for d in scan_parameters(61, 2 * 10**5)],
    ):
        assert _sweep_window(deltas)[1] > 1
        spreads.clear()
        assert _definite_class_numbers(deltas) == array(
            "q", [_span_counts(d)[0] for d in deltas]
        )
        if deltas is family:
            # the per-a lane maxima sum past 255: the 8-bit lanes were
            # spread into the total inside the loop, not only at its end
            assert len(spreads) >= 2


def test_no_sweep_lane_of_one_a_passes_220():
    # _definite_class_numbers: one a adds to the lane of n at most
    # #{b in (-a, a] : b*b ≡ -n mod 4a}, half the roots mod 4a, a count
    # multiplicative over the prime powers of 4a.  x*x ≡ c mod p has at most
    # 2 roots for an odd prime p (and 2 divides 4a at least squared); higher
    # powers are counted root by root.
    most = {}

    def most_roots(p, e):
        if e == 1:
            return 2
        if (p, e) not in most:
            q = p**e
            most[p, e] = max(Counter(x * x % q for x in range(q)).values())
        return most[p, e]

    a_max = math.isqrt(MAX_DISCRIMINANT // 3)
    assert max(
        (math.prod(most_roots(p, e) for p, e in factorize(4 * a)) // 2, a)
        for a in range(1, a_max + 1)
    ) == (220, 18150)


def test_sweep_refuses_a_lane_past_255(monkeypatch):
    deltas = [-4 * d for d in scan_parameters(1, 10**4)]
    for stride, starts in (
        (1, [0] * 256),  # 256 tails start in one slot
        (2, [1] * 128 + [3] * 128),  # no slot starts 256, but the row sum reaches it
        (2, [0] * 128 + [2] * 128),  # ... in the first lane of the row
    ):
        monkeypatch.setattr(
            classgroup, "_tail_starts", lambda a, n0, m, length: (stride, starts)
        )
        with pytest.raises(ArithmeticError, match="^a sweep lane passed 255 at a = "):
            _definite_class_numbers(deltas)


def test_sweep_rejects_non_fundamental():
    with pytest.raises(ValueError, match="^-12 is not a fundamental discriminant$"):
        _definite_class_numbers([-3, -4, -12, -23])
    with pytest.raises(ValueError, match="exceeds the scan limit"):
        _definite_class_numbers([-4, -(MAX_DISCRIMINANT + 3)])


# ---------------------------------------------------------------------------
# Composition


def test_compose_frozen_examples():
    t = (2, 1, 3)
    sq = _mul(t, t, -23, 0)
    assert sq == (2, -1, 3)
    assert _mul(sq, t, -23, 0) == principal_form(-23)


def inverse(f, delta: int, s: int):
    """The reduced form of (a, -b, c), the inverse class of (a, b, c)."""
    a, b, c = f
    if delta < 0:
        return _reduce_definite_raw(a, -b, c)
    return _reduce_indefinite_raw(a, -b, c, delta, s)


def assert_group_laws(delta: int) -> None:
    """Identity, commutativity, associativity and inverses on class indices."""
    s = math.isqrt(delta) if delta > 0 else 0
    reps, index, identity = _classes(delta, s)
    forms = reduced_forms(delta)
    e = reps[identity]
    for f in forms:
        assert index[_mul(f, e, delta, s)] == index[f]
        assert index[_mul(f, inverse(f, delta, s), delta, s)] == identity
    for f in forms[:8]:
        for g in forms[:8]:
            fg = _mul(f, g, delta, s)
            assert index[fg] == index[_mul(g, f, delta, s)]
            for h in forms[:8]:
                lhs = _mul(fg, h, delta, s)
                rhs = _mul(f, _mul(g, h, delta, s), delta, s)
                assert index[lhs] == index[rhs], (delta, f, g, h)


def test_compose_group_laws_definite():
    for delta in (-23, -47, -71, -244, -479):
        assert_group_laws(delta)


def test_compose_group_laws_indefinite():
    for delta in (40, 136, 229, 316):
        assert_group_laws(delta)


def test_compose_negative_leading_forms_directly():
    # The oracle moves each a < 0 form one rho step to its neighbour, which
    # leads with c > 0 (a reduced indefinite form has a*c < 0), and composes
    # forms with positive leading coefficients only.
    def positive_leading(f, delta, s):
        return f if f[0] > 0 else _rho_raw(*f, delta, s)

    for delta in range(5, 2001):
        if not is_fundamental(delta):
            continue
        s = math.isqrt(delta)
        _, index, _ = _classes(delta, s)
        forms = reduced_forms(delta)
        negative = [f for f in forms if f[0] < 0][:8]
        positive = [f for f in forms if f[0] > 0][:8]
        for f in negative:
            for g in negative + positive:
                pf, pg = positive_leading(f, delta, s), positive_leading(g, delta, s)
                want = _reduce_indefinite_raw(*_compose_raw(*pf, *pg, delta), delta, s)
                assert index[_mul(f, g, delta, s)] == index[want], (delta, f, g)


def test_mul_matches_general_composition_on_prime_forms(monkeypatch):
    # every ordered pair of the prime forms and the principal form, squares
    # included, of every fundamental |delta| <= 2000, compared by class
    compose = classgroup._compose_raw
    fallbacks = []

    def counted(*args):
        fallbacks.append(args)
        return compose(*args)

    monkeypatch.setattr(classgroup, "_compose_raw", counted)
    branches = Counter()
    for delta in negative_fundamentals(2000) + positive_fundamentals(2000):
        s = math.isqrt(delta) if delta > 0 else 0
        _, index, _ = _classes(delta, s)
        forms = [*_prime_forms(delta), _reduce_raw(*principal_form(delta), delta, s)]
        for f, g in itertools.product(forms, repeat=2):
            want = _reduce_raw(*compose(*f, *g, delta), delta, s)
            before = len(fallbacks)
            got = _mul(f, g, delta, s)
            branch = "square" if f == g else "coprime" if math.gcd(f[0], g[0]) == 1 else "gcd > 1"
            assert (len(fallbacks) > before) == (branch == "gcd > 1"), (delta, f, g)
            assert index[got] == index[want], (delta, f, g)
            branches[branch] += 1
    assert sum(branches.values()) == 35814
    assert min(branches[b] for b in ("square", "coprime", "gcd > 1")) > 0, branches


def test_is_equivalent_partitions_reduced_forms():
    # distinct reduced definite forms are inequivalent: f * g**-1 is not
    # the identity
    forms = reduced_forms(-479)
    _, index, identity = _classes(-479, 0)
    assert sorted(index[f] for f in forms) == list(range(25))
    for i, f in enumerate(forms):
        for g in forms[i + 1 :]:
            assert index[_mul(f, inverse(g, -479, 0), -479, 0)] != identity


# ---------------------------------------------------------------------------
# Class group summaries


@pytest.mark.parametrize(
    "delta,h,torsion,rank",
    [
        (-3, 1, 1, 0),
        (-4, 1, 1, 0),
        (-23, 3, 3, 1),
        (-52, 2, 1, 0),
        (-163, 1, 1, 0),
        (-244, 6, 3, 1),
        (-3299, 27, 9, 2),
        (5, 1, 1, 0),
        (8, 1, 1, 0),
        (12, 2, 1, 0),
        (13, 1, 1, 0),
        (24, 2, 1, 0),
        (40, 2, 1, 0),
        (136, 4, 1, 0),
        (140, 4, 1, 0),
        (229, 3, 3, 1),
        (316, 6, 3, 1),
    ],
)
def test_class_group_summary_frozen_values(delta, h, torsion, rank):
    s = class_group_summary(delta)
    assert s == ClassGroupSummary(
        delta=delta, class_number=h, three_torsion=torsion, three_rank=rank
    )


def test_class_group_summary_rejects_non_fundamental():
    with pytest.raises(ValueError):
        class_group_summary(10)


def test_class_group_summary_refuses_past_the_scan_limit_before_any_work(monkeypatch):
    def no_fundamentality_test(delta):
        raise AssertionError(f"is_fundamental({delta}) past the scan limit")

    monkeypatch.setattr(classgroup, "is_fundamental", no_fundamentality_test)
    # the first is (10**18 + 3) * (3 * 10**18 + 37), which trial division cannot factor
    for delta in (
        -3000000000000000046000000000000000111,
        -(MAX_DISCRIMINANT + 3),
        MAX_DISCRIMINANT + 5,
    ):
        with pytest.raises(ValueError, match=r"^\|delta\| exceeds the scan limit 1000000000$"):
            class_group_summary(delta)


def test_summary_from_counts_validation():
    assert summary_from_counts(-244, 6, 3).three_rank == 1
    with pytest.raises(ArithmeticError):
        summary_from_counts(-23, 3, 2)  # torsion not a power of 3
    with pytest.raises(ArithmeticError):
        summary_from_counts(-23, 4, 3)  # torsion does not divide h
    with pytest.raises(ValueError):
        summary_from_counts(-23, 0, 1)


def test_sylow_torsion_matches_cubing_every_class():
    # positive delta: test_narrow_span_matches_every_reduced_form
    for delta in negative_fundamentals(10**4):
        torsion = class_group_summary(delta).three_torsion
        assert torsion == cube_every_class(delta)[1], delta


def test_narrow_span_matches_every_reduced_form():
    # every positive fundamental delta <= 10**4, and the 15 real fields of the
    # A = -35 family at X = 10**6 (delta = 140 D, up to 999,740)
    family = [140 * d for d in scan_parameters(-35, 10**6)]
    assert len(family) == 15
    for delta in positive_fundamentals(10**4) + family:
        s = class_group_summary(delta)
        assert (s.class_number, s.three_torsion) == cube_every_class(delta), delta


def test_class_groups_of_either_sign_enumerate_no_form(monkeypatch):
    expected = {
        229: (3, 3),
        999_999_997: (8, 1),
        -23: (3, 3),
        -3299: (27, 9),
        -999_999_995: (8856, 3),
    }
    scan = scan_family(-35, 10**6)

    def no_enumeration(*args):
        raise AssertionError("a class group enumerated its reduced forms")

    monkeypatch.setattr(classgroup, "reduced_forms", no_enumeration)
    for delta, (h, torsion) in expected.items():
        s = class_group_summary(delta)
        assert (s.class_number, s.three_torsion) == (h, torsion), delta
    assert scan_family(-35, 10**6) == scan


@pytest.mark.parametrize(
    "delta,structure",
    [
        (-983, [27]),
        (-3671, [81]),
        (-3299, [3, 9]),
        (1129, [9]),
        (8761, [27]),
        (32009, [3, 3]),
    ],
)
def test_sylow_torsion_through_cubed_span(delta, structure):
    # 3-Sylow subgroups larger than their 3-torsion, or of rank 2: the
    # 3-torsion is |S| / |S**3|, not |S|
    s = class_group_summary(delta)
    assert brute_force_group_structure(delta) == structure
    assert (s.class_number, s.three_torsion) == cube_every_class(delta)
    assert s.three_torsion == 3 ** len(structure)


@pytest.mark.parametrize("delta", [-3299, -3896, -4027, 32009, 42817])
def test_three_rank_two_matches_brute_force(delta):
    # -3299 is C3 x C9: its 3-Sylow subgroup (27) is larger than its
    # 3-torsion (9)
    s = class_group_summary(delta)
    structure = brute_force_group_structure(delta)
    assert (s.three_torsion, s.three_rank) == (9, 2)
    assert sum(1 for n in structure if n % 3 == 0) == 2
    assert math.prod(structure) == s.class_number


def test_prime_forms_are_reduced_prime_forms():
    for delta in negative_fundamentals(3000) + positive_fundamentals(1000):
        forms = list(_prime_forms(delta))
        s = math.isqrt(delta) if delta > 0 else 0
        for a, b, c in forms:
            assert b * b - 4 * a * c == delta
            if delta < 0:
                assert _reduce_definite_raw(a, b, c) == (a, b, c)
            else:
                assert _is_reduced_indefinite(a, b, s, delta), (delta, a, b, c)
        if delta > 0:
            # the last form is the reduced negated principal form, built in
            # the window s - 2 < b <= s like every prime form
            a, b, c = forms.pop()
            assert a == -1 and s - 2 < b <= s, (delta, a, b, c)
            for a, b, c in forms:
                assert s - 2 * a < b <= s, (delta, a, b, c)
        # a prime p <= sqrt(|delta|/3), or p <= sqrt(delta)/2 when delta > 0,
        # yields a form exactly when (delta/p) != -1; when delta > 0 the form
        # is led by p
        amax = math.isqrt(delta // 4) if delta > 0 else math.isqrt(-delta // 3)
        primes = [p for p in _primes() if p <= amax and kronecker(delta, p) != -1]
        assert len(forms) == len(primes), delta
        if delta > 0:
            assert [f[0] for f in forms] == primes, delta
    # past the prime list's end the generator refuses instead of stopping short
    for delta in (-(MAX_DISCRIMINANT + 3), MAX_DISCRIMINANT + 5):
        with pytest.raises(ValueError, match="exceeds the scan limit"):
            next(_prime_forms(delta))


def test_negated_principal_form_reaches_the_classes_no_prime_form_does(monkeypatch):
    def class_count(delta):
        return len(_classes(delta, math.isqrt(delta))[0])

    full = {delta: class_count(delta) for delta in positive_fundamentals(3000)}
    prime_forms = classgroup._prime_forms

    def without_last_form(delta, known=None):
        return iter(list(prime_forms(delta))[:-1])

    monkeypatch.setattr(classgroup, "_prime_forms", without_last_form)
    # Delta = 12 has no prime p <= isqrt(3) = 1, yet narrow h = 2
    assert class_group_summary(12).class_number == 1
    needs = [d for d in full if class_group_summary(d).class_number < full[d]]
    assert len(needs) == 27
    assert needs[:8] == [12, 21, 28, 56, 69, 77, 92, 165]
    monkeypatch.undo()
    assert full[12] == 2
    for delta in needs:
        assert class_group_summary(delta).class_number == full[delta], delta


def test_classes_match_the_rho_walk():
    # the oracle's classes against the cycles of iterating _rho_raw
    for delta in positive_fundamentals(5000):
        s = math.isqrt(delta)
        reps, index, _ = _classes(delta, s)
        walked, cycles = set(), 0
        for f in reduced_forms(delta):
            if f in walked:
                continue
            cycle, g = [f], _rho_raw(*f, delta, s)
            while g != f:
                cycle.append(g)
                g = _rho_raw(*g, delta, s)
            assert {index[g] for g in cycle} == {index[f]}, (delta, f)
            walked.update(cycle)
            cycles += 1
        # one class per cycle, and every reduced form in one
        assert len(reps) == cycles and set(index) == walked, delta


@pytest.mark.parametrize(
    "delta,h,torsion,adjoins",
    [
        # cyclic S, decided by the first y's power: no class is adjoined
        (-199, 9, 3, False),
        (-983, 27, 3, False),
        (-3671, 81, 3, False),
        (1129, 9, 3, False),
        (8761, 27, 3, False),
        # cyclic S, but a y of lower order is adjoined before one of full order
        (-1607, 27, 3, True),
        (15629, 9, 3, True),
        # rank 2: no y has full order, so S is spanned; 32009 (C3 x C3) has
        # y**3 equal to the identity class through a different reduced form
        (-3299, 27, 9, True),
        (-3896, 36, 9, True),
        (32009, 9, 9, True),
    ],
)
def test_cyclic_sylow_is_decided_by_one_power(monkeypatch, delta, h, torsion, adjoins):
    calls = []
    adjoin = classgroup._adjoin

    def counted(*args):
        calls.append(args)
        return adjoin(*args)

    monkeypatch.setattr(classgroup, "_adjoin", counted)
    s = summary_from_counts(delta, *_span_counts(delta, h))
    assert (s.class_number, s.three_torsion) == (h, torsion)
    assert bool(calls) == adjoins


@pytest.mark.parametrize(
    "delta,h,torsion",
    [(-4, 1, 1), (-23, 3, 3), (-244, 6, 3), (-1987, 7, 1), (5, 1, 1), (229, 3, 3), (12, 2, 1)],
)
def test_known_h_prime_to_9_builds_no_form(monkeypatch, delta, h, torsion):
    def no_forms(*args):
        raise AssertionError("a form was built where Lagrange settles the 3-torsion")

    for name in ("principal_form", "_prime_forms", "_mul"):
        monkeypatch.setattr(classgroup, name, no_forms)
    assert summary_from_counts(delta, *_span_counts(delta, h)) == summary_from_counts(
        delta, h, torsion
    )


def test_known_h_prime_to_9_agrees_with_the_span_and_the_brute_force():
    checked = 0
    for delta in range(-1000, 1001):
        if not is_fundamental(delta):
            continue
        s = class_group_summary(delta)
        if s.class_number % 9:
            assert summary_from_counts(delta, *_span_counts(delta, s.class_number)) == s
            structure = brute_force_group_structure(delta)
            assert s.three_rank == sum(1 for n in structure if n % 3 == 0), delta
            checked += 1
    assert checked > 500


def test_sylow_span_refuses_when_prime_forms_run_out(monkeypatch):
    # h(-3299) = 27: the 3-Sylow subgroup is the whole group
    assert class_group_summary(-3299).class_number == 27
    monkeypatch.setattr(classgroup, "_prime_forms", lambda delta, known=None: iter(()))
    # with h known (the sweep's route) the 3-Sylow span stalls loudly
    with pytest.raises(ArithmeticError, match="stalled"):
        summary_from_counts(-3299, *_span_counts(-3299, 27))
    # without h, the span is the group its forms generate, as for delta > 0:
    # here the principal class alone
    assert class_group_summary(-3299).class_number == 1


def test_sylow_span_powers_no_class_of_order_at_most_two(monkeypatch):
    # the class of a ramified prime, and sigma, square to the identity, so
    # their m-th powers are the identity too (m, the 3'-part of h, is even
    # when h is): the 3-Sylow span takes no power of any of them
    power, sylow = classgroup._power, classgroup._sylow_three_torsion
    bases, powered = [], set()

    def recorded_power(t, e, delta, s):
        bases.append(t)
        return power(t, e, delta, s)

    def checked_sylow(delta, s, h, generators, one, key):
        bases.clear()
        torsion = sylow(delta, s, h, generators, one, key)
        squares_to_one = [t for t in bases if key(_mul(t, t, delta, s)) == key(one)]
        assert not squares_to_one, (delta, squares_to_one)
        powered.add(delta)
        return torsion

    monkeypatch.setattr(classgroup, "_power", recorded_power)
    monkeypatch.setattr(classgroup, "_sylow_three_torsion", checked_sylow)
    nines = 0
    for delta in negative_fundamentals(2000) + positive_fundamentals(2000):
        s = class_group_summary(delta)
        nines += s.class_number % 9 == 0
        # the known-h path, which the sweep takes for every delta < 0
        assert summary_from_counts(delta, *_span_counts(delta, s.class_number)) == s
        structure = brute_force_group_structure(delta)
        assert s.three_rank == sum(1 for n in structure if n % 3 == 0), delta
    family = [-4 * d for d in scan_parameters(1, 4 * 10**5)]
    assert classgroup._sweep_pays(family)
    h, torsion = classgroup.compute_class_data(family)
    # the A = 1 family has 2 ramified in every delta, and 943 with 9 | h
    assert sum(1 for d in family if d in powered) == sum(1 for n in h if n % 9 == 0) == 943
    assert len(powered) == 943 + nines and nines > 30
    monkeypatch.undo()
    assert (h, torsion) == classgroup.compute_class_data(family)


def test_classes_refuse_a_walk_that_does_not_close(monkeypatch):
    # narrow h(229) = 3: as if a form of the second cycle walked from the
    # sorted reduced forms stepped into the first cycle, already indexed
    delta, s = 229, 15
    reps, index, _ = _classes(delta, s)
    assert len(reps) == 3
    cycle = {f for f, k in index.items() if k == 0}
    into_first = _rho_raw(*reps[0], delta, s)

    def stray(a, b, c, delta, s):
        return _rho_raw(a, b, c, delta, s) if (a, b, c) in cycle else into_first

    monkeypatch.setattr(classgroup, "_rho_raw", stray)
    with pytest.raises(ArithmeticError, match="did not close"):
        _classes(delta, s)


def negated_principal(delta: int) -> tuple[int, int, int]:
    """The reduced form (-1, b, .) of the class sigma of the negated principal form."""
    s = math.isqrt(delta)
    b = s - (s - delta) % 2
    return -1, b, (delta - b * b) // 4


def span_index(monkeypatch, delta):
    """The class index the prime-form span of delta > 0 built."""
    built = []

    class Recorded(_RhoIndex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(classgroup, "_RhoIndex", Recorded)
    h = class_group_summary(delta).class_number
    monkeypatch.undo()
    (index,) = built
    return index, h


def test_span_index_partitions_the_reduced_forms_like_the_oracle(monkeypatch):
    # every positive fundamental delta <= 10**4 and the 15 real fields of the
    # A = -35 family at X = 10**6: the span numbers every class, and keys the
    # reduced forms into the classes of the one-class-per-walk oracle
    family = [140 * d for d in scan_parameters(-35, 10**6)]
    assert len(family) == 15
    kinds = Counter()
    for delta in positive_fundamentals(10**4) + family:
        s = math.isqrt(delta)
        index, h = span_index(monkeypatch, delta)
        reps, oracle, identity = _classes(delta, s)
        assert index.size == h == len(reps), delta
        pairs = {(index[f], oracle[f]) for f in reduced_forms(delta)}
        assert len(pairs) == len({i for i, _ in pairs}) == len(reps), delta
        # keying every reduced form numbered no class the span had not
        assert index.size == h
        # the image positions (1 inverse, 2 sigma, 3 both) that name x itself
        for numbers, at in index._orbits.values():
            if at == 0:
                kinds[frozenset(e for e in range(1, 4) if numbers[e] == numbers[0])] += 1
        sigma_is_one = index[negated_principal(delta)] == index[reps[identity]]
        kinds["sigma = 1" if sigma_is_one else "sigma != 1"] += 1
    # x ambiguous, sigma = 1, x**2 = sigma, all three, and four distinct classes
    for kind in ({1}, {2}, {3}, {1, 2, 3}, set()):
        assert kinds[frozenset(kind)] > 0, (kind, kinds)
    assert kinds["sigma = 1"] > 0 and kinds["sigma != 1"] > 0


@pytest.mark.parametrize("delta,sigma_is_one", [(229, True), (12, False), (21, False)])
def test_span_index_places_the_negated_principal_form(monkeypatch, delta, sigma_is_one):
    s = math.isqrt(delta)
    index, _ = span_index(monkeypatch, delta)
    one = _reduce_raw(*principal_form(delta), delta, s)
    negated = negated_principal(delta)
    assert (index[negated] == index[one]) == sigma_is_one
    _, oracle, _ = _classes(delta, s)
    assert (oracle[negated] == oracle[one]) == sigma_is_one


def test_span_skips_the_root_of_a_prime_whose_class_is_spanned(monkeypatch):
    # the A = -35 family at X = 10**6: the span takes a square root for no
    # more than the odd primes p <= sqrt(delta)/2, each once, fewer in all,
    # and still finds every class
    roots = []
    sqrt_mod_prime = classgroup._sqrt_mod_prime

    def counted(x, p):
        roots.append(p)
        return sqrt_mod_prime(x, p)

    monkeypatch.setattr(classgroup, "_sqrt_mod_prime", counted)
    taken = primes = 0
    for d in scan_parameters(-35, 10**6):
        delta = 140 * d
        roots.clear()
        h = class_group_summary(delta).class_number
        odd = [p for p in _primes() if 2 < p <= math.isqrt(delta // 4)]
        assert roots == sorted(set(roots)) and set(roots) <= set(odd), delta
        assert h == len(_classes(delta, math.isqrt(delta))[0]), delta
        taken, primes = taken + len(roots), primes + len(odd)
    assert taken < primes


def test_span_skips_only_prime_forms_that_would_not_enlarge_it(monkeypatch):
    # the forms that enlarge the span, and so generate the 3-Sylow span, are
    # the same with and without the skip: a skipped p's class is spanned
    # already.  Asking the index instead of the span would skip a p whose
    # class x*sigma is numbered beside a walked x before sigma is spanned.
    enlarging = []
    adjoin = classgroup._adjoin

    def recorded(group, seen, y, delta, s, key):
        grew = adjoin(group, seen, y, delta, s, key)
        if grew:
            enlarging.append(y)
        return grew

    monkeypatch.setattr(classgroup, "_adjoin", recorded)
    prime_forms = classgroup._prime_forms
    family = [140 * d for d in scan_parameters(-35, 10**6)]
    for delta in positive_fundamentals(3000) + family:
        enlarging.clear()
        with_skip = class_group_summary(delta)
        skipped = list(enlarging)
        enlarging.clear()
        monkeypatch.setattr(classgroup, "_prime_forms", lambda d, known=None: prime_forms(d))
        assert class_group_summary(delta) == with_skip
        monkeypatch.setattr(classgroup, "_prime_forms", prime_forms)
        assert skipped == enlarging, delta


def test_prime_forms_pass_over_known_primes():
    delta = 140 * 37
    every = list(_prime_forms(delta))
    least = every[0][0]
    passed = list(_prime_forms(delta, lambda p: p == least))
    assert passed == every[1:]
    # the negated principal form is no prime form, and always comes last
    assert list(_prime_forms(delta, lambda p: True)) == every[-1:]


def test_rho_index_with_images_refuses_a_walk_that_does_not_close():
    # the principal cycle of 17 is (1, 3, -2), (-2, 1, 2), (2, 3, -1),
    # (-1, 3, 2), (2, 1, -2), (-2, 3, 1); (-2, 1, 2) is none of the images
    # (-2, 3, 1), (-1, 3, 2), (2, 3, -1) of its first form
    delta, s, one = 17, 4, (1, 3, -2)
    index = _RhoIndex(delta, s)
    # as if (-2, 1, 2) were in another class
    index[-2, 1, 2] = 1
    with pytest.raises(ArithmeticError, match="did not close"):
        index[one]


def test_span_walks_self_inverse_cycles_between_their_mirror_axes(monkeypatch):
    # every positive fundamental delta <= 10**4 and the A = -35 family at
    # X = 10**6, against the one-class-per-walk oracle: the span stores at
    # most l/2 + 1 of the l forms of a self-inverse class, all l of any other
    # class it walks, and a class that leads p for each p in led
    family = [140 * d for d in scan_parameters(-35, 10**6)]
    halved = whole = 0
    for delta in positive_fundamentals(10**4) + family:
        s = math.isqrt(delta)
        index, _ = span_index(monkeypatch, delta)
        stored = set(index)
        _, oracle, _ = _classes(delta, s)
        cycles = {}
        for f, k in oracle.items():
            cycles.setdefault(k, []).append(f)
        for cycle in cycles.values():
            a, b, c = cycle[0]
            kept = [f for f in cycle if f in stored]
            if oracle[c, b, a] == oracle[a, b, c]:
                # x = x**-1: whatever is not stored has its mirror stored
                assert len(kept) <= len(cycle) / 2 + 1, (delta, cycle[0])
                if kept:
                    assert all(f in stored or (f[2], f[1], f[0]) in stored for f in cycle)
                    halved += len(kept) < len(cycle)
            else:
                assert len(kept) in (0, len(cycle)), (delta, cycle[0])
                whole += len(kept) == len(cycle)
        # keying every reduced form stores none of them
        named = {index[f]: oracle[f] for f in oracle}
        assert set(index) == stored, delta
        for p in _primes():
            if p > math.isqrt(delta // 4):
                break
            led = [f for f in oracle if f[0] == p]
            if led:
                classes = {oracle[f] for f in led} | {oracle[c, b, a] for a, b, c in led}
                assert named[index.led[p]] in classes, (delta, p)
    assert halved > 0 and whole > 0


def test_span_takes_no_square_root_of_an_inert_prime(monkeypatch):
    # Euler's criterion passes over each p with (delta/p) = -1 before
    # Tonelli-Shanks, so every root the span takes exists
    roots = []
    sqrt_mod_prime = classgroup._sqrt_mod_prime

    def counted(x, p):
        root = sqrt_mod_prime(x, p)
        roots.append((x, p, root))
        return root

    monkeypatch.setattr(classgroup, "_sqrt_mod_prime", counted)
    family = [140 * d for d in scan_parameters(-35, 10**6)]
    taken = 0
    for delta in positive_fundamentals(3000) + family:
        roots.clear()
        class_group_summary(delta)
        assert all(x == delta and kronecker(delta, p) != -1 for x, p, _ in roots), delta
        assert None not in [root for *_, root in roots], delta
        taken += len(roots)
    assert taken > 0


@pytest.mark.parametrize("delta", [-999_999_995, 999_999_997])
def test_class_group_summary_bounded_memory_at_limit(delta):
    # the fundamental discriminants nearest MAX_DISCRIMINANT = 10**9
    assert is_fundamental(delta)
    tracemalloc.start()
    try:
        s = class_group_summary(delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.class_number % s.three_torsion == 0
    assert peak < 64 * 2**20, peak


# ---------------------------------------------------------------------------
# Analytic oracle


def test_kronecker_table_matches_kronecker():
    # the table is built from Legendre tables, never from the kronecker it is checked against
    assert "kronecker" not in vars(classgroup)
    # odd delta, delta = 4 * (odd) and delta ≡ 0 mod 8 all occur below 2000
    for delta in negative_fundamentals(2000):
        chi = _kronecker_table(delta, factorize(-delta))
        assert chi.tolist() == [kronecker(delta, t) for t in range(-delta)], delta


def test_kronecker_table_near_a_million_for_each_two_part():
    for delta, two_part in ((-999_995, 1), (-999_988, -4), (-1_000_024, 8), (-1_000_040, -8)):
        assert is_fundamental(delta)
        odd = math.prod(q if q % 4 == 1 else -q for q, _ in factorize(-delta) if q > 2)
        assert delta // odd == two_part, delta
        chi = _kronecker_table(delta, factorize(-delta))
        assert len(chi) == -delta
        for t in [*range(0, -delta, 101), -delta - 1]:
            assert chi[t] == kronecker(delta, t), (delta, t)


def test_analytic_oracle_agrees_with_form_count():
    for delta in negative_fundamentals(800):
        if delta in (-3, -4):
            continue
        assert analytic_class_number_oracle(delta) == len(reduced_forms(delta)), delta
    # near -10**6 the character sum runs over four blocks of 2**18
    for delta in (-999_995, -999_988, -1_000_003, -1_000_024):
        assert is_fundamental(delta)
        h = class_group_summary(delta).class_number
        assert analytic_class_number_oracle(delta) == h, delta
    # int8 chi and a blocked sum: int64 copies of t and chi alone would take 153 MiB
    h = class_group_summary(-9_999_995).class_number
    tracemalloc.start()
    try:
        assert analytic_class_number_oracle(-9_999_995) == h == 936
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak


def test_analytic_oracle_extra_units():
    for delta in (-3, -4):
        with pytest.raises(ExtraUnitsDiscriminant) as info:
            analytic_class_number_oracle(delta)
        assert info.value.class_number == 1


def test_analytic_oracle_rejects_bad_inputs():
    with pytest.raises(ValueError):
        analytic_class_number_oracle(-12)  # not fundamental
    with pytest.raises(ValueError):
        analytic_class_number_oracle(5)  # positive
    # fundamental, but past the limit: refused before any table is built
    assert is_fundamental(-(MAX_DISCRIMINANT + 3))
    with pytest.raises(ValueError, match="limit"):
        analytic_class_number_oracle(-(MAX_DISCRIMINANT + 3))


def no_prime_list():
    raise AssertionError("the prime list of the form enumeration was read")


def test_analytic_oracle_stays_off_the_prime_list(monkeypatch):
    # the form enumeration reads _primes; the oracle must not, or a fault in
    # that list could hit both sides of the comparison
    h = class_group_summary(-999_995).class_number
    monkeypatch.setattr(classgroup, "_primes", no_prime_list)
    assert analytic_class_number_oracle(-999_995) == h


def test_analytic_oracle_refuses_above_ten_million(monkeypatch):
    # the first fundamental discriminant past -10**7, refused before any
    # character table is built or the prime list is read
    assert is_fundamental(-10_000_003)

    def no_table(delta):
        raise AssertionError("a character table past the oracle's limit")

    monkeypatch.setattr(classgroup, "_kronecker_table", no_table)
    monkeypatch.setattr(classgroup, "_primes", no_prime_list)
    with pytest.raises(ValueError, match="limit 10000000"):
        analytic_class_number_oracle(-10_000_003)


class TableBuilt(Exception):
    """Raised in place of building chi: the oracle's refusals all come first."""


def test_analytic_oracle_refuses_what_is_fundamental_refuses(monkeypatch):
    # |delta| is factored once, and that factorization decides fundamentality
    def no_table(delta, factors=None):
        raise TableBuilt

    monkeypatch.setattr(classgroup, "_kronecker_table", no_table)
    for delta in range(-1, -20_001, -1):
        if delta in (-3, -4):
            with pytest.raises(ExtraUnitsDiscriminant):
                analytic_class_number_oracle(delta)
        elif is_fundamental(delta):
            with pytest.raises(TableBuilt):
                analytic_class_number_oracle(delta)
        else:
            with pytest.raises(ValueError) as info:
                analytic_class_number_oracle(delta)
            assert str(info.value) == f"{delta} is not a fundamental discriminant"


def test_analytic_oracle_builds_each_small_legendre_table_once(monkeypatch):
    # the 3,041 discriminants of verify --level full
    deltas = [
        d for d in enumerate_progression(ProgressionFamily(10**4, 0, 1, NEGATIVE))
        if d not in (-3, -4)
    ]
    assert len(deltas) == 3041
    built = Counter()
    build = classgroup._legendre_table

    def counted(q):
        built[q] += 1
        return build(q)

    monkeypatch.setattr(classgroup, "_legendre_table", counted)
    classgroup._small_legendre_table.cache_clear()
    for delta in deltas:
        analytic_class_number_oracle(delta)
    small = {q for d in deltas for q, _ in factorize(d) if 2 < q <= 3162}
    assert {q for q, n in built.items() if q <= 3162} == small
    assert all(built[q] == 1 for q in small)
    # every table of a larger prime is built once per discriminant it divides
    for q, n in built.items():
        if q > 3162:
            assert n == sum(d % q == 0 for d in deltas), q


def test_memoized_legendre_tables_are_read_only():
    assert classgroup._LEGENDRE_MEMO_BOUND == 3162
    table = classgroup._small_legendre_table(7)
    assert table.tolist() == [0, 1, 1, -1, 1, -1, -1]
    with pytest.raises(ValueError):
        table[1] = -1
    assert classgroup._small_legendre_table(7) is table
    # chi is built on top of such tables, and stays writable itself
    assert _kronecker_table(-7, factorize(7)).flags.writeable


def test_large_legendre_tables_do_not_outlive_the_call(monkeypatch):
    refs = []
    build = classgroup._legendre_table

    def tracked(q):
        table = build(q)
        refs.append((q, weakref.ref(table)))
        return table

    monkeypatch.setattr(classgroup, "_legendre_table", tracked)
    h = class_group_summary(-999_995).class_number
    # -999,995 = -5 * 199,999: only the table of 199,999 is past the memo bound
    assert analytic_class_number_oracle(-999_995) == h
    gc.collect()
    large = [(q, ref) for q, ref in refs if q > 3162]
    assert [q for q, _ in large] == [199_999]
    assert all(ref() is None for _, ref in large)


# ---------------------------------------------------------------------------
# Brute-force group structure


@pytest.mark.parametrize(
    "delta,structure",
    [
        (-3, []),
        (-4, []),
        (-23, [3]),
        (-52, [2]),
        (-244, [6]),
        (-479, [25]),
        (-3299, [3, 9]),
        (-3896, [3, 12]),
        (5, []),
        (12, [2]),
        (136, [4]),
        (229, [3]),
        (316, [6]),
    ],
)
def test_brute_force_structure_frozen_values(delta, structure):
    assert brute_force_group_structure(delta) == structure


def test_brute_force_structure_invariants():
    for delta in negative_fundamentals(600) + positive_fundamentals(400):
        structure = brute_force_group_structure(delta)
        s = class_group_summary(delta)
        prod = 1
        for n in structure:
            prod *= n
        assert prod == s.class_number
        for i in range(len(structure) - 1):
            assert structure[i + 1] % structure[i] == 0
        assert sum(1 for n in structure if n % 3 == 0) == s.three_rank


def orders_by_repeated_composition(delta: int) -> tuple[list[int], int]:
    """(order of every class, h), each order found by composing up from that class alone."""
    s = math.isqrt(delta) if delta > 0 else 0
    reps, index, identity = _classes(delta, s)
    orders = []
    for i in range(len(reps)):
        acc, order = i, 1
        while acc != identity:
            acc = index[_mul(reps[acc], reps[i], delta, s)]
            order += 1
        orders.append(order)
    return orders, len(reps)


def test_brute_force_walks_match_per_class_orders():
    for delta in negative_fundamentals(2000) + positive_fundamentals(2000):
        orders, h = orders_by_repeated_composition(delta)
        assert brute_force_group_structure(delta) == _invariant_factors(orders, h), delta


def orders_of_product(factors: list[int]) -> list[int]:
    """The order of every element of Z/d1 x ... x Z/dk: the lcm of the orders
    d / gcd(d, x) of its coordinates x."""
    return [
        math.lcm(*(d // math.gcd(d, x) for d, x in zip(factors, element)))
        for element in itertools.product(*map(range, factors))
    ]


@pytest.mark.parametrize("factors", [[2, 6, 12], [3, 3, 3], [2, 4, 8, 8], [5, 25], [4, 36]])
def test_invariant_factors_of_known_groups(factors):
    assert _invariant_factors(orders_of_product(factors), math.prod(factors)) == factors


def test_invariant_factors_refuses_orders_of_no_group():
    # no order divides 3, so the 3-torsion count is 0, not a power of 3
    with pytest.raises(ArithmeticError, match="not a p-power"):
        _invariant_factors([9] * 9, 9)
    # 3 orders for h = 9: their 3- and 9-torsion counts 1 and 3 alone would
    # read as C9, but the 9-torsion of a group of order 9 has 9 elements
    with pytest.raises(ArithmeticError, match="not the Sylow size"):
        _invariant_factors([1, 9, 9], 9)


def test_brute_force_refuses_a_walk_that_never_closes(monkeypatch):
    monkeypatch.setattr(classgroup, "_compose_raw", lambda a1, b1, c1, *rest: (a1, b1, c1))
    with pytest.raises(ArithmeticError, match="element order exceeded the group size"):
        brute_force_group_structure(-23)


@pytest.mark.parametrize("delta,structure", [(32009, [3, 3]), (-3299, [3, 9]), (8761, [27])])
def test_brute_force_shares_no_product_or_index_with_the_span(monkeypatch, delta, structure):
    # the oracle checks the span's _mul and _RhoIndex, so it must not call them
    def refused(*args, **kwargs):
        raise AssertionError("the brute-force oracle used the span's product or index")

    monkeypatch.setattr(classgroup, "_mul", refused)
    monkeypatch.setattr(classgroup, "_RhoIndex", refused)
    assert brute_force_group_structure(delta) == structure


def test_brute_force_structure_guard():
    with pytest.raises(ValueError, match="^class number 311 exceeds the brute-force guard 200$"):
        brute_force_group_structure(-40031)
