"""Tests for binary quadratic forms and class groups.

Independent oracles cross-check the form-counting route: standalone loop
enumerations of reduced definite and indefinite forms, and the exact finite
character sum for the class number.  The 3-Sylow torsion count is checked
against cubing every class, and group structure against explicit
multiplication tables.
"""

import math
import tracemalloc

import pytest

from twistrank.classgroup import (
    ClassGroupSummary,
    ExtraUnitsDiscriminant,
    Form,
    InconclusiveOracle,
    analytic_class_number_oracle,
    brute_force_group_structure,
    class_group_summary,
    compose,
    is_equivalent,
    is_reduced,
    principal_form,
    reduce_form,
    reduced_forms,
    reduction_cycle,
    summary_from_counts,
)
from twistrank.classgroup import _classes, _mul, _reduced_forms_definite, _sqrt_mod_prime
from twistrank.discriminants import is_fundamental


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


def cube_every_class_torsion(delta: int) -> int:
    """3-torsion counted by cubing every class of the group."""
    s = math.isqrt(delta) if delta > 0 else 0
    reps, index, identity = _classes(delta, s)
    return sum(
        1 for t in reps if index[_mul(_mul(t, t, delta, s), t, delta, s)] == identity
    )


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
    assert reduce_form(Form(6, 2, 1)) == Form(1, 0, 5)


def test_reduce_definite_lands_in_oracle_set():
    for delta in negative_fundamentals(250):
        oracle = naive_reduced_definite(delta)
        # a chunk of non-reduced forms equivalent to reduced ones
        for a in range(1, 12):
            for b in range(-15, 16):
                if (b * b - delta) % (4 * a):
                    continue
                c = (b * b - delta) // (4 * a)
                f = Form(a, b, c)
                if f.content() != 1:
                    continue
                r = reduce_form(f)
                assert tuple(r) in oracle, (delta, f)
                assert r.discriminant() == delta
                assert is_reduced(r)
                assert is_equivalent(f, r)


def test_reduce_form_is_idempotent():
    for delta in (-23, -52, -244, 229, 316):
        for f in reduced_forms(delta):
            assert reduce_form(f) == f or delta > 0
            assert is_reduced(f)


def test_reduce_rejects_negative_definite():
    with pytest.raises(ValueError):
        reduce_form(Form(-1, 0, 1))


def test_reduction_cycle_frozen_example():
    cycle = reduction_cycle(Form(1, 1, -1))
    assert set(map(tuple, cycle)) == {(-1, 1, 1), (1, 1, -1)}


def test_reduction_cycle_closure_and_membership():
    for delta in (12, 40, 136, 229):
        for f in reduced_forms(delta):
            cycle = reduction_cycle(f)
            assert tuple(f) in set(map(tuple, cycle))
            for g in cycle:
                assert is_reduced(g) and g.discriminant() == delta


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
    # the raw enumerator, which tests primitivity itself, against the
    # triple-loop oracle; -6039 = 9 * (-671) is not fundamental, and 30 of
    # its 90 reduced forms are imprimitive
    for delta in (-6004, -7403, -9587):
        assert is_fundamental(delta)
    for delta in (-6004, -7403, -9587, -6039):
        raw = _reduced_forms_definite(delta)
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


def test_reduced_forms_indefinite_basic_properties():
    for delta in positive_fundamentals(300):
        forms = reduced_forms(delta)
        assert forms == sorted(forms)
        for f in forms:
            assert is_reduced(f)
            assert f.discriminant() == delta
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


def test_reduce_rejects_imprimitive():
    with pytest.raises(ValueError):
        reduce_form(Form(2, 2, 2))


# ---------------------------------------------------------------------------
# Composition


def test_compose_frozen_examples():
    t = Form(2, 1, 3)
    sq = compose(t, t)
    assert is_equivalent(sq, Form(2, -1, 3))
    assert is_equivalent(compose(sq, t), principal_form(-23))


def test_compose_group_laws_definite():
    for delta in (-23, -47, -71, -244, -479):
        forms = reduced_forms(delta)
        e = reduce_form(principal_form(delta))
        for f in forms:
            assert reduce_form(compose(f, e)) == reduce_form(Form(*f))
        for f in forms[:6]:
            for g in forms[:6]:
                assert reduce_form(compose(f, g)) == reduce_form(compose(g, f))
                for h in forms[:4]:
                    lhs = compose(compose(f, g), h)
                    rhs = compose(f, compose(g, h))
                    assert reduce_form(lhs) == reduce_form(rhs)
        # inverse: (a, -b, c) composes to the identity
        for a, b, c in map(tuple, forms):
            assert reduce_form(compose(Form(a, b, c), Form(a, -b, c))) == e


def test_compose_group_laws_indefinite():
    for delta in (40, 136, 229, 316):
        forms = reduced_forms(delta)
        e = principal_form(delta)
        for f in forms[:8]:
            assert is_equivalent(compose(f, e), f)
            for g in forms[:8]:
                assert is_equivalent(compose(f, g), compose(g, f))
        for a, b, c in map(tuple, forms[:8]):
            assert is_equivalent(compose(Form(a, b, c), Form(a, -b, c)), e)


def test_compose_rejects_mismatched_discriminants():
    with pytest.raises(ValueError):
        compose(Form(1, 1, 6), Form(1, 0, 1))


def test_is_equivalent_partitions_reduced_forms():
    # distinct reduced definite forms are inequivalent
    forms = reduced_forms(-479)
    for i, f in enumerate(forms):
        for g in forms[i + 1 :]:
            assert not is_equivalent(f, g)
        assert is_equivalent(f, f)


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


def test_summary_from_counts_validation():
    assert summary_from_counts(-244, 6, 3).three_rank == 1
    with pytest.raises(ArithmeticError):
        summary_from_counts(-23, 3, 2)  # torsion not a power of 3
    with pytest.raises(ArithmeticError):
        summary_from_counts(-23, 4, 3)  # torsion does not divide h
    with pytest.raises(ValueError):
        summary_from_counts(-23, 0, 1)


def test_sylow_torsion_matches_cubing_every_class():
    for delta in negative_fundamentals(10**4) + positive_fundamentals(5000):
        torsion = class_group_summary(delta).three_torsion
        assert torsion == cube_every_class_torsion(delta), delta


@pytest.mark.parametrize("delta", [-3299, -3896, -4027, 32009, 42817])
def test_three_rank_two_matches_brute_force(delta):
    # -3299 is C3 x C9: its 3-Sylow subgroup (27) is larger than its
    # 3-torsion (9)
    s = class_group_summary(delta)
    structure = brute_force_group_structure(delta)
    assert (s.three_torsion, s.three_rank) == (9, 2)
    assert sum(1 for n in structure if n % 3 == 0) == 2
    assert math.prod(structure) == s.class_number


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


def test_analytic_oracle_agrees_with_form_count():
    for delta in negative_fundamentals(800):
        if delta in (-3, -4):
            continue
        assert analytic_class_number_oracle(delta) == len(reduced_forms(delta)), delta


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


def test_brute_force_structure_guard():
    with pytest.raises(ValueError):
        brute_force_group_structure(-479, max_order=10)  # h = 25 > 10
