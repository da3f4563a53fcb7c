"""Tests for family statistics: exact constants, scans, means, checks.

The density constant gets an independent exact-rational oracle (naive trial
division, Fraction product); scan parameter lists are checked against a
brute-force squarefree filter; the progression mean at X = 10^4 is a frozen
value from an independent brute-force run.
"""

import math
import multiprocessing
import warnings
from array import array
from fractions import Fraction
from itertools import starmap

import pytest

from twistrank import classgroup, discriminants, selmer, stats
from twistrank.arith import factorize, is_squarefree
from twistrank.classgroup import (
    ClassGroupSummary,
    analytic_class_number_oracle,
    brute_force_group_structure,
    class_group_summary,
    summary_from_counts,
)
from twistrank.discriminants import (
    NEGATIVE,
    POSITIVE,
    ProgressionFamily,
    enumerate_progression,
    is_fundamental,
)
from twistrank.selmer import ValidationError, _certify_twist, _record, twist_record
from twistrank.stats import (
    EmptyFamilyError,
    average_dimension_bound,
    certified_density_bound,
    compute_class_data,
    correspondence_check,
    density_constant,
    family_progression,
    low_rank_factor,
    nh_mean,
    proportion_bound_from_mean,
    rearrangement_check,
    render_float,
    scan_family,
    scan_parameters,
)


def naive_density_constant(a: int) -> Fraction:
    out = Fraction(1, 8)
    m = abs(a)
    p = 2
    while p * p <= m:
        if m % p == 0:
            out *= Fraction(p, (p - 1) * (p + 1))
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out *= Fraction(m, (m - 1) * (m + 1))
    return out


def naive_squarefree(n: int) -> bool:
    return all(n % (d * d) for d in range(2, math.isqrt(n) + 1))


# ---------------------------------------------------------------------------
# Exact constants


def test_low_rank_factor_frozen():
    assert low_rank_factor(0) == Fraction(1, 2)
    assert low_rank_factor(1) == Fraction(7, 8)
    assert low_rank_factor(2) == Fraction(25, 26)
    assert low_rank_factor(3) == Fraction(79, 80)
    with pytest.raises(ValueError):
        low_rank_factor(-1)


def test_proportion_bound_from_mean():
    assert proportion_bound_from_mean(Fraction(2), 0) == Fraction(1, 2)
    assert proportion_bound_from_mean(Fraction(4, 3), 0) == Fraction(5, 6)
    assert proportion_bound_from_mean(Fraction(3), 0) == 0
    assert proportion_bound_from_mean(Fraction(295, 183), 0) == Fraction(127, 183)


def test_density_constant_frozen():
    assert density_constant(1) == Fraction(1, 8)
    assert density_constant(37) == Fraction(37, 10944)
    assert density_constant(-35) == Fraction(35, 9216)
    assert density_constant(61) == Fraction(61, 29760)


def test_density_constant_matches_naive_oracle_on_sampled_coefficients():
    sampled = [
        a
        for a in list(range(1, 700)) + list(range(-700, 0))
        if a % 36 in (1, 25) and naive_squarefree(abs(a))
    ]
    assert len(sampled) >= 20
    for a in sampled:
        assert density_constant(a) == naive_density_constant(a), a


def test_density_constant_rejects_direct_case():
    with pytest.raises(ValueError):
        density_constant(13)
    with pytest.raises(ValueError):
        density_constant(-23)


def test_certified_density_bound_frozen():
    assert certified_density_bound(1, 0) == Fraction(1, 16)
    assert certified_density_bound(1, 1) == Fraction(7, 64)
    assert certified_density_bound(37, 0) == Fraction(37, 21888)


def test_average_dimension_bound():
    assert average_dimension_bound(1) == 1
    assert average_dimension_bound(-35) == Fraction(4, 3)
    with pytest.raises(ValueError):
        average_dimension_bound(13)


def test_render_float_significant_digits():
    assert render_float(Fraction(1, 3)) == 0.333333333333
    assert render_float(Fraction(1, 16)) == 0.0625


# ---------------------------------------------------------------------------
# Scan parameters and scans


def test_scan_parameters_frozen():
    assert scan_parameters(1, 400) == [1, 13, 37, 61, 73, 85, 97]
    assert scan_parameters(1, 5) == [1]
    assert scan_parameters(1, 4) == []
    assert scan_parameters(-35, 20000) == [1]


def test_scan_parameters_matches_naive_filter():
    for a in (1, 37, -35, -11):
        got = scan_parameters(a, 30000)
        step = 12 * abs(a)
        want = [
            d
            for d in range(1, (30000 - 1) // (4 * abs(a)) + 1)
            if d % step == 1 % step and naive_squarefree(d)
        ]
        assert got == want, a


def test_scan_parameters_rejects_direct_case():
    with pytest.raises(ValueError):
        scan_parameters(13, 1000)


def test_scan_refuses_past_the_scan_limit_before_sieving(monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"squarefree_flags({limit}) past the scan limit")

    monkeypatch.setattr(stats, "squarefree_flags", no_sieve)
    with pytest.raises(ValueError, match="^X exceeds the scan limit 1000000000$"):
        scan_family(1, 10**10)
    with pytest.raises(ValueError, match="^X exceeds the scan limit 1000000000$"):
        correspondence_check(-35, 10**9 + 1)


def test_scan_family_frozen_small():
    res = scan_family(1, 400)
    r = res.report
    assert r.family_size == 7
    assert r.squarefree_count == 61
    assert r.h3_mean == Fraction(9, 7)
    assert r.avg_selmer_dim == Fraction(2, 7)
    assert r.certified_proportion_per_k[0] == Fraction(6, 61)
    assert r.certified_proportion_per_k[1] == Fraction(7, 61)
    assert r.certified_proportion_within_family[0] == Fraction(6, 7)
    assert r.certified_proportion_within_family[1] == 1
    assert r.theoretical["certified_density_bound"] == Fraction(1, 16)
    assert [rec.selmer_dim for rec in res.records] == [0, 0, 0, 2, 0, 0, 0]
    assert set(res.new_class_data) == {-4, -52, -148, -244, -292, -340, -388}


def test_scan_family_determinism_across_jobs_and_cache():
    cold = scan_family(1, 2000)
    warm = scan_family(1, 2000, class_data=cold.new_class_data)
    parallel = scan_family(1, 2000, jobs=3)
    assert warm.report == cold.report == parallel.report
    assert warm.records == cold.records == parallel.records
    assert warm.new_class_data == {}
    assert cold.new_class_data == {
        d * cold.base: (h, torsion)
        for d, h, torsion in zip(cold.parameters, cold.class_numbers, cold.three_torsion)
    }


def test_scan_family_negative_branch():
    res = scan_family(-35, 10**5)
    assert [rec.d for rec in res.records] == [1, 421]
    assert res.report.avg_selmer_dim == 1
    assert res.report.theoretical["average_dimension_bound"] == Fraction(4, 3)


@pytest.mark.parametrize("a,x", [(1, 40_000), (-35, 10**6)])
def test_scan_class_data_views_keep_their_values_and_order(a, x):
    # every twist's class data in scan order, and the computed ones sorted by
    # discriminant, equal to what each twist's class group gives alone
    deltas = [_certify_twist(a, d)[1] for d in scan_parameters(a, x)]
    expected = {
        delta: (s.class_number, s.three_torsion)
        for delta, s in zip(deltas, map(class_group_summary, deltas))
    }
    cold = scan_family(a, x)
    assert list(zip(cold.class_numbers, cold.three_torsion)) == list(expected.values())
    assert list(cold.new_class_data.items()) == sorted(expected.items())
    assert cold.computed == b"\1" * len(deltas) > b""
    # half of the class data supplied: the rest is computed, and is all that is new
    supplied = dict(list(expected.items())[::2])
    warm = scan_family(a, x, class_data=supplied)
    assert list(zip(warm.class_numbers, warm.three_torsion)) == list(expected.values())
    assert list(warm.new_class_data.items()) == sorted(
        (d, pair) for d, pair in expected.items() if d not in supplied
    )
    assert bytes(d not in supplied for d in deltas) == warm.computed
    assert warm.report == cold.report
    assert list(warm.class_numbers) == [h for h, _ in expected.values()]
    assert list(warm.three_torsion) == [torsion for _, torsion in expected.values()]


def test_scan_records_build_no_summary(monkeypatch):
    built = []
    new = ClassGroupSummary.__new__

    def counted(cls, *args, **kwargs):
        built.append(args or kwargs)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(ClassGroupSummary, "__new__", counted)
    for a, x in ((1, 40_000), (-35, 10**6)):
        res = scan_family(a, x)
        assert len(res.records) == res.report.family_size > 1
    assert built == []


def test_scan_family_empty():
    with pytest.raises(EmptyFamilyError):
        scan_family(1, 4)


@pytest.mark.parametrize("a,x", [(1, 400_000), (-35, 10**7)])
def test_scan_family_records_equal_certified_records(a, x):
    # scan_family builds each record without factoring D; _certify_twist
    # certifies the pair from scratch, and its case and delta are the ones the
    # scan trusted.  twist_record, which also computes the class group alone,
    # agrees on a sample.
    res = scan_family(a, x)
    assert len(res.records) == res.report.family_size > 100
    for rec, h, torsion in zip(res.records, res.class_numbers, res.three_torsion):
        case, delta = _certify_twist(a, rec.d)
        assert (rec.case, rec.field_discriminant) == (case, delta)
        summary = summary_from_counts(delta, h, torsion)
        assert rec == _record(case, a, rec.d, delta, summary.three_rank)
    for rec in res.records[:: max(1, len(res.records) // 20)]:
        assert rec == twist_record(a, rec.d)
    # the statistics, counted once per 3-rank, equal a recount over the records
    r, n = res.report, len(res.records)
    assert r.h3_mean == Fraction(sum(3**rec.three_rank for rec in res.records), n)
    assert r.avg_selmer_dim == Fraction(sum(rec.selmer_dim for rec in res.records), n)
    # the thresholds run up to the least k that certifies every twist
    k_hi = -(-max(rec.rank_bound for rec in res.records) // 2)
    assert list(r.certified_proportion_per_k) == list(range(k_hi + 1))
    assert list(r.certified_proportion_within_family) == list(range(k_hi + 1))
    for kk in range(k_hi + 1):
        certified = sum(1 for rec in res.records if rec.rank_bound <= 2 * kk)
        assert r.certified_proportion_per_k[kk] == Fraction(certified, r.squarefree_count)
        assert r.certified_proportion_within_family[kk] == Fraction(certified, n)


def test_scan_builds_records_only_on_first_access(capsys, monkeypatch, tmp_path):
    from twistrank import cache
    from twistrank.cli import main

    monkeypatch.delenv(cache.CACHE_ENV_VAR, raising=False)
    calls = []
    record = stats._record

    def counted(*args):
        calls.append(args)
        return record(*args)

    monkeypatch.setattr(stats, "_record", counted)
    res = scan_family(1, 40_000)
    assert calls == []
    # a --trace row is written from the class data, not from a record
    assert main(["scan", "1", "--max-x", "40000", "--trace", str(tmp_path / "t.csv")]) == 0
    assert calls == []
    records = res.records
    assert len(calls) == res.report.family_size == len(records) > 100
    assert res.records is records
    assert len(calls) == res.report.family_size
    assert [rec.d for rec in records] == res.parameters == scan_parameters(1, 40_000)
    assert [rec.field_discriminant for rec in records] == [d * res.base for d in res.parameters]


def test_scan_family_factors_no_twist_parameter(monkeypatch):
    calls = []

    def count(n):
        calls.append(n)
        return factorize(n)

    def refuse(name, n):
        if name == "D":
            raise AssertionError(f"the scan factored D = {n}")
        return check_squarefree(name, n)

    check_squarefree = selmer._check_squarefree
    monkeypatch.setattr(selmer, "_check_squarefree", refuse)
    monkeypatch.setattr(selmer, "factorize", count)
    r = scan_family(1, 40_000).report
    assert r.family_size == 754
    assert r.squarefree_count == 6083
    assert r.h3_mean == Fraction(655, 377)
    assert r.avg_selmer_dim == Fraction(270, 377)
    assert r.certified_proportion_per_k == {
        0: Fraction(488, 6083), 1: Fraction(750, 6083), 2: Fraction(754, 6083)
    }
    assert r.certified_proportion_within_family == {
        0: Fraction(244, 377), 1: Fraction(375, 377), 2: 1
    }
    assert r.theoretical["certified_density_bound"] == Fraction(1, 16)
    # the scan factors A alone, as often for 754 twists as for 7
    factored = list(calls)
    calls.clear()
    scan_family(1, 400)
    assert calls == factored and set(factored) == {1}


@pytest.mark.parametrize("a,x", [(1, 40_000), (-35, 10**6)])
def test_a_scan_factors_a_once(monkeypatch, a, x):
    calls = []

    def count(n):
        calls.append(n)
        return factorize(n)

    # every module that imports factorize; arith's own is_squarefree is left
    # out, as there the fundamentality re-check of Delta = 140 (D = 1) factors
    # |A| * D = 35, which is not a factorization of A
    for module in (classgroup, discriminants, selmer, stats):
        if hasattr(module, "factorize"):
            monkeypatch.setattr(module, "factorize", count)
    res = scan_family(a, x)
    assert res.report.family_size > 10
    assert [n for n in calls if abs(n) == abs(a)] == [a]


def test_scan_refuses_a_k_past_the_last_row_before_any_work(monkeypatch):
    # 3**r | h < |delta| <= 10**9 gives r <= 18, so every rank bound is at
    # most 37 and k = 19 certifies every twist; a larger k only repeats rows
    rows = scan_family(1, 400, k=19).report.certified_proportion_per_k
    assert list(rows) == list(range(20))
    assert rows[19] == rows[1] == Fraction(7, 61)

    def no_sieve(limit):
        raise AssertionError(f"squarefree_flags({limit}) for a refused k")

    monkeypatch.setattr(stats, "squarefree_flags", no_sieve)
    for k in (20, 9010, 10**9):
        with pytest.raises(ValueError, match="^k must be at most 19, which certifies"):
            scan_family(1, 400, k=k)


def per_delta_class_data(deltas):
    """compute_class_data's h and 3-torsion arrays, as each discriminant's
    class group gives them alone."""
    summaries = list(map(class_group_summary, deltas))
    return (
        array("q", [s.class_number for s in summaries]),
        array("q", [s.three_torsion for s in summaries]),
    )


def test_compute_class_data_parallel_agrees():
    deltas = [-4 * d for d in scan_parameters(1, 2000)]
    assert compute_class_data(deltas, jobs=1) == compute_class_data(deltas, jobs=4)


def test_compute_class_data_starts_no_more_workers_than_discriminants(monkeypatch):
    sizes = []

    class FakePool:
        """Records the requested pool size and maps in this process."""

        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, items, chunksize=1):
            return list(starmap(fn, items))

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    deltas = [-4 * d for d in scan_parameters(1, 2000)]
    expected = compute_class_data(deltas)
    # nor more than there are CPUs; one CPU, or an unknown count, runs in
    # this process with no pool
    for cpus, want in ((64, [35]), (2, [2]), (1, []), (None, [])):
        sizes.clear()
        monkeypatch.setattr(classgroup.os, "cpu_count", lambda: cpus)
        assert compute_class_data(deltas, jobs=10**6) == expected
        assert sizes == want, cpus
    assert len(deltas) == 35


def test_compute_class_data_matches_per_delta_summaries():
    family = [-4 * d for d in scan_parameters(1, 2 * 10**5)]
    every = [d for d in range(-3, -2 * 10**4, -1) if is_fundamental(d)]
    for deltas in (
        every,
        family,
        [d for d in family if d < -18 * 10**4],
        [-4 * 37 * d for d in scan_parameters(37, 2 * 10**5)],
        [-4 * 61 * d for d in scan_parameters(61, 2 * 10**5)],
        [-3299, 229, -23, 316, -4, 5],
    ):
        assert compute_class_data(deltas) == per_delta_class_data(deltas)


def test_compute_class_data_sweeps_a_family(monkeypatch):
    deltas = [-4 * d for d in scan_parameters(1, 10**5)]
    expected = compute_class_data(deltas)
    assert compute_class_data(deltas, jobs=2) == expected

    def no_enumeration(delta):
        raise AssertionError(f"class_group_summary({delta}) called on the sweep path")

    monkeypatch.setattr(classgroup, "class_group_summary", no_enumeration)
    assert compute_class_data(deltas) == expected


def test_compute_class_data_far_apart_pair_skips_the_sweep(monkeypatch):
    deltas = [-4 * 13, -4 * 999_961]
    assert all(map(is_fundamental, deltas))

    def no_sweep(deltas, window):
        raise AssertionError("a sweep over two far-apart discriminants")

    monkeypatch.setattr(classgroup, "_definite_class_numbers", no_sweep)
    assert compute_class_data(deltas) == per_delta_class_data(deltas)


def test_compute_class_data_matches_the_oracles_at_the_scanned_scale():
    deltas = [-4 * d for d in scan_parameters(1, 4 * 10**5)]
    rows = zip(deltas, *compute_class_data(deltas))
    data = {d: summary_from_counts(d, h, t) for d, h, t in rows}
    sample = [d for d in deltas[::100] if d != -4]
    assert len(sample) == 75
    for delta in sample:
        assert data[delta].class_number == analytic_class_number_oracle(delta), delta
    # 9 | h, h <= 200: 3-rank 2 (the first six) and cyclic 3-Sylow of order >= 27
    for delta in (
        -9748, -100036, -171604, -208084, -333364, -395092,
        -12724, -56404, -391444, -394948, -399028, -399268,
    ):
        structure = brute_force_group_structure(delta)
        assert math.prod(structure) == data[delta].class_number, delta
        assert sum(n % 3 == 0 for n in structure) == data[delta].three_rank, delta


def test_compute_class_data_rejects_non_fundamental_on_the_sweep_path():
    deltas = [-4 * d for d in scan_parameters(1, 10**5)] + [-12]
    assert classgroup._sweep_plan(sorted(deltas)) is not None
    with pytest.raises(ValueError, match="^-12 is not a fundamental discriminant$"):
        compute_class_data(deltas)


def test_compute_class_data_checks_every_delta_before_any_class_number(monkeypatch):
    def no_class_numbers(*args):
        raise AssertionError("a class number computed before every delta was checked")

    monkeypatch.setattr(classgroup, "_definite_class_numbers", no_class_numbers)
    monkeypatch.setattr(classgroup, "_span_counts", no_class_numbers)
    swept = [-4 * d for d in scan_parameters(1, 10**5)]
    positives = [5, 8, 12, 13, 17, 21, 24, 28, 29]
    for deltas in (positives + [20], positives + [-12], swept + [229, 20]):
        bad = deltas[-1]
        with pytest.raises(ValueError, match=f"^{bad} is not a fundamental discriminant$"):
            compute_class_data(deltas)
    # the last batch's negatives were planned for the sweep
    assert classgroup._sweep_plan(swept) is not None


# ---------------------------------------------------------------------------
# Correspondence and progression means


def test_correspondence_check_frozen():
    for a in (1, 37, 61, -35, -11):
        assert correspondence_check(a, 10**4), a


def test_correspondence_image_oracle():
    """Rebuild both sides naively for A = 1: images of D and the progression."""
    from twistrank.discriminants import is_fundamental

    x = 2000
    left = {-4 * d for d in scan_parameters(1, x)}
    right = {
        delta
        for delta in range(-x + 1, 0)
        if is_fundamental(delta) and delta % 48 == 44 % 48
    }
    assert left == right
    assert correspondence_check(1, x)


@pytest.mark.parametrize(
    "a,progression",
    [
        (1, (44, 48, NEGATIVE)),
        (-35, (140, 58800, POSITIVE)),
        (13, (156, 24336, POSITIVE)),
        (-23, (75900, 76176, NEGATIVE)),
    ],
)
def test_family_progression_frozen(a, progression):
    fam = family_progression(a, 10**6)
    assert (fam.residue_m, fam.modulus_n, fam.sign) == progression


@pytest.mark.parametrize("a,twists", [(13, 37), (-23, 13), (157, 1), (-59, 2)])
def test_family_progression_is_the_image_of_the_sqrt_3a_twists(a, twists):
    # A ≡ 13 mod 36: the field is Q(sqrt(3AD)) with 3A ≡ 3 mod 4, so
    # delta = 12AD; scan_parameters refuses these A, so D is listed here
    x = 10**6
    image = {
        12 * a * d
        for d in range(1, -(-x // abs(12 * a)), 12 * abs(a))
        if is_squarefree(d)
    }
    assert image == set(enumerate_progression(family_progression(a, x)))
    assert len(image) == twists


#: Every public entry point that takes a coefficient A, at a small X and k.
FAMILY_ENTRY_POINTS = {
    "scan_parameters": lambda a: scan_parameters(a, 10**4),
    "scan_family": lambda a: scan_family(a, 10**4),
    "density_constant": density_constant,
    "certified_density_bound": lambda a: certified_density_bound(a, 1),
    "average_dimension_bound": average_dimension_bound,
    "correspondence_check": lambda a: correspondence_check(a, 10**4),
}


@pytest.mark.parametrize("a", [0, 2, 49])
def test_family_progression_refuses_invalid_coefficients(a):
    with pytest.raises(ValidationError):
        family_progression(a, 10**6)
    # as does every other entry point that takes A
    for entry in FAMILY_ENTRY_POINTS.values():
        with pytest.raises(ValidationError):
            entry(a)


@pytest.mark.parametrize("name", FAMILY_ENTRY_POINTS)
@pytest.mark.parametrize("a", [13, -23])
def test_family_statistics_refuse_the_direct_case_at_every_entry_point(monkeypatch, a, name):
    def no_class_data(*args, **kwargs):
        raise AssertionError("class data computed for a refused A")

    monkeypatch.setattr(stats, "compute_class_data", no_class_data)
    with pytest.raises(ValueError, match=f"^A = {a} is in the direct-evaluation case"):
        FAMILY_ENTRY_POINTS[name](a)
    # while the progression covers it: Delta(A, 1) = 12A, modulus 12*|A*12A|
    assert family_progression(a, 10**4).modulus_n == 144 * a * a


def test_nh_mean_frozen_value():
    fam = ProgressionFamily(10**4, 44, 48, NEGATIVE)
    assert nh_mean(fam) == Fraction(295, 183)


def test_nh_mean_small_family_by_hand():
    # Ntwo(100, 44, 48) = {-4, -52}; torsion counts 1 and 1
    fam = ProgressionFamily(100, 44, 48, NEGATIVE)
    assert nh_mean(fam) == 1


def test_nh_mean_warns_when_condition_fails():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        nh_mean(ProgressionFamily(100, 3, 6, NEGATIVE))
    assert any("condition" in str(w.message) for w in caught)


def test_nh_mean_over_residue_zero():
    # m ≡ 0 mod N is stored as the residue 0; N = 1 is every negative
    # fundamental discriminant, 305 of them below 1000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert nh_mean(ProgressionFamily(1000, 0, 1, NEGATIVE)) == Fraction(473, 305)
    # the 20 discriminants ≡ 0 mod 4 below 200, where the condition fails
    with pytest.warns(UserWarning, match="condition"):
        assert nh_mean(ProgressionFamily(200, 0, 4, NEGATIVE)) == Fraction(13, 10)


def test_nh_mean_empty_family():
    # |delta| < 3 leaves nothing: -3 is the smallest fundamental discriminant
    with pytest.raises(EmptyFamilyError):
        nh_mean(ProgressionFamily(3, 1, 4, NEGATIVE))


# ---------------------------------------------------------------------------
# Rearrangement check


def test_rearrangement_hand_cases():
    chk = rearrangement_check([1, 1, 1, 3], Fraction(2), 0)
    assert chk.sample_mean == Fraction(3, 2)
    assert chk.small_fraction == Fraction(3, 4)
    assert chk.bound == Fraction(1, 2)
    assert chk.holds

    # mean above the target: vacuously true
    chk = rearrangement_check([9, 9, 9, 9], Fraction(2), 0)
    assert chk.sample_mean == 9 and chk.holds

    # the extreme admissible configuration meets the bound exactly
    chk = rearrangement_check([1, 3, 3], Fraction(7, 3), 0)
    assert chk.small_fraction == chk.bound == Fraction(1, 3)
    assert chk.holds


def test_rearrangement_randomized_with_exact_mean():
    import random

    rng = random.Random(1729)
    for _ in range(300):
        values = [3 ** rng.randint(0, 4) for _ in range(rng.randint(1, 40))]
        k = rng.randint(0, 3)
        mean = Fraction(sum(values), len(values))
        assert rearrangement_check(values, mean, k).holds


def test_rearrangement_rejects_bad_values():
    with pytest.raises(ValueError, match="^values must be nonempty$"):
        rearrangement_check([], 2, 0)
    with pytest.raises(ValueError, match="^value 2 is not a positive power of 3$"):
        rearrangement_check([1, 2], 2, 0)
    # the first bad value in list order is named
    with pytest.raises(ValueError, match="^value 6 is not a positive power of 3$"):
        rearrangement_check([1, 6, 3, 5], 2, 0)
    with pytest.raises(ValueError):
        rearrangement_check([1, -3], 2, 0)
    with pytest.raises(ValueError):
        rearrangement_check([1, 0], 2, 0)


def test_rearrangement_checks_each_distinct_value_once(monkeypatch):
    logs = []
    exact_log = stats.exact_log

    def counted(n, p):
        logs.append(n)
        return exact_log(n, p)

    monkeypatch.setattr(stats, "exact_log", counted)
    chk = rearrangement_check([9, 1, 1, 3, 9, 1, 27, 3], Fraction(6), 1)
    assert logs == [9, 1, 3, 27]
    assert chk.small_fraction == Fraction(5, 8) and chk.sample_mean == Fraction(54, 8)

# ---------------------------------------------------------------------------
# Average Selmer dimension in the family report


def test_average_dimension_report_negative_branch():
    rep = scan_family(-35, 10**5).report
    assert (rep.a, rep.x) == (-35, 10**5)
    assert rep.family_size == 2
    assert rep.avg_selmer_dim == 1
    assert rep.theoretical["average_dimension_bound"] == Fraction(4, 3)
    assert rep.avg_selmer_dim <= rep.theoretical["average_dimension_bound"]


def test_average_dimension_report_positive_branch():
    rep = scan_family(1, 2000).report
    assert rep.theoretical["average_dimension_bound"] == 1
    assert rep.avg_selmer_dim <= 1
