"""Acceptance criteria: ten end-to-end checks at their stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s) and then
asserts.  Frozen values marked "frozen" below were produced by independent
brute-force runs before being recorded here.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import twistrank
from twistrank import cache as cache_mod
from twistrank.arith import is_squarefree
from twistrank.classgroup import (
    analytic_class_number_oracle,
    brute_force_group_structure,
    class_group_summary,
)
from twistrank.discriminants import NEGATIVE, ProgressionFamily, condition_star, is_fundamental
from twistrank.stats import (
    certified_density_bound,
    correspondence_check,
    density_constant,
    low_rank_factor,
    nh_mean,
    rearrangement_check,
    scan_family,
)

JOBS = min(4, os.cpu_count() or 1)


def report(ok: bool, name: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def big_scan():
    """A = 1 scanned to X = 4*10^5 (D < 10^5), shared by criteria 6 and 7."""
    start = time.monotonic()
    result = scan_family(1, 4 * 10**5, jobs=JOBS)
    return result, time.monotonic() - start


def test_criterion_01_class_number_oracle_equivalence():
    """Form count equals the analytic class number for -10^4 < delta < -4."""
    start = time.monotonic()
    checked = 0
    for delta in range(-5, -10**4, -1):
        if not is_fundamental(delta):
            continue
        if class_group_summary(delta).class_number != analytic_class_number_oracle(delta):
            report(False, "criterion 1", f"mismatch at delta = {delta}")
        checked += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 120
    report(ok, "criterion 1", f"{checked} discriminants agree in {elapsed:.1f}s (< 120s)")


def test_criterion_02_group_structure_oracle():
    """3-rank from the torsion count equals the brute-force 3-part, |delta| <= 2000."""
    start = time.monotonic()
    checked = 0
    for delta in list(range(-3, -2001, -1)) + list(range(5, 2001)):
        if not is_fundamental(delta):
            continue
        s = class_group_summary(delta)
        rank = sum(1 for n in brute_force_group_structure(delta) if n % 3 == 0)
        if rank != s.three_rank:
            report(False, "criterion 2", f"mismatch at delta = {delta}")
        checked += 1
    elapsed = time.monotonic() - start
    ok = elapsed < 300
    report(ok, "criterion 2", f"{checked} discriminants agree in {elapsed:.1f}s (< 300s)")


def test_criterion_03_exact_constants():
    """Rational constants match hand values and an independent factor oracle."""

    def naive_constant(a):
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

    ok = low_rank_factor(0) == Fraction(1, 2)
    ok = ok and low_rank_factor(1) == Fraction(7, 8)
    ok = ok and certified_density_bound(1, 0) == Fraction(1, 16)
    sampled = []
    for a in range(1, 10**4):
        for signed in (a, -a):
            if signed % 36 in (1, 25) and is_squarefree(signed):
                sampled.append(signed)
        if len(sampled) >= 20:
            break
    sampled = sampled[:20]
    for a in sampled:
        ok = ok and density_constant(a) == naive_constant(a)
    report(ok, "criterion 3", f"delta_0 = 1/2, bound(1, 0) = 1/16, {len(sampled)} sampled constants")


def test_criterion_04_progression_condition():
    """The (m, N) admissibility condition holds for every valid |A| < 2000."""
    checked = 0
    for a in range(1, 2000):
        if a % 36 in (1, 13, 25) and is_squarefree(a):
            if not condition_star(48 * a * a - 4 * a, 48 * a * a):
                report(False, "criterion 4", f"fails at A = {a}")
            checked += 1
    for a in range(-1, -2000, -1):
        if a % 36 in (1, 13, 25) and is_squarefree(a):
            if not condition_star(-4 * a, 48 * a * a):
                report(False, "criterion 4", f"fails at A = {a}")
            checked += 1
    report(True, "criterion 4", f"{checked} coefficients admissible")


def test_criterion_05_bijection():
    """D -> -4AD is a bijection onto the progression family at X = 10^5."""
    start = time.monotonic()
    for a in (1, 37, 61, -35):
        if not correspondence_check(a, 10**5):
            report(False, "criterion 5", f"fails for A = {a}")
    elapsed = time.monotonic() - start
    ok = elapsed < 60
    report(ok, "criterion 5", f"A in (1, 37, 61, -35) at X = 10^5 in {elapsed:.1f}s (< 60s)")


def test_criterion_06_low_rank_density(big_scan):
    """Certified rank-0 proportion at X = 4*10^5 meets the 1/16 bound."""
    result, elapsed = big_scan
    r = result.report
    # frozen desk-scale values from the independent single-threaded run
    dist = {}
    for rec in result.records:
        dist[rec.rank_bound] = dist.get(rec.rank_bound, 0) + 1
    ok = r.family_size == 7584
    ok = ok and r.squarefree_count == 60794
    ok = ok and dist == {0: 4635, 2: 2880, 4: 69}
    ok = ok and r.certified_proportion_per_k[0] == Fraction(4635, 60794)
    ok = ok and r.h3_mean == Fraction(579, 316)
    proportion = r.certified_proportion_per_k[0]
    ok = ok and proportion >= Fraction(1, 16)
    ok = ok and elapsed < 600
    report(
        ok,
        "criterion 6",
        f"proportion {float(proportion):.4f} >= 0.0625 over {r.squarefree_count} "
        f"squarefree D, scan in {elapsed:.1f}s (< 600s)",
    )


def test_criterion_07_average_dimension(big_scan):
    """Average Selmer dimension under its asymptotic bound, both branches."""
    result, _ = big_scan
    rep_pos = result.report
    rep_neg = scan_family(-35, 10**5).report
    ok = rep_pos.avg_selmer_dim == Fraction(503, 632)  # frozen
    ok = ok and rep_pos.avg_selmer_dim <= 1
    ok = ok and rep_pos.theoretical["average_dimension_bound"] == 1
    ok = ok and rep_neg.avg_selmer_dim == 1  # frozen
    ok = ok and rep_neg.avg_selmer_dim <= Fraction(4, 3)
    ok = ok and rep_neg.theoretical["average_dimension_bound"] == Fraction(4, 3)
    report(
        ok,
        "criterion 7",
        f"A=1 avg {float(rep_pos.avg_selmer_dim):.4f} <= 1; "
        f"A=-35 avg {float(rep_neg.avg_selmer_dim):.4f} <= 4/3",
    )


def test_criterion_08_progression_mean_trend():
    """3-torsion means over the -4 mod 48 progression sit in the expected band."""
    mean_4 = nh_mean(ProgressionFamily(10**4, 44, 48, NEGATIVE))
    mean_5 = nh_mean(ProgressionFamily(10**5, 44, 48, NEGATIVE))
    ok = mean_4 == Fraction(295, 183)  # frozen, 183 members
    ok = ok and mean_5 == Fraction(3395, 1887)  # frozen, 1887 members
    for mean in (mean_4, mean_5):
        ok = ok and Fraction(13, 10) < mean < 2
    ok = ok and mean_5 >= mean_4 - Fraction(1, 20)
    report(
        ok,
        "criterion 8",
        f"mean(10^4) = {float(mean_4):.4f}, mean(10^5) = {float(mean_5):.4f}, "
        "both in (1.3, 2.0), non-decreasing within 0.05",
    )


def test_criterion_09_rearrangement_harness():
    """The finite-sample rearrangement inequality holds for 10^3 random lists."""
    rng = random.Random(97)
    start = time.monotonic()
    for trial in range(1000):
        values = [3 ** rng.randint(0, 4) for _ in range(rng.randint(1, 50))]
        k = rng.randint(0, 3)
        mean = Fraction(sum(values), len(values))
        if not rearrangement_check(values, mean, k).holds:
            report(False, "criterion 9", f"violated on trial {trial}")
    elapsed = time.monotonic() - start
    ok = elapsed < 1.0
    report(ok, "criterion 9", f"1000 lists in {elapsed * 1000:.0f}ms (< 1s)")


def test_criterion_10_scan_determinism(tmp_path):
    """scan 1 --max-x 400 emits identical bytes across --jobs and cache states."""
    env = dict(os.environ)
    env.pop("TWISTRANK_CACHE", None)
    # The children run in tmp_path, where a relative PYTHONPATH entry such as
    # "src" no longer resolves; point them at the very twistrank imported here.
    package_root = str(Path(twistrank.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root, *filter(None, env.get("PYTHONPATH", "").split(os.pathsep))]
    )
    cache_file = str(tmp_path / "c.ndjson")
    outputs = set()
    runs = (
        ["--jobs", "1"],
        ["--jobs", "2"],
        ["--jobs", "8"],
        ["--cache", cache_file],  # cold
        ["--cache", cache_file],  # warm
    )
    for i, extra in enumerate(runs):
        proc = subprocess.run(
            [sys.executable, "-m", "twistrank.cli", "scan", "1", "--max-x", "400", *extra],
            capture_output=True,
            env=env,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.add(proc.stdout)
        if i == 3:  # the cold run must leave a filled cache for the warm one
            assert os.path.exists(cache_file), "cold --cache run wrote no cache"
            assert cache_mod.load(cache_file), "cold --cache run wrote an empty cache"
    ok = len(outputs) == 1
    report(ok, "criterion 10", f"{len(runs)} runs, {len(outputs)} distinct output(s)")
    scan_report = json.loads(outputs.pop())
    assert (scan_report["A"], scan_report["X"]) == (1, 400), scan_report
