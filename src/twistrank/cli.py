"""Command-line surface: class groups, twist records, family scans, verification.

All commands are deterministic: given identical flags the bytes on stdout are
identical, regardless of --jobs or of a warm versus cold cache.  Exit codes:
0 success, 1 internal failure, 2 validation rejection.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import random
import sys
import time
from collections.abc import Callable
from fractions import Fraction

from . import cache as cache_mod
from .arith import is_squarefree
from .classgroup import (
    ClassGroupSummary,
    analytic_class_number_oracle,
    brute_force_group_structure,
    class_group_summary,
)
from .discriminants import (
    NEGATIVE,
    POSITIVE,
    ProgressionFamily,
    condition_star,
    enumerate_progression,
)
from .selmer import twist_record
from .stats import correspondence_check, family_progression, rearrangement_check, scan_family

CSV_COLUMNS = ("D", "delta", "h", "h3_rank", "selmer_dim", "rank_bound")


def _cache_path(explicit: str | None) -> str | None:
    return explicit or cache_mod.default_path()


# ---------------------------------------------------------------------------
# Commands


def cmd_classgroup(args: argparse.Namespace) -> int:
    s = class_group_summary(args.delta)
    if args.json:
        print(
            json.dumps(
                {
                    "delta": s.delta,
                    "h": s.class_number,
                    "three_torsion": s.three_torsion,
                    "three_rank": s.three_rank,
                },
                sort_keys=True,
            )
        )
    else:
        kind = "class number" if s.delta < 0 else "narrow class number"
        print(f"delta = {s.delta}")
        print(f"h = {s.class_number}  ({kind})")
        print(f"three_torsion = {s.three_torsion}")
        print(f"three_rank = {s.three_rank}")
    return 0


def cmd_twist(args: argparse.Namespace) -> int:
    record = twist_record(args.A, args.D)
    print(json.dumps(record.to_json_dict(), sort_keys=True))
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    path = _cache_path(args.cache)
    supplied = cache_mod.load(path) if path and os.path.exists(path) else {}
    result = scan_family(
        args.A, args.max_x, k=args.k, jobs=args.jobs, class_data=supplied
    )
    if path and result.new_class_data:
        cache_mod.save(path, result.new_class_data)
    text = json.dumps(result.report.to_json_dict(), indent=2, sort_keys=True)
    print(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for rec in result.records:
                h = result.class_data[rec.field_discriminant].class_number
                writer.writerow([
                    rec.d, rec.field_discriminant, h, rec.three_rank, rec.selmer_dim,
                    rec.rank_bound,
                ])
    return 0


def cmd_progression(args: argparse.Namespace) -> int:
    sign = NEGATIVE if args.sign == "negative" else POSITIVE
    family = ProgressionFamily(args.max_x, args.residue, args.modulus, sign)
    for delta in enumerate_progression(family):
        print(delta)
    return 0


# ---------------------------------------------------------------------------
# Verification suites


def _verify_analytic(
    limit: int, summary: Callable[[int], ClassGroupSummary]
) -> tuple[bool, str]:
    checked = 0
    for delta in enumerate_progression(ProgressionFamily(limit, 0, 1, NEGATIVE)):
        if delta in (-3, -4):
            continue
        h = summary(delta).class_number
        if h != analytic_class_number_oracle(delta):
            return False, f"mismatch at delta = {delta}"
        checked += 1
    return True, f"{checked} discriminants, form count = analytic class number"


def _verify_structure(
    limit: int, summary: Callable[[int], ClassGroupSummary]
) -> tuple[bool, str]:
    checked = 0
    for sign in (NEGATIVE, POSITIVE):
        for delta in enumerate_progression(ProgressionFamily(limit + 1, 0, 1, sign)):
            s = summary(delta)
            structure = brute_force_group_structure(delta)
            rank = sum(1 for n in structure if n % 3 == 0)
            if rank != s.three_rank:
                return False, f"3-rank mismatch at delta = {delta}"
            checked += 1
    return True, f"{checked} discriminants, 3-rank = brute-force group structure"


def _verify_correspondence(x: int) -> tuple[bool, str]:
    coefficients = (1, 37, 61, -35)
    for a in coefficients:
        if not correspondence_check(a, x):
            return False, f"bijection fails for A = {a} at X = {x}"
    return True, f"A in {coefficients} at X = {x}"


def _verify_condition(limit: int) -> tuple[bool, str]:
    checked = 0
    for a in [*range(1, limit), *range(-1, -limit, -1)]:
        if a % 36 in (1, 13, 25) and is_squarefree(a):
            # the condition is on (m, N) alone, so any bound X will do
            family = family_progression(a, 1)
            if not condition_star(family.residue_m, family.modulus_n):
                return False, f"condition fails for A = {a}"
            checked += 1
    return True, f"{checked} coefficients with |A| < {limit}"


def _verify_rearrangement(trials: int) -> tuple[bool, str]:
    rng = random.Random(20260823)
    for trial in range(trials):
        n = rng.randint(1, 60)
        values = [3 ** rng.choice((0, 0, 0, 1, 1, 2, 3, 4)) for _ in range(n)]
        k = rng.randint(0, 3)
        mean = Fraction(sum(values), n)
        # bound at or above the sample mean: the inequality must hold
        binding = rearrangement_check(values, mean, k)
        # bound below the sample mean: vacuous, so it must also hold
        vacuous = rearrangement_check(values, mean - Fraction(1, 10**6), k)
        if not (binding.holds and vacuous.holds):
            return False, f"failed on trial {trial}"
    return True, f"{trials} randomized samples"


def _verify_cache(path: str | None) -> tuple[bool, str]:
    if path is None:
        return True, "no cache configured, skipped"
    if not os.path.exists(path):
        return True, f"{path} does not exist yet, skipped"
    kept, quarantined = cache_mod.quarantine(path)
    if quarantined:
        return True, (
            f"quarantined {quarantined} corrupt line(s) to {path}.quarantined, "
            f"kept {kept} entries"
        )
    return True, f"{kept} entries, all valid"


def cmd_verify(args: argparse.Namespace) -> int:
    full = args.level == "full"
    # the two class-group suites share one summary per discriminant
    summary = functools.cache(class_group_summary)
    suites = (
        ("analytic class numbers", _verify_analytic, (10**4 if full else 2000, summary)),
        ("group structures", _verify_structure, (2000, summary)),
        ("twist correspondence", _verify_correspondence, (10**5 if full else 10**4,)),
        ("progression condition", _verify_condition, (2000,)),
        ("rearrangement bound", _verify_rearrangement, (1000,)),
        ("cache integrity", _verify_cache, (_cache_path(args.cache),)),
    )
    failures = 0
    for name, fn, fn_args in suites:
        start = time.perf_counter()
        ok, detail = fn(*fn_args)
        elapsed = time.perf_counter() - start
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        # timings go to stderr, so stdout stays byte-identical from run to run
        print(f"time {name}: {elapsed:.3f}s", file=sys.stderr)
    print(f"{len(suites) - failures}/{len(suites)} suites passed ({args.level})")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistrank",
        description=(
            "Certified Mordell-Weil rank bounds for quadratic twists "
            "y^2 = x^3 - A*D^3 via 3-class-group computations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "classgroup", help="class number and 3-torsion of a fundamental discriminant"
    )
    p.add_argument("delta", type=int, help="fundamental discriminant (narrow group if > 0)")
    p.add_argument("--json", action="store_true", help="emit a JSON object instead of text")
    p.set_defaults(func=cmd_classgroup)

    p = sub.add_parser("twist", help="certified record for one twist (A, D)")
    p.add_argument("A", type=int, help="square-free A with A ≡ 1, 13, or 25 mod 36")
    p.add_argument("D", type=int, help="square-free D ≡ 1 mod 12 coprime to A")
    p.set_defaults(func=cmd_twist)

    p = sub.add_parser("scan", help="scan the twist family of A and report statistics")
    p.add_argument("A", type=int, help="square-free A ≡ 1 or 25 mod 36")
    p.add_argument("--max-x", type=int, required=True, metavar="X",
                   help="discriminant bound X; twists use D < X/(4|A|)")
    p.add_argument("--k", type=int, default=0,
                   help="rank threshold: certify rank <= 2k (default 0)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for class-group computation (default 1)")
    p.add_argument("--cache", metavar="PATH",
                   help=f"class-data cache file (default ${cache_mod.CACHE_ENV_VAR})")
    p.add_argument("--report", metavar="PATH", help="also write the report JSON here")
    p.add_argument("--trace", metavar="PATH",
                   help="write a per-twist CSV trace with columns "
                        + ",".join(CSV_COLUMNS))
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser(
        "progression",
        help="list fundamental discriminants ≡ m mod N with |delta| < X",
    )
    p.add_argument("max_x", type=int, help="bound X on |delta|")
    p.add_argument("residue", type=int, help="residue m")
    p.add_argument("modulus", type=int, help="modulus N")
    p.add_argument("--sign", choices=("negative", "positive"), default="negative",
                   help="sign of the discriminants (default negative)")
    p.set_defaults(func=cmd_progression)

    p = sub.add_parser("verify", help="run the self-verification suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick",
                   help="quick: |delta| <= 2000 cross-checks; full: analytic "
                        "cross-check to 10^4 and correspondence at X = 10^5")
    p.add_argument("--cache", metavar="PATH",
                   help="cache file to validate and, if needed, quarantine")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failures
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
