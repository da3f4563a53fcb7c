"""Command-line surface: class groups, twist records, family scans, verification.

All commands are deterministic: given identical flags the bytes on stdout are
identical, regardless of --jobs or of a warm versus cold cache.  Exit codes:
0 success, 1 internal failure, 2 validation rejection.

A process enters through run(), which freezes the heap once main() has
returned, so interpreter teardown collects none of what the command left
behind; main() leaves the collector alone, as it is also called in-process.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import cache as cache_mod
from . import classgroup
from .arith import exact_log
from .classgroup import (
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
from .selmer import NotSquareFree, ValidationError, _dimension, twist_record
from .stats import (
    _MAX_K,
    ScanResult,
    correspondence_check,
    family_progression,
    rearrangement_check,
    scan_family,
)

CSV_COLUMNS = ("D", "delta", "h", "h3_rank", "selmer_dim", "rank_bound")


def _refuse_path(name: str, target: str) -> None:
    """Refuse a file path that names an existing directory: it could be neither
    read nor written as a file.  An existing cache must be a regular file:
    reading a FIFO blocks, and the atomic rewrite would replace a device."""
    if os.path.isdir(target):
        raise ValueError(f"{name} path {target} is a directory")
    if name == "cache" and os.path.exists(target) and not os.path.isfile(target):
        raise ValueError(f"cache path {target} is not a regular file")


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
    path = args.cache or cache_mod.default_path()
    # refused before any class group is computed: the cache, the report and
    # the trace are all written after the scan, each to its own file, and
    # through a symlink into the directory of its target
    named = {}
    for name, target in (("cache", path), ("report", args.report), ("trace", args.trace)):
        if target:
            _refuse_path(name, target)
            resolved = os.path.realpath(target)
            directory = os.path.dirname(resolved)
            if not os.path.isdir(directory):
                raise ValueError(f"{name} directory {directory} does not exist")
            # one file: one inode (as os.path.samefile) or one path yet to be made
            st = os.stat(resolved) if os.path.exists(resolved) else None
            key = (st.st_dev, st.st_ino) if st else resolved
            if key in named:
                raise ValueError(f"{named[key]} and {name} path {target} name one file")
            named[key] = f"{name} path {target}"
    known = cache_mod.load(path) if path and os.path.exists(path) else None
    result = scan_family(args.A, args.max_x, k=args.k, jobs=args.jobs, class_data=known)
    if path and result.new_class_data:
        cache_mod.save(path, result.new_class_data)
    text = json.dumps(result.report.to_json_dict(), indent=2, sort_keys=True)
    print(text)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.trace:
        _write_trace(args.trace, result)
    return 0


def _write_trace(path: str, result: ScanResult) -> None:
    """The per-twist CSV, one row per D in scan order, from the class-data
    arrays.  The bytes are csv.writer's: CRLF line ends, and no quoting, as
    no field holds a comma, quote or line break."""
    case, base = result.case, result.base
    # h3_rank, selmer_dim and rank_bound depend on a row through its 3-torsion
    tails = {}
    for torsion in set(result.three_torsion):
        r = exact_log(torsion, 3)
        dim = _dimension(case, r)
        tails[torsion] = f",{r},{dim},{dim}\r\n"
    rows = zip(result.parameters, result.class_numbers, result.three_torsion)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        fh.writelines(f"{d},{d * base},{h}{tails[t]}" for d, h, t in rows)


def cmd_progression(args: argparse.Namespace) -> int:
    sign = NEGATIVE if args.sign == "negative" else POSITIVE
    family = ProgressionFamily(args.max_x, args.residue, args.modulus, sign)
    for delta in enumerate_progression(family):
        print(delta)
    return 0


# ---------------------------------------------------------------------------
# Verification suites


def _verify_analytic(limit: int) -> tuple[bool, str]:
    deltas = [
        d for d in enumerate_progression(ProgressionFamily(limit, 0, 1, NEGATIVE))
        if d not in (-3, -4)
    ]
    # the sweep that gives scans their negative-delta class numbers; the
    # 3-torsion is the structure suite's to check
    swept = classgroup._definite_class_numbers(deltas, classgroup._sweep_window(deltas))
    for delta, h in zip(deltas, swept):
        if h != analytic_class_number_oracle(delta):
            return False, f"mismatch at delta = {delta}"
    return True, f"{len(deltas)} discriminants, form count = analytic class number"


def _verify_structure(limit: int) -> tuple[bool, str]:
    deltas = [
        d
        for sign in (NEGATIVE, POSITIVE)
        for d in enumerate_progression(ProgressionFamily(limit + 1, 0, 1, sign))
    ]
    class_numbers, three_torsion = classgroup.compute_class_data(deltas)
    for delta, h, torsion in zip(deltas, class_numbers, three_torsion):
        structure = brute_force_group_structure(delta)
        if math.prod(structure) != h:
            return False, f"class number mismatch at delta = {delta}"
        if sum(1 for n in structure if n % 3 == 0) != exact_log(torsion, 3):
            return False, f"3-rank mismatch at delta = {delta}"
    return True, f"{len(deltas)} discriminants, 3-rank = brute-force group structure"


def _verify_correspondence(x: int) -> tuple[bool, str]:
    coefficients = (1, 37, 61, -35)
    for a in coefficients:
        if not correspondence_check(a, x):
            return False, f"bijection fails for A = {a} at X = {x}"
    return True, f"A in {coefficients} at X = {x}"


def _verify_condition(limit: int) -> tuple[bool, str]:
    checked = 0
    for a in [*range(1, limit), *range(-1, -limit, -1)]:
        if a % 36 not in (1, 13, 25):
            continue
        # the condition is on (m, N) alone, so any bound X will do; A is
        # factored once, by the family itself
        try:
            family = family_progression(a, 1)
        except NotSquareFree:
            continue
        except ValidationError as exc:
            return False, f"A = {a} refused: {exc}"
        if not condition_star(family.residue_m, family.modulus_n):
            return False, f"condition fails for A = {a}"
        checked += 1
    return True, f"{checked} coefficients with |A| < {limit}"


def _verify_rearrangement(trials: int) -> tuple[bool, str]:
    # imported here, as only this suite needs it (about 1 ms for every scan)
    import random

    rng = random.Random(20260823)
    for trial in range(trials):
        n = rng.randint(1, 60)
        values = rng.choices((1, 1, 1, 3, 3, 9, 27, 81), k=n)
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
    path = args.cache or cache_mod.default_path()
    # refused before the first suite runs, so stdout stays empty
    if path:
        _refuse_path("cache", path)
    suites = (
        ("analytic class numbers", _verify_analytic, (10**4 if full else 2000,)),
        ("group structures", _verify_structure, (2000,)),
        ("twist correspondence", _verify_correspondence, (10**5 if full else 10**4,)),
        ("progression condition", _verify_condition, (2000,)),
        ("rearrangement bound", _verify_rearrangement, (1000,)),
        ("cache integrity", _verify_cache, (path,)),
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
                   help=f"rank threshold: certify rank <= 2k (default 0); at most "
                        f"{_MAX_K}, which certifies every twist below the scan limit")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for class-group computation, at most "
                        "the number of CPUs (default 1)")
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


def run(argv=None) -> int:
    """The process entry, of `python -m twistrank.cli` and the `twistrank`
    script: main(argv), then gc.freeze().  The freeze moves every object the
    command left behind into the permanent generation, so the collections of
    interpreter teardown walk none of them (about 8 ms, and 16 ms in verify,
    whose analytic oracle loads numpy); atexit handlers, the flush of stdout
    and stderr and module clearing still run, and every file a command
    writes is closed before main returns.  main itself never touches the
    collector: the tests and the benchmark's tracer call it in a process
    that goes on working."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
