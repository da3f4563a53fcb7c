"""Family-scan benchmark for twistrank.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --freeze        # rewrite perfbench/reference.json

Every timed invocation runs the `twistrank` CLI in a child process, the way
users run it: `python3 -m twistrank.cli ...` with `--jobs 1`, an absolute
`PYTHONPATH` to this checkout's `src`, no `TWISTRANK_CACHE`, and a fresh
working directory under `.perfbench_work/` that is removed afterwards.  Each
child is reaped with `os.wait4`, so its peak RSS is its own.  The run keeps
to one CPU, and every child is paused four times a second for a host-speed
probe on that CPU; times are reported at the reference host speed (see
HOST_REF_S).

Workloads (see perfbench/README.md for why each was chosen):

  imag-cold    scan 1 --max-x X --cache <fresh empty file>, X near 4*10^5
  real-cold    scan -35 --max-x X --trace T, X near 10^7
  warm-rescan  set-up fills a cache with the imag-cold command; the timed
               phase rescans with --report/--trace on and off, in an order
               set by the seed
  verify-full  verify --level full

The seed picks X from a fixed set within 0.5% of the canonical bound (seed 0
is canonical).  The timed phase repeats passes until the next one would end
after --seconds, at least one pass.  An invocation fails when it exits
non-zero, when its stdout, report, --trace CSV or cache differs from the
digest frozen in reference.json, or when a scan's family size and square-free
count disagree with this file's own count; at the canonical X of imag-cold
the report must also carry the acceptance criteria's exact values.

With --trace 1 the run adds one traced invocation (perfbench/tracer.py) and
reports the per-layer metrics named in BENCHMARK.json.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from math import isqrt
from pathlib import Path
from typing import Callable

from tracer import SPANNED

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
TRACER = HERE / "tracer.py"

# Nearby bounds, canonical first; each has digests frozen in reference.json.
IMAG_X = (400_000, 399_000, 401_000, 398_000, 402_000)
REAL_X = (10_000_000, 9_950_000, 10_050_000, 9_900_000, 10_100_000)

# Exact report values the acceptance criteria freeze for scan 1 --max-x 4*10^5.
IMAG_ACCEPTANCE = {
    "family_size": 7584,
    "squarefree_count": 60794,
    "rank0_proportion": "4635/60794",
    "h3_mean": "579/316",
}

SETUP_ROUNDS = 5
RUN_LIMIT_S = 170.0  # the whole run, set-up included, must end before this

# The host lends this guest part of a shared machine, and the CPU speed one
# process gets drifts by up to 60% over seconds to minutes, for the CLI and
# any other Python code alike (CPU time equals wall time, so it is not
# waiting).  So every child is paused every PROBE_EVERY_S for a host probe, a
# fixed pure-Python workload that does not touch twistrank, run on the same
# CPU; every time metric is the child's running time scaled by HOST_REF_S /
# (its mean probe time): seconds at the reference host speed.  A slower
# program still reads slower by the same factor; a slower host mostly does
# not.  HOST_REF_S is the probe's median on the machine in perfbench/README.md.
PROBE_EVERY_S = 0.25
HOST_PROBE_ROUNDS = 10_000
HOST_REF_S = 0.0095

CACHE = "cache.ndjson"
REPORT = "report.json"
TRACE_CSV = "trace.csv"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def family_counts(a: int, x: int) -> tuple[int, int]:
    """(twists, square-free integers in [1, d_max]) for the family of A at X,
    counted here independently of twistrank."""
    d_max = (x - 1) // (4 * abs(a))
    squarefree = bytearray([1]) * (d_max + 1)
    squarefree[0] = 0
    for p in range(2, isqrt(d_max) + 1):
        squarefree[p * p :: p * p] = bytes(len(range(p * p, d_max + 1, p * p)))
    twists = sum(squarefree[d] for d in range(1, d_max + 1, 12 * abs(a)))
    return twists, sum(squarefree)


def host_probe() -> float:
    """Seconds this process takes for a fixed pure-Python integer workload
    (a gcd per round, like the program's composition loops)."""
    start = time.perf_counter()
    x = 1
    for _ in range(HOST_PROBE_ROUNDS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a, b = x, 1_000_003
        while b:
            a, b = b, a % b
    return time.perf_counter() - start


def hermetic_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("TWISTRANK_CACHE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Call:
    seconds: float  # wall time the child ran, without the probe pauses
    host_s: float  # mean host probe just before and during the child
    returncode: int
    rss_mb: float
    stdout: Path

    @property
    def scaled(self) -> float:
        """Running time at the reference host speed."""
        return self.seconds * HOST_REF_S / self.host_s


def spawn(cmd: list[str], cwd: Path, deadline: float) -> Call:
    """Run one child to completion, pausing it every PROBE_EVERY_S for a host
    probe, and collect its own rusage."""
    out = cwd / "stdout"
    probes = [host_probe()]
    paused = 0.0
    with open(out, "wb") as fh_out, open(cwd / "stderr", "wb") as fh_err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=hermetic_env(), stdout=fh_out, stderr=fh_err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.poll()
            exited.register(pidfd, select.POLLIN)
            while not exited.poll(PROBE_EVERY_S * 1000):
                if time.monotonic() > deadline:
                    proc.kill()
                    break
                paused_at = time.perf_counter()
                os.kill(proc.pid, signal.SIGSTOP)
                state = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                if state.si_code != os.CLD_STOPPED:
                    break
                probes.append(host_probe())
                os.kill(proc.pid, signal.SIGCONT)
                paused += time.perf_counter() - paused_at
            end = time.perf_counter()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()  # also ends a stopped child
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(
        end - start - paused, statistics.fmean(probes), proc.returncode,
        usage.ru_maxrss / 1024.0, out,
    )


# ---------------------------------------------------------------------------
# Invocations and their checks


@dataclass
class Invocation:
    """One CLI invocation of a workload, with the checks its outputs must pass."""

    argv: list[str]
    ops: int  # twists certified, or 1 for verify
    expect: dict[str, str]  # file name (or "stdout") -> frozen SHA-256
    report_values: dict | None = None  # scans: independent and frozen report values
    verify_tail: bool = False
    fresh_cache: bool = False
    variant: str = ""

    def prepare(self, cwd: Path) -> None:
        for name in (REPORT, TRACE_CSV):
            (cwd / name).unlink(missing_ok=True)
        if self.fresh_cache:
            (cwd / CACHE).write_bytes(b"")

    def problems(self, call: Call, cwd: Path) -> list[str]:
        if call.returncode != 0:
            err = (cwd / "stderr").read_text(errors="replace").strip()[-300:]
            return [f"exit code {call.returncode}: {err}"]
        out = []
        for name, digest in self.expect.items():
            path = call.stdout if name == "stdout" else cwd / name
            if not path.exists():
                out.append(f"{name} missing")
            elif sha256(path) != digest:
                out.append(f"{name} differs from the frozen SHA-256")
        if REPORT in self.argv and (cwd / REPORT).read_bytes() != call.stdout.read_bytes():
            out.append("report file differs from stdout")
        if self.report_values is not None:
            out += check_report(call.stdout, self.report_values)
        if self.verify_tail:
            lines = call.stdout.read_text().strip().splitlines()
            if not lines or not lines[-1].startswith("6/6 suites passed"):
                out.append("verify did not end with '6/6 suites passed'")
        return out


def check_report(stdout: Path, expected: dict) -> list[str]:
    try:
        report = json.loads(stdout.read_text())
        values = {
            "family_size": report["family_size"],
            "squarefree_count": report["squarefree_count"],
            "rank0_proportion": report["certified_proportion_per_k"]["0"]["exact"],
            "h3_mean": report["h3_mean"]["exact"],
        }
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report unreadable: {exc!r}"]
    return [
        f"report {key} = {values[key]!r}, expected {want!r}"
        for key, want in expected.items()
        if values[key] != want
    ]


def scan_argv(a: int, x: int, *extra: str) -> list[str]:
    return ["scan", str(a), "--max-x", str(x), "--jobs", "1", *extra]


def imag_invocation(x: int, ref: dict | None, **kwargs) -> Invocation:
    twists, squarefree = family_counts(1, x)
    values = {"family_size": twists, "squarefree_count": squarefree}
    if x == IMAG_X[0]:
        values.update(IMAG_ACCEPTANCE)
    return Invocation(
        argv=scan_argv(1, x, "--cache", CACHE),
        ops=twists,
        expect={"stdout": ref["stdout"], CACHE: ref["cache"]} if ref else {},
        report_values=values,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Workload:
    """Set-up invocations (run once), a source of timed passes, and the
    invocation that a --trace 1 run repeats under the tracer."""

    describe: str
    setup: list[Invocation]
    next_pass: Callable[[], list[Invocation]]
    traced: Invocation


def build_workload(name: str, seed: int, ref: dict) -> Workload:
    if name == "imag-cold":
        x = IMAG_X[seed % len(IMAG_X)]
        inv = imag_invocation(x, ref["imag"][str(x)], fresh_cache=True)
        return Workload(f"scan 1 --max-x {x}, cold cache", [], lambda: [inv], inv)
    if name == "real-cold":
        x = REAL_X[seed % len(REAL_X)]
        twists, squarefree = family_counts(-35, x)
        r = ref["real"][str(x)]
        inv = Invocation(
            argv=scan_argv(-35, x, "--trace", TRACE_CSV),
            ops=twists,
            expect={"stdout": r["stdout"], TRACE_CSV: r["trace"]},
            report_values={"family_size": twists, "squarefree_count": squarefree},
        )
        return Workload(f"scan -35 --max-x {x}, no cache", [], lambda: [inv], inv)
    if name == "warm-rescan":
        x = IMAG_X[seed % len(IMAG_X)]
        r = ref["imag"][str(x)]
        fill = imag_invocation(x, r, fresh_cache=True, variant="fill")
        variants = {}
        for report in (False, True):
            for trace in (False, True):
                extra = [*(["--report", REPORT] if report else []),
                         *(["--trace", TRACE_CSV] if trace else [])]
                inv = imag_invocation(x, r, variant=" ".join(extra) or "plain")
                inv.argv += extra
                if trace:
                    inv.expect[TRACE_CSV] = r["trace"]
                variants[inv.variant] = inv
        order = random.Random(seed)

        def next_pass() -> list[Invocation]:
            invs = list(variants.values())
            order.shuffle(invs)
            return invs

        traced = variants[f"--report {REPORT} --trace {TRACE_CSV}"]
        return Workload(f"scan 1 --max-x {x}, warm cache", [fill], next_pass, traced)
    if name == "verify-full":
        inv = Invocation(
            argv=["verify", "--level", "full"],
            ops=1,
            expect={"stdout": ref["verify"]["stdout"]},
            verify_tail=True,
        )
        return Workload("verify --level full", [], lambda: [inv], inv)
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("imag-cold", "real-cold", "warm-rescan", "verify-full")


# ---------------------------------------------------------------------------
# A run


@dataclass
class Run:
    workdir: Path
    deadline: float
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def invoke(self, inv: Invocation, cmd_prefix: list[str] | None = None) -> Call:
        inv.prepare(self.workdir)
        prefix = cmd_prefix or [sys.executable, "-m", "twistrank.cli"]
        call = spawn([*prefix, *inv.argv], self.workdir, self.deadline)
        self.attempted += 1
        found = inv.problems(call, self.workdir)
        if found:
            self.failed += 1
            self.problems += [f"{' '.join(inv.argv)}: {p}" for p in found]
        return call

    def import_probe(self) -> Call:
        probe = self.workdir / "probe"
        probe.mkdir()
        try:
            call = spawn([sys.executable, "-c", "import twistrank.cli"], probe, self.deadline)
        finally:
            shutil.rmtree(probe)
        if call.returncode != 0:
            raise RuntimeError("python3 -c 'import twistrank.cli' failed in the hermetic env")
        return call


def machine() -> str:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (
        f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
        f"numpy={metadata.version('numpy')}"
    )


def measure(workload: Workload, run: Run, seconds: float, trace: bool) -> dict:
    # Set-up: SETUP_ROUNDS fresh-directory import probes (the first also
    # byte-compiles the package), plus the workload's own preparation, which
    # for warm-rescan is a whole cold scan and so runs once.
    probes = [run.import_probe() for _ in range(SETUP_ROUNDS)]
    prep = [run.invoke(inv) for inv in workload.setup]
    setup_s = statistics.median(c.scaled for c in probes) + sum(c.scaled for c in prep)
    setup_raw = statistics.median(c.seconds for c in probes) + sum(c.seconds for c in prep)

    # Timed phase: passes until the next one would end after --seconds,
    # judged by the last one; at least one pass.
    calls: list[tuple[str, Call]] = []
    pass_s, pass_raw, pass_ops = [], [], []
    timed_start = time.monotonic()
    last = 0.0
    while not pass_s or (
        time.monotonic() + last - timed_start <= seconds
        and time.monotonic() + last * 1.5 < run.deadline
    ):
        began = time.monotonic()
        done = [(inv, run.invoke(inv)) for inv in workload.next_pass()]
        last = time.monotonic() - began
        calls += [(inv.variant, call) for inv, call in done]
        pass_s.append(sum(call.scaled for _, call in done))
        pass_raw.append(sum(call.seconds for _, call in done))
        pass_ops.append(sum(inv.ops for inv, _ in done))

    times = [c.scaled for _, c in calls]
    host = [c.host_s for c in [*probes, *prep, *(c for _, c in calls)]]
    e2e = {
        "setup_s": setup_s,
        "wall_s": statistics.median(pass_s),
        "ops_per_s": sum(pass_ops) / sum(pass_s),
        "call_p50_s": statistics.median(times),
        "peak_rss_mb": max(c.rss_mb for _, c in calls),
        "fail_ratio": run.failed / run.attempted,
    }
    info = {
        "passes": len(pass_s),
        "calls": len(times),
        "call_min_s": min(times),
        "call_max_s": max(times),
        "setup_raw_s": setup_raw,
        "wall_raw_s": statistics.median(pass_raw),
        "host_probe_s": statistics.median(host),
        "host_probe_min_s": min(host),
        "host_probe_max_s": max(host),
    }
    layers = None
    if trace:
        inv = workload.traced
        spans_file = run.workdir / "spans.json"
        call = run.invoke(inv, [sys.executable, str(TRACER), str(spans_file)])
        same = [c.scaled for v, c in calls if v == inv.variant]
        # a killed tracer leaves no spans; its failure is already counted
        dump = json.loads(spans_file.read_text()) if spans_file.exists() else {}
        layers = layer_metrics(dump.get("spans", []), Counter(dump.get("tallies", {})))
        cache = run.workdir / CACHE
        layers["cache.file_bytes"] = cache.stat().st_size if CACHE in inv.argv else 0
        layers["cli.import_s"] = statistics.median(c.scaled for c in probes)
        layers["trace.overhead_s"] = call.scaled - statistics.median(same)
        layers["host.probe_s"] = info["host_probe_s"]
        info["traced_s"] = call.scaled
    return {"e2e": e2e, "info": info, "layers": layers}


def layer_metrics(spans: list, tallies: Counter) -> dict:
    """Per-layer counts and times from the tracer's spans and tallies."""
    calls: Counter[str] = Counter()
    inclusive: defaultdict[str, float] = defaultdict(float)
    self_s: defaultdict[str, float] = defaultdict(float)
    children = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - children[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:  # outermost span of this name: count its time once
            inclusive[name] += end - start

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    twists = tallies["stats.scan_family.twists"]
    out = {
        "classgroup.forms_enumerated": tallies["classgroup.reduced_forms.forms"],
        "arith.xgcd.calls": tallies["arith.xgcd.calls"],
        "classgroup.h_div3_share": ratio(
            tallies["classgroup.class_group_summary.h_div3"],
            calls["classgroup.class_group_summary"],
        ),
        "classgroup.torsion_hit_ratio": ratio(
            tallies["classgroup.class_group_summary.three_torsion"],
            tallies["classgroup.class_group_summary.h"],
        ),
        "cache.load.entries": tallies["cache.load.entries"],
        "cache.save.entries": tallies["cache.save.entries"],
        "cache.hit_ratio": ratio(twists - tallies["stats.compute_class_data.computed"], twists),
    }
    # Layer times are shares of cli.main: a layer a workload never runs reads
    # exactly 0, and a share cancels the host's swings in CPU speed.
    main_s = inclusive["cli.main"]
    out["cli.main.s"] = main_s
    for module, functions in SPANNED.items():
        for fn in functions:
            name = f"{module}.{fn}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.share"] = ratio(inclusive[name], main_s)
            out[f"{name}.self_share"] = ratio(self_s[name], main_s)
    out["counts_text"] = (
        f"h with 3 | h: {tallies['classgroup.class_group_summary.h_div3']}"
        f"/{calls['classgroup.class_group_summary']}, 3-torsion/h: "
        f"{tallies['classgroup.class_group_summary.three_torsion']}"
        f"/{tallies['classgroup.class_group_summary.h']}"
    )
    return out


# ---------------------------------------------------------------------------
# Freezing the reference digests


def freeze() -> int:
    """Recompute reference.json from the program as it stands.

    Refuses to freeze unless every invocation succeeds, the independent
    family counts agree, and the canonical imag-cold report carries the
    acceptance values.
    """
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK, prefix="freeze-"))
    run = Run(workdir, deadline=time.monotonic() + 3600.0)
    ref: dict = {"imag": {}, "real": {}}
    try:
        for x in IMAG_X:
            call = run.invoke(imag_invocation(x, None, fresh_cache=True))
            entry = {"stdout": sha256(call.stdout), "cache": sha256(workdir / CACHE)}
            warm = imag_invocation(x, entry)
            warm.argv += ["--trace", TRACE_CSV]
            run.invoke(warm)
            entry["trace"] = sha256(workdir / TRACE_CSV)
            ref["imag"][str(x)] = entry
            print(f"imag X={x}: {call.seconds:.2f} s", flush=True)
        for x in REAL_X:
            twists, squarefree = family_counts(-35, x)
            inv = Invocation(
                scan_argv(-35, x, "--trace", TRACE_CSV), twists, {},
                {"family_size": twists, "squarefree_count": squarefree},
            )
            call = run.invoke(inv)
            ref["real"][str(x)] = {
                "stdout": sha256(call.stdout), "trace": sha256(workdir / TRACE_CSV)
            }
            print(f"real X={x}: {call.seconds:.2f} s, {twists} twists", flush=True)
        call = run.invoke(Invocation(["verify", "--level", "full"], 1, {}, verify_tail=True))
        ref["verify"] = {"stdout": sha256(call.stdout)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if run.failed:
        print("\n".join(run.problems), file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true",
                        help="recompute perfbench/reference.json and exit")
    args = parser.parse_args()
    if not (SRC / "twistrank" / "cli.py").is_file():
        print(f"error: no twistrank sources at {SRC}", file=sys.stderr)
        return 2
    if args.freeze:
        return freeze()
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ref = json.loads(REFERENCE.read_text())
    workload = build_workload(args.workload, args.seed, ref)
    # Stay on the CPU the scheduler gave this process, and so do the children
    # (they inherit it), so that the host probes measure the CPU the CLI runs
    # on.  Field 39 of /proc/self/stat is that CPU.
    cpu = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-"))
    run = Run(workdir, deadline=time.monotonic() + RUN_LIMIT_S)
    try:
        result = measure(workload, run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, info, layers = result["e2e"], result["info"], result["layers"]
    print(f"workload {args.workload} seed {args.seed}: {workload.describe}")
    print(f"machine: {machine()}")
    print(
        f"timed phase: {info['passes']} pass(es), {info['calls']} invocation(s), "
        f"call min {info['call_min_s']:.4f} s, max {info['call_max_s']:.4f} s"
    )
    print(
        f"host probe: median {info['host_probe_s']:.4f} s, min {info['host_probe_min_s']:.4f} s, "
        f"max {info['host_probe_max_s']:.4f} s per call (reference {HOST_REF_S} s); "
        f"unscaled setup {info['setup_raw_s']:.4f} s, pass {info['wall_raw_s']:.4f} s"
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["fail_ratio"] = "ratio"
    for name, value in e2e.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {SETUP_ROUNDS} import probes" + (
                " + cache fill)" if workload.setup else ")")
        elif name == "call_p50_s":
            note = f"  (n={info['calls']})"
        elif name == "fail_ratio":
            note = f"  ({run.failed}/{run.attempted})"
        print(f"  {name:<12} {value:.6g} {units[name]}{note}")
    for problem in run.problems:
        print(f"FAIL {problem}")

    if layers is None:
        chosen, wanted = e2e, spec["end_to_end"]
    else:
        print(f"traced invocation {info['traced_s']:.4f} s; {layers['counts_text']}")
        for m in spec["per_layer"]:
            print(f"  {m['name']:<44} {layers[m['name']]:.10g} {m['unit']}")
        chosen, wanted = layers, spec["per_layer"]
    metrics = {m["name"]: {"value": chosen[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
