"""Tests for the command-line interface.

Commands are driven through main(argv) with captured stdout; determinism
checks compare exact output strings across --jobs values and cache states.
"""

import csv
import gc
import io
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import twistrank
from twistrank import cache
from twistrank.cli import main


def entries(*rows):
    """Class data from (delta, h, three_torsion) rows, as the cache holds it."""
    return {delta: (h, t) for delta, h, t in rows}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# classgroup


def test_classgroup_text_output(capsys):
    code, out, _ = run(capsys, "classgroup", "-23")
    assert code == 0
    assert "delta = -23" in out
    assert "h = 3" in out
    assert "three_torsion = 3" in out
    assert "three_rank = 1" in out


def test_classgroup_json_output(capsys):
    code, out, _ = run(capsys, "classgroup", "-4", "--json")
    assert code == 0
    assert json.loads(out) == {"delta": -4, "h": 1, "three_rank": 0, "three_torsion": 1}


def test_classgroup_narrow_label(capsys):
    code, out, _ = run(capsys, "classgroup", "229")
    assert code == 0
    assert "narrow class number" in out


def test_classgroup_rejects_non_fundamental(capsys):
    code, _, err = run(capsys, "classgroup", "10")
    assert code == 2
    assert "fundamental" in err


# ---------------------------------------------------------------------------
# twist


def test_twist_json_line(capsys):
    code, out, _ = run(capsys, "twist", "1", "13")
    assert code == 0
    assert out.count("\n") == 1
    assert json.loads(out) == {
        "A": 1,
        "D": 13,
        "delta": -52,
        "case": "NEG2_8_A_POS",
        "rank_bound": 0,
        "selmer_dim": 0,
        "torsion_trivial": False,
    }


def test_twist_validation_exit_codes(capsys):
    code, _, err = run(capsys, "twist", "2", "5")
    assert code == 2 and "mod 36" in err
    code, _, err = run(capsys, "twist", "1", "25")
    assert code == 2 and "square-free" in err


# ---------------------------------------------------------------------------
# scan


def test_scan_report_content(capsys):
    code, out, _ = run(capsys, "scan", "1", "--max-x", "400")
    assert code == 0
    report = json.loads(out)
    assert report["A"] == 1 and report["X"] == 400
    assert report["family_size"] == 7
    assert report["squarefree_count"] == 61
    assert report["h3_mean"] == {"exact": "9/7", "float": 1.28571428571}
    assert report["avg_selmer_dim"]["exact"] == "2/7"
    assert report["certified_proportion_per_k"]["0"]["exact"] == "6/61"
    assert report["theoretical"]["certified_density_bound"]["exact"] == "1/16"
    assert report["theoretical"]["average_dimension_bound"]["float"] == 1.0


def test_scan_deterministic_across_jobs_and_cache(capsys, tmp_path):
    outputs = []
    cache_file = str(tmp_path / "c.ndjson")
    for argv in (
        ["scan", "1", "--max-x", "400"],
        ["scan", "1", "--max-x", "400", "--jobs", "2"],
        ["scan", "1", "--max-x", "400", "--jobs", "8"],
        ["scan", "1", "--max-x", "400", "--cache", cache_file],  # cold cache
        ["scan", "1", "--max-x", "400", "--cache", cache_file],  # warm cache
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        outputs.append(out)
    assert len(set(outputs)) == 1
    assert cache.load(cache_file) == entries(
        (-4, 1, 1),
        (-52, 2, 1),
        (-148, 2, 1),
        (-244, 6, 3),
        (-292, 4, 1),
        (-340, 4, 1),
        (-388, 4, 1),
    )


def test_scan_trace_and_report_files(capsys, tmp_path):
    trace = str(tmp_path / "t.csv")
    report_file = str(tmp_path / "r.json")
    code, out, _ = run(
        capsys, "scan", "1", "--max-x", "400", "--trace", trace, "--report", report_file
    )
    assert code == 0
    assert open(report_file).read() == out
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["D", "delta", "h", "h3_rank", "selmer_dim", "rank_bound"]
    assert rows[1] == ["1", "-4", "1", "0", "0", "0"]
    assert rows[4] == ["61", "-244", "6", "1", "2", "2"]
    assert len(rows) == 8


@pytest.mark.parametrize("a,x", [(1, 40_000), (-35, 10**6)])
def test_scan_trace_rows_equal_certified_records(capsys, tmp_path, monkeypatch, a, x):
    from twistrank.selmer import _certify_twist
    from twistrank.stats import scan_parameters

    monkeypatch.delenv(cache.CACHE_ENV_VAR, raising=False)
    trace = str(tmp_path / "t.csv")
    code, _, _ = run(capsys, "scan", str(a), "--max-x", str(x), "--trace", trace)
    assert code == 0
    with open(trace, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["D", "delta", "h", "h3_rank", "selmer_dim", "rank_bound"]
    params = scan_parameters(a, x)
    assert len(rows) == len(params) > 10
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    writer.writerow(header)
    for row, d in zip(rows, params):
        # each twist certified from scratch, its class group computed alone
        s = twistrank.class_group_summary(_certify_twist(a, d)[1])
        rec = twistrank.twist_record(a, d)
        expected = [
            rec.d, rec.field_discriminant, s.class_number, s.three_rank,
            rec.selmer_dim, rec.rank_bound,
        ]
        assert row == [str(v) for v in expected]
        writer.writerow(expected)
    # the bytes too are those csv.writer writes for these rows
    with open(trace, "rb") as fh:
        assert fh.read() == reference.getvalue().encode()


@pytest.mark.parametrize("a,x", [(1, 4000), (-35, 10**6)])
def test_scan_builds_no_class_group_summary(capsys, tmp_path, monkeypatch, a, x):
    from twistrank.classgroup import ClassGroupSummary

    monkeypatch.delenv(cache.CACHE_ENV_VAR, raising=False)
    built = []
    new = ClassGroupSummary.__new__

    def counted(cls, *args, **kwargs):
        built.append(args or kwargs)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(ClassGroupSummary, "__new__", counted)
    path = str(tmp_path / "c.ndjson")
    report, trace = str(tmp_path / "r.json"), str(tmp_path / "t.csv")
    # cold: the class data are computed and saved
    code, cold, _ = run(capsys, "scan", str(a), "--max-x", str(x), "--cache", path)
    assert (code, built) == (0, [])
    # warm, with every output: the class data are loaded, folded and traced
    code, warm, _ = run(
        capsys, "scan", str(a), "--max-x", str(x), "--cache", path,
        "--report", report, "--trace", trace,
    )
    assert (code, warm, built) == (0, cold, [])
    # cache.load gives (h, 3-torsion) pairs in the file's order, sorted by
    # delta, and they are the counts each twist's class group gives alone
    data = cache.load(path)
    n = json.loads(cold)["family_size"]
    assert built == [] and len(data) == n > 10
    deltas = sorted(d * twistrank.twist_record(a, 1).field_discriminant
                    for d in twistrank.scan_parameters(a, x))
    assert list(data) == deltas
    summaries = [twistrank.class_group_summary(d) for d in deltas]
    assert list(data.values()) == [(s.class_number, s.three_torsion) for s in summaries]


def test_scan_and_verify_refuse_a_directory_path_before_any_work(
    capsys, tmp_path, monkeypatch
):
    from twistrank import classgroup, stats

    def no_class_data(*args, **kwargs):
        raise AssertionError("class data computed before the path was checked")

    monkeypatch.setattr(stats, "compute_class_data", no_class_data)
    # the verify suites' class data
    monkeypatch.setattr(classgroup, "_definite_class_numbers", no_class_data)
    monkeypatch.setattr(classgroup, "compute_class_data", no_class_data)
    monkeypatch.delenv(cache.CACHE_ENV_VAR, raising=False)
    for flag, name in (("--cache", "cache"), ("--report", "report"), ("--trace", "trace")):
        code, out, err = run(capsys, "scan", "1", "--max-x", "40000", flag, str(tmp_path))
        assert (code, out) == (2, "")
        assert f"{name} path {tmp_path} is a directory" in err
    code, out, err = run(capsys, "verify", "--cache", str(tmp_path))
    assert (code, out) == (2, "")
    assert f"cache path {tmp_path} is a directory" in err
    # the same holds for a cache named by the environment
    monkeypatch.setenv(cache.CACHE_ENV_VAR, str(tmp_path))
    for argv in (("scan", "1", "--max-x", "40000"), ("verify",)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "is a directory" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "first,second", [("--cache", "--report"), ("--cache", "--trace"), ("--report", "--trace")]
)
def test_scan_refuses_two_paths_that_name_one_file(
    capsys, tmp_path, monkeypatch, first, second
):
    from twistrank import stats

    def no_class_data(*args, **kwargs):
        raise AssertionError("class data computed before the paths were checked")

    monkeypatch.setattr(stats, "compute_class_data", no_class_data)
    monkeypatch.delenv(cache.CACHE_ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)
    one, other = first[2:], second[2:]
    # one name twice, for a file that does not exist yet
    code, out, err = run(capsys, "scan", "1", "--max-x", "4000", first, "x", second, "x")
    assert (code, out) == (2, "")
    assert f"{one} path x and {other} path x name one file" in err
    assert os.listdir(tmp_path) == []
    # an existing file under other names: a relative path, a symlink, a hard link
    Path("x").write_text("kept\n")
    Path("link").symlink_to("x")
    os.link("x", "hard")
    for name in ("./x", "link", str(tmp_path / "link"), "hard"):
        code, out, err = run(capsys, "scan", "1", "--max-x", "4000", first, "x", second, name)
        assert (code, out) == (2, ""), name
        assert f"{one} path x and {other} path {name} name one file" in err, name
    if first == "--cache":
        # a cache named by the environment too
        monkeypatch.setenv(cache.CACHE_ENV_VAR, "link")
        code, out, err = run(capsys, "scan", "1", "--max-x", "4000", second, "x")
        assert (code, out) == (2, "")
        assert f"cache path link and {other} path x name one file" in err
    assert sorted(os.listdir(tmp_path)) == ["hard", "link", "x"]
    assert Path("x").read_text() == "kept\n" and Path("link").is_symlink()


def test_scan_refuses_a_k_past_19_before_any_work(capsys, tmp_path, monkeypatch):
    from twistrank import stats

    monkeypatch.delenv(cache.CACHE_ENV_VAR, raising=False)
    path = tmp_path / "k.ndjson"
    # k = 19 certifies every twist below the scan limit, and still scans
    code, out, _ = run(capsys, "scan", "1", "--max-x", "400", "--k", "19", "--cache", str(path))
    assert code == 0
    assert sorted(map(int, json.loads(out)["certified_proportion_per_k"])) == list(range(20))
    path.unlink()

    def no_class_data(*args, **kwargs):
        raise AssertionError("class data computed for a refused k")

    monkeypatch.setattr(stats, "compute_class_data", no_class_data)
    for k in ("20", "9010", "1000000000"):
        code, out, err = run(capsys, "scan", "1", "--max-x", "400", "--k", k, "--cache", str(path))
        assert (code, out) == (2, ""), k
        assert "k must be at most 19" in err, k
    assert list(tmp_path.iterdir()) == []


def test_scan_writes_a_symlinked_cache_through_the_link(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(cache.CACHE_ENV_VAR, raising=False)
    real = tmp_path / "real"
    real.mkdir()
    target = real / "c.ndjson"
    target.write_text("")
    link = tmp_path / "link.ndjson"
    link.symlink_to(target)
    code, cold, _ = run(capsys, "scan", "1", "--max-x", "4000", "--cache", str(link))
    assert code == 0
    assert link.is_symlink() and link.resolve() == target
    assert len(cache.load(str(target))) == json.loads(cold)["family_size"] == 71
    assert os.listdir(real) == ["c.ndjson"]
    # a warm rescan reads the entries through the link
    code, warm, _ = run(capsys, "scan", "1", "--max-x", "4000", "--cache", str(link))
    assert (code, warm) == (0, cold)
    # a quarantine rewrites the target too
    with open(target, "a") as fh:
        fh.write("junk\n")
    code, out, _ = run(capsys, "verify", "--cache", str(link))
    assert code == 0 and "quarantined 1 corrupt line(s)" in out
    assert link.is_symlink() and len(cache.load(str(target))) == 71
    # the directory a link's target would be written to must exist
    dangling = tmp_path / "dangling.ndjson"
    dangling.symlink_to(tmp_path / "nodir" / "c.ndjson")
    code, out, err = run(capsys, "scan", "1", "--max-x", "4000", "--cache", str(dangling))
    assert (code, out) == (2, "")
    assert f"cache directory {tmp_path / 'nodir'} does not exist" in err
    assert dangling.is_symlink()


# Runs main(argv) in a fresh interpreter in which computing class data fails,
# and exits with main's exit code.
NO_CLASS_DATA_PROBE = """
import sys
import twistrank.classgroup, twistrank.cli, twistrank.stats

def no_class_data(*args, **kwargs):
    raise AssertionError("class data computed before the cache path was checked")

twistrank.stats.compute_class_data = no_class_data
twistrank.classgroup._definite_class_numbers = no_class_data
twistrank.classgroup.compute_class_data = no_class_data
sys.exit(twistrank.cli.main(sys.argv[1:]))
"""


def test_scan_and_verify_refuse_a_cache_that_is_not_a_regular_file(tmp_path):
    # reading a FIFO blocks, so each run gets its own interpreter and a timeout
    os.mkfifo(tmp_path / "fifo")
    for argv, cache_env in (
        (["scan", "1", "--max-x", "4000", "--cache", "fifo"], None),
        (["verify", "--cache", "fifo"], None),
        (["scan", "1", "--max-x", "4000"], "fifo"),
        (["verify"], "fifo"),
    ):
        env = fresh_env()
        if cache_env:
            env[cache.CACHE_ENV_VAR] = cache_env
        proc = subprocess.run(
            [sys.executable, "-c", NO_CLASS_DATA_PROBE, *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, ""), argv
        assert "cache path fifo is not a regular file" in proc.stderr, argv
    assert os.listdir(tmp_path) == ["fifo"]
    assert stat.S_ISFIFO(os.lstat(tmp_path / "fifo").st_mode)


def test_scan_uses_cache_env_var(capsys, tmp_path, monkeypatch):
    cache_file = str(tmp_path / "env.ndjson")
    monkeypatch.setenv(cache.CACHE_ENV_VAR, cache_file)
    code, _, _ = run(capsys, "scan", "1", "--max-x", "400")
    assert code == 0
    assert os.path.exists(cache_file)
    assert cache.load(cache_file)[-244] == (6, 3)


def test_scan_rejects_corrupt_cache(capsys, tmp_path):
    cache_file = str(tmp_path / "c.ndjson")
    with open(cache_file, "w") as fh:
        fh.write("junk\n")
    code, _, err = run(capsys, "scan", "1", "--max-x", "400", "--cache", cache_file)
    assert code == 2
    assert "corrupt" in err


def test_scan_refuses_a_cache_in_a_missing_directory_before_any_work(
    capsys, tmp_path, monkeypatch
):
    from twistrank import stats

    def no_class_data(*args, **kwargs):
        raise AssertionError("class data computed before the cache path was checked")

    monkeypatch.setattr(stats, "compute_class_data", no_class_data)
    missing = tmp_path / "nodir"
    code, out, err = run(
        capsys, "scan", "1", "--max-x", "40000", "--cache", str(missing / "c.ndjson")
    )
    assert (code, out) == (2, "")
    assert f"cache directory {missing} does not exist" in err
    # so are a report and a trace, which are written after the scan too
    for flag, name in (("--report", "report"), ("--trace", "trace")):
        code, out, err = run(
            capsys, "scan", "1", "--max-x", "40000", flag, str(missing / "out")
        )
        assert (code, out) == (2, "")
        assert f"{name} directory {missing} does not exist" in err
    # the same holds for a cache named by the environment
    monkeypatch.setenv(cache.CACHE_ENV_VAR, str(missing / "c.ndjson"))
    code, out, err = run(capsys, "scan", "1", "--max-x", "40000")
    assert (code, out) == (2, "")
    assert "does not exist" in err
    assert not missing.exists()


def test_scan_negative_coefficient_parses(capsys):
    code, out, _ = run(capsys, "scan", "-35", "--max-x", "20000")
    assert code == 0
    report = json.loads(out)
    assert report["A"] == -35
    assert report["family_size"] == 1
    assert report["theoretical"]["average_dimension_bound"]["exact"] == "4/3"


def test_scan_empty_family_exit_code(capsys):
    code, _, err = run(capsys, "scan", "1", "--max-x", "4")
    assert code == 2
    assert "raise X" in err


def test_out_of_scope_inputs_exit_2(capsys):
    # each is refused by its size alone, before any factoring or sieving
    for argv in (
        ("classgroup", "-3000000000000000046000000000000000111"),
        ("twist", "1", "3000000000000000064000000000000000333"),
        ("scan", "1", "--max-x", "10000000000"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "exceeds the scan limit 1000000000" in err, argv


# Runs main(argv) in a fresh interpreter; the last line of stderr says whether
# numpy was loaded after the imports and after main, and gives main's exit code.
NUMPY_PROBE = """
import sys
import twistrank, twistrank.cli
imported = "numpy" in sys.modules
code = twistrank.cli.main(sys.argv[1:])
sys.stderr.write(f"{imported} {'numpy' in sys.modules} {code}")
"""


MULTIPROCESSING_PROBE = NUMPY_PROBE.replace("numpy", "multiprocessing")


def fresh_env():
    """The environment of a fresh interpreter that imports this checkout's
    twistrank, with no cache configured."""
    env = dict(os.environ)
    env.pop("TWISTRANK_CACHE", None)
    package_root = str(Path(twistrank.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root, *filter(None, env.get("PYTHONPATH", "").split(os.pathsep))]
    )
    return env


def fresh_main(tmp_path, source, *argv):
    """Runs a probe with argv in a fresh interpreter that imports this
    checkout's twistrank; returns its stdout and the last line of its stderr."""
    proc = subprocess.run(
        [sys.executable, "-c", source, *argv],
        capture_output=True, env=fresh_env(), cwd=tmp_path,
    )
    return proc.stdout, proc.stderr.decode().splitlines()[-1]


def test_numpy_loads_only_when_a_class_group_is_computed(tmp_path):
    # pytest itself has loaded numpy, so each check needs its own interpreter.
    def probe(*argv):
        return fresh_main(tmp_path, NUMPY_PROBE, *argv)

    # forms are enumerated and swept in pure Python: only the analytic oracle loads numpy
    for argv in (
        ["classgroup", "229"],
        ["classgroup", "-23"],
        ["twist", "1", "13"],
        ["scan", "-35", "--max-x", "20000"],
    ):
        assert probe(*argv)[1] == "False False 0", argv
    argv = ["scan", "1", "--max-x", "40000", "--cache", str(tmp_path / "c.ndjson")]
    cold, cold_numpy = probe(*argv)
    assert cold_numpy == "False False 0"  # the sweep computed the class numbers
    warm, warm_numpy = probe(*argv)
    assert warm_numpy == "False False 0"  # every class number came from the cache
    assert warm == cold
    assert probe("verify")[1] == "False True 0"  # the analytic oracle's character sums


# Runs main(argv) in a fresh interpreter; with a first argument "blocked",
# any import of numpy raises ImportError.
MAIN_PROBE = """
import sys
if sys.argv.pop(1) == "blocked":
    sys.modules["numpy"] = None
import twistrank.cli
sys.exit(twistrank.cli.main(sys.argv[1:]))
"""


def test_cold_definite_scan_runs_without_numpy(tmp_path):
    # the class-number sweep is pure Python, so numpy need not even be importable
    argv = ["scan", "1", "--max-x", "40000", "--cache", "c.ndjson", "--trace", "t.csv"]
    results = []
    for mode in ("blocked", "normal"):
        workdir = tmp_path / mode
        workdir.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", MAIN_PROBE, mode, *argv],
            capture_output=True, env=fresh_env(), cwd=workdir,
        )
        assert proc.returncode == 0, proc.stderr
        results.append((proc.stdout, written_files(workdir)))
    assert set(results[0][1]) == {"c.ndjson", "t.csv"}
    assert results[0] == results[1]


def test_multiprocessing_loads_only_for_a_pool(tmp_path):
    # --jobs 1 starts no pool, cold (the sweep and numpy) or warm
    argv = ["scan", "1", "--max-x", "40000", "--jobs", "1", "--cache", "c.ndjson"]
    cold, cold_loaded = fresh_main(tmp_path, MULTIPROCESSING_PROBE, *argv)
    assert cold_loaded == "False False 0"
    warm, warm_loaded = fresh_main(tmp_path, MULTIPROCESSING_PROBE, *argv)
    assert warm_loaded == "False False 0"
    assert warm == cold


# Imports twistrank.stats in a fresh interpreter; the last line of stderr says
# whether that loaded the cache layer.
STATS_PROBE = """
import sys
import twistrank.stats
sys.stderr.write(str("twistrank.cache" in sys.modules))
"""


def test_stats_loads_no_cache_layer(tmp_path):
    # pytest itself has loaded twistrank.cache, so the check needs its own interpreter
    assert fresh_main(tmp_path, STATS_PROBE) == (b"", "False")


# Imports twistrank.cli and runs two commands that load no numpy; the last
# line of stderr lists, after each step, which modules of the dataclass and
# introspection machinery are loaded.
INTROSPECTION_PROBE = """
import sys
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")
import twistrank.cli
loaded = [[m for m in HEAVY if m in sys.modules]]
for argv in (["scan", "-35", "--max-x", "1000000"], ["classgroup", "229"]):
    assert twistrank.cli.main(argv) == 0
    loaded.append([m for m in HEAVY if m in sys.modules])
sys.stderr.write(str(loaded))
"""


def test_cli_loads_no_dataclass_or_introspection_modules(tmp_path):
    # the records are NamedTuples, so no command generates record code at import
    assert fresh_main(tmp_path, INTROSPECTION_PROBE)[1] == "[[], [], []]"


# ---------------------------------------------------------------------------
# process entry


def written_files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


SCAN_FILES = ["--cache", "c.ndjson", "--report", "r.json", "--trace", "t.csv"]
ENTRY_RUNS = {
    # cold, then warm
    "scan-imag": [["scan", "1", "--max-x", "40000", *SCAN_FILES]] * 2,
    "scan-real": [["scan", "-35", "--max-x", "1000000"]],
    "verify": [["verify", "--level", "quick"]],
    "classgroup-twist": [["classgroup", "-3299"], ["twist", "1", "13"]],
    "refused": [["scan", "1", "--max-x", "400", "--k", "20", "--cache", "k.ndjson"]],
}


@pytest.mark.parametrize("name", ENTRY_RUNS)
def test_process_entry_matches_main_in_process(capsys, tmp_path, monkeypatch, name):
    # python -m twistrank.cli (run, which freezes the heap before teardown)
    # and main in this process give the same stdout, files and exit code
    monkeypatch.delenv(cache.CACHE_ENV_VAR, raising=False)
    child, here = tmp_path / "child", tmp_path / "here"
    child.mkdir()
    here.mkdir()
    monkeypatch.chdir(here)
    for argv in ENTRY_RUNS[name]:
        proc = subprocess.run(
            [sys.executable, "-m", "twistrank.cli", *argv],
            capture_output=True, env=fresh_env(), cwd=child, timeout=120,
        )
        code, out, _ = run(capsys, *argv)
        assert (proc.returncode, proc.stdout) == (code, out.encode()), argv
        assert written_files(child) == written_files(here), argv
        # main leaves the collector as it found it
        assert gc.isenabled() and gc.get_freeze_count() == 0
    if name == "refused":
        assert code == 2 and out == "" and written_files(here) == {}


# Imports twistrank.cli, calls main, then run; the last line of stderr gives
# the collector's state after each step, and the exit codes.
GC_PROBE = """
import gc, sys
import twistrank.cli
states = [(gc.isenabled(), gc.get_freeze_count())]
codes = [twistrank.cli.main(sys.argv[1:])]
states.append((gc.isenabled(), gc.get_freeze_count()))
codes.append(twistrank.cli.run(sys.argv[1:]))
states.append((gc.isenabled(), gc.get_freeze_count() > 0))
sys.stderr.write(f"{states} {codes}")
"""


def test_only_the_process_entry_freezes_the_heap(tmp_path):
    _, states = fresh_main(tmp_path, GC_PROBE, "twist", "1", "13")
    assert states == "[(True, 0), (True, 0), (True, True)] [0, 0]"
    # the refused input is frozen too, and keeps its exit code
    _, states = fresh_main(tmp_path, GC_PROBE, "classgroup", "10")
    assert states == "[(True, 0), (True, 0), (True, True)] [2, 2]"


# ---------------------------------------------------------------------------
# progression


def test_progression_lists_discriminants(capsys):
    code, out, _ = run(capsys, "progression", "50", "1", "4")
    assert code == 0
    assert [int(line) for line in out.split()] == [
        -3, -7, -11, -15, -19, -23, -31, -35, -39, -43, -47,
    ]


def test_progression_positive_sign(capsys):
    code, out, _ = run(capsys, "progression", "30", "1", "4", "--sign", "positive")
    assert code == 0
    assert [int(line) for line in out.split()] == [5, 13, 17, 21, 29]


# ---------------------------------------------------------------------------
# verify


VERIFY_QUICK_STDOUT = """\
PASS analytic class numbers: 609 discriminants, form count = analytic class number
PASS group structures: 1218 discriminants, 3-rank = brute-force group structure
PASS twist correspondence: A in (1, 37, 61, -35) at X = 10000
PASS progression condition: 301 coefficients with |A| < 2000
PASS rearrangement bound: 1000 randomized samples
PASS cache integrity: no cache configured, skipped
6/6 suites passed (quick)
"""


def test_verify_quick_passes(capsys, monkeypatch):
    monkeypatch.delenv(cache.CACHE_ENV_VAR, raising=False)
    code, out, err = run(capsys, "verify", "--level", "quick")
    assert code == 0
    assert out == VERIFY_QUICK_STDOUT
    # one elapsed-time line per suite, in suite order, on stderr only
    timed = [re.fullmatch(r"time ([a-z -]+): \d+\.\d{3}s", line) for line in err.splitlines()]
    assert all(timed), err
    suites = [line[len("PASS "):].split(":")[0] for line in out.splitlines()[:-1]]
    assert [m.group(1) for m in timed] == suites


def test_verify_full_passes(capsys, monkeypatch):
    monkeypatch.delenv(cache.CACHE_ENV_VAR, raising=False)
    code, out, _ = run(capsys, "verify", "--level", "full")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if line.startswith("PASS")) == 6
    assert not any(line.startswith("FAIL") for line in lines)
    assert lines[-1] == "6/6 suites passed (full)"


def test_verify_checks_the_class_numbers_scans_use(capsys, monkeypatch):
    from twistrank import classgroup

    monkeypatch.delenv(cache.CACHE_ENV_VAR, raising=False)
    sweep = classgroup._definite_class_numbers

    def off_by_one(deltas, window):
        # h(-1987) = 7: 8 is prime to 3, so the 3-torsion count still runs
        return [h + (d == -1987) for d, h in zip(deltas, sweep(deltas, window))]

    monkeypatch.setattr(classgroup, "_definite_class_numbers", off_by_one)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL analytic class numbers: mismatch at delta = -1987\n" in out
    assert "FAIL group structures: class number mismatch at delta = -1987\n" in out


def test_verify_checks_the_3_torsion_scans_use(capsys, monkeypatch):
    from twistrank import classgroup

    monkeypatch.delenv(cache.CACHE_ENV_VAR, raising=False)
    counts = classgroup._span_counts

    def trivial_torsion_at_minus_23(delta, h=None):
        # h(-23) = 3 and its 3-torsion is 3, not 1
        if delta == -23:
            return h, 1
        return counts(delta, h)

    monkeypatch.setattr(classgroup, "_span_counts", trivial_torsion_at_minus_23)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "PASS analytic class numbers" in out
    assert "FAIL group structures: 3-rank mismatch at delta = -23\n" in out


def test_verify_enumerates_each_structure_discriminant_once(monkeypatch):
    from twistrank import classgroup
    from twistrank.cli import _verify_structure

    calls = []
    enumerate_forms = classgroup.reduced_forms

    def counted(delta):
        calls.append(delta)
        return enumerate_forms(delta)

    monkeypatch.setattr(classgroup, "reduced_forms", counted)
    assert _verify_structure(2000) == (
        True, "1218 discriminants, 3-rank = brute-force group structure"
    )
    # only the brute-force oracle enumerates: the class data of the 607
    # positive delta come from the prime-form span, the 611 negative from the sweep
    assert len(calls) == len(set(calls)) == 1218


def test_verify_catches_a_wrong_square_in_the_span(monkeypatch):
    # _mul's square branch made to return the inverse square: the brute-force
    # oracle composes with the reference product, so it reports the fault
    # instead of sharing it
    from twistrank import classgroup
    from twistrank.cli import _verify_structure

    mul = classgroup._mul

    def inverse_square(t1, t2, delta, s):
        a, b, c = mul(t1, t2, delta, s)
        return classgroup._reduce_raw(a, -b, c, delta, s) if t1 == t2 else (a, b, c)

    monkeypatch.setattr(classgroup, "_mul", inverse_square)
    assert _verify_structure(2000) == (False, "class number mismatch at delta = 229")


def test_verify_class_group_suites_build_no_summary(monkeypatch):
    from twistrank import classgroup
    from twistrank.cli import _verify_analytic, _verify_structure

    def no_summary(*args, **kwargs):
        raise AssertionError("a ClassGroupSummary was built")

    monkeypatch.setattr(classgroup, "ClassGroupSummary", no_summary)
    assert _verify_analytic(2000) == (
        True, "609 discriminants, form count = analytic class number"
    )
    assert _verify_structure(2000)[0]


def test_verify_catches_an_incomplete_real_span(capsys, monkeypatch):
    from twistrank import classgroup

    monkeypatch.delenv(cache.CACHE_ENV_VAR, raising=False)
    prime_forms = classgroup._prime_forms

    def without_least_prime(delta, known=None):
        # a real class group spanned without its least prime form
        forms = prime_forms(delta)
        if delta > 0:
            next(forms, None)
        return forms

    monkeypatch.setattr(classgroup, "_prime_forms", without_least_prime)
    code, out, _ = run(capsys, "verify", "--level", "full")
    assert code == 1
    assert "PASS analytic class numbers" in out
    # 40 = 8 * 5: its ordinary class of order 2 holds the prime forms of 2
    # and 3, and 3 lies past Markov's bound isqrt(44/9) = 2
    assert "FAIL group structures: class number mismatch at delta = 40\n" in out
    assert out.endswith("5/6 suites passed (full)\n")


def test_verify_condition_factors_each_coefficient_once(monkeypatch):
    from twistrank import selmer
    from twistrank.cli import _verify_condition

    factored = []
    factorize = selmer.factorize

    def counted(n):
        factored.append(n)
        return factorize(n)

    monkeypatch.setattr(selmer, "factorize", counted)
    assert _verify_condition(2000) == (True, "301 coefficients with |A| < 2000")
    # every A ≡ 1, 13, 25 mod 36 with |A| < 2000 once, square-free or not
    candidates = [a for a in range(-1999, 2000) if a and a % 36 in (1, 13, 25)]
    assert sorted(factored) == candidates


def test_verify_condition_fails_on_any_other_refusal(capsys, monkeypatch):
    from twistrank import cli
    from twistrank.selmer import ValidationError

    monkeypatch.delenv(cache.CACHE_ENV_VAR, raising=False)
    family_progression = cli.family_progression

    def refuses_37(a, x):
        if a == 37:
            raise ValidationError("A = 37 refused for this test")
        return family_progression(a, x)

    monkeypatch.setattr(cli, "family_progression", refuses_37)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL progression condition: A = 37 refused: A = 37 refused for this test\n" in out
    assert out.endswith("5/6 suites passed (quick)\n")


def test_verify_quarantines_corrupt_cache(capsys, tmp_path):
    cache_file = str(tmp_path / "c.ndjson")
    cache.save(cache_file, entries((-4, 1, 1)))
    with open(cache_file, "a") as fh:
        fh.write("{bad\n")
    code, out, _ = run(capsys, "verify", "--level", "quick", "--cache", cache_file)
    assert code == 0
    assert "quarantined 1 corrupt line(s)" in out
    assert os.path.exists(cache_file + ".quarantined")
    assert cache.load(cache_file) == entries((-4, 1, 1))


def test_verify_quarantines_a_cache_line_that_is_not_utf8(capsys, tmp_path):
    cache_file = str(tmp_path / "c.ndjson")
    cache.save(cache_file, entries((-4, 1, 1)))
    with open(cache_file, "ab") as fh:
        fh.write(b"\xff\xfe garbage\n")
    code, out, _ = run(capsys, "verify", "--level", "quick", "--cache", cache_file)
    assert code == 0
    assert "quarantined 1 corrupt line(s)" in out
    assert out.endswith("6/6 suites passed (quick)\n")
    assert cache.load(cache_file) == entries((-4, 1, 1))


def test_internal_errors_exit_1(capsys, monkeypatch):
    import twistrank.cli as cli_mod

    def boom(delta):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "class_group_summary", boom)
    code, _, err = run(capsys, "classgroup", "-23")
    assert code == 1
    assert "internal error" in err
