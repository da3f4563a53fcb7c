"""Tests for the command-line interface.

Commands are driven through main(argv) with captured stdout; determinism
checks compare exact output strings across --jobs values and cache states.
"""

import csv
import json
import os
import re

import pytest

from twistrank import cache
from twistrank.classgroup import summary_from_counts
from twistrank.cli import main


def entries(*rows):
    """Class data from (delta, h, three_torsion) rows, as the cache holds it."""
    return {delta: summary_from_counts(delta, h, t) for delta, h, t in rows}


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


def test_scan_uses_cache_env_var(capsys, tmp_path, monkeypatch):
    cache_file = str(tmp_path / "env.ndjson")
    monkeypatch.setenv(cache.CACHE_ENV_VAR, cache_file)
    code, _, _ = run(capsys, "scan", "1", "--max-x", "400")
    assert code == 0
    assert os.path.exists(cache_file)
    assert cache.load(cache_file)[-244] == summary_from_counts(-244, 6, 3)


def test_scan_rejects_corrupt_cache(capsys, tmp_path):
    cache_file = str(tmp_path / "c.ndjson")
    with open(cache_file, "w") as fh:
        fh.write("junk\n")
    code, _, err = run(capsys, "scan", "1", "--max-x", "400", "--cache", cache_file)
    assert code == 2
    assert "corrupt" in err


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


def test_internal_errors_exit_1(capsys, monkeypatch):
    import twistrank.cli as cli_mod

    def boom(delta):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "class_group_summary", boom)
    code, _, err = run(capsys, "classgroup", "-23")
    assert code == 1
    assert "internal error" in err
