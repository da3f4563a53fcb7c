"""Tests for the newline-delimited JSON class-data cache."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twistrank
from twistrank import cache
from twistrank.classgroup import _check_discriminant, summary_from_counts


def entries(*rows):
    """Class data from (delta, h, three_torsion) rows, as the cache holds it."""
    return {delta: (h, t) for delta, h, t in rows}


def test_save_load_round_trip(tmp_path):
    p = str(tmp_path / "c.ndjson")
    data = entries((-244, 6, 3), (-4, 1, 1), (140, 4, 1))
    cache.save(p, data)
    assert cache.load(p) == data


def test_save_merges_with_existing_entries(tmp_path):
    p = str(tmp_path / "c.ndjson")
    cache.save(p, entries((-4, 1, 1)))
    cache.save(p, entries((-52, 2, 1)))
    assert cache.load(p) == entries((-4, 1, 1), (-52, 2, 1))


def test_save_bytes_are_sorted_and_stable(tmp_path):
    p = str(tmp_path / "c.ndjson")
    cache.save(p, entries((140, 4, 1), (-244, 6, 3), (-4, 1, 1)))
    text = open(p).read()
    assert text == (
        '{"delta": -244, "h": 6, "three_torsion": 3}\n'
        '{"delta": -4, "h": 1, "three_torsion": 1}\n'
        '{"delta": 140, "h": 4, "three_torsion": 1}\n'
    )


def test_save_leaves_no_temp_files(tmp_path):
    p = str(tmp_path / "c.ndjson")
    cache.save(p, entries((-4, 1, 1)))
    assert os.listdir(tmp_path) == ["c.ndjson"]


def test_save_keeps_the_mode_of_the_file_it_replaces(tmp_path):
    p = str(tmp_path / "c.ndjson")
    umask = os.umask(0o022)
    try:
        # a new cache is created as open() would create it
        cache.save(p, entries((-4, 1, 1)))
        assert os.stat(p).st_mode & 0o777 == 0o644
        os.chmod(p, 0o664)
        cache.save(p, entries((-52, 2, 1)))
        assert os.stat(p).st_mode & 0o777 == 0o664
        # quarantine rewrites through the same writer
        with open(p, "a") as fh:
            fh.write("garbage\n")
        assert cache.quarantine(p) == (2, 1)
        assert os.stat(p).st_mode & 0o777 == 0o664
    finally:
        os.umask(umask)


def test_load_missing_keys_rejected(tmp_path):
    p = str(tmp_path / "c.ndjson")
    with open(p, "w") as fh:
        fh.write('{"delta": -4, "h": 1}\n')
    with pytest.raises(cache.CacheCorruption) as info:
        cache.load(p)
    assert info.value.bad_lines[0][0] == 1
    assert "keys" in info.value.bad_lines[0][2]


@pytest.mark.parametrize(
    "line,reason_fragment",
    [
        ("{broken", "Expecting"),
        ('{"delta": -4, "h": 1, "three_torsion": 1, "x": 0}', "keys"),
        ('{"delta": -4.5, "h": 1, "three_torsion": 1}', "integer"),
        ('{"delta": -4, "h": true, "three_torsion": 1}', "integer"),
        ('{"delta": -23, "h": 3, "three_torsion": 2}', "power of 3"),
        ('{"delta": -23, "h": 3, "three_torsion": 0}', "power of 3"),
        ('{"delta": -23, "h": 4, "three_torsion": 3}', "divide"),
        ('{"delta": -23, "h": 0, "three_torsion": 1}', "positive"),
        ('["not", "an", "object"]', "keys"),
        # delta must be a discriminant, on either branch of the parser
        ('{"delta": 0, "h": 1, "three_torsion": 1}', "nonzero"),
        ('{"delta": -5, "h": 1, "three_torsion": 1}', "not a discriminant"),
        ('{"delta": 1, "h": 1, "three_torsion": 1}', "degenerate"),
        ('{"h": 1, "three_torsion": 1, "delta": 9}', "degenerate"),
        # integers a looser pattern than JSON's grammar would accept
        ('{"delta": -04, "h": 1, "three_torsion": 1}', "Expecting ',' delimiter"),
        ('{"delta": -\u0664, "h": 1, "three_torsion": 1}', "Expecting value"),
        ('{"delta": 1_0, "h": 1, "three_torsion": 1}', "Expecting ',' delimiter"),
        ('{"delta": +4, "h": 1, "three_torsion": 1}', "Expecting value"),
    ],
)
def test_load_rejects_invalid_lines(tmp_path, line, reason_fragment):
    p = str(tmp_path / "c.ndjson")
    with open(p, "w") as fh:
        fh.write(line + "\n")
    with pytest.raises(cache.CacheCorruption) as info:
        cache.load(p)
    assert reason_fragment in info.value.bad_lines[0][2]


def test_non_canonical_lines_load_like_the_canonical_line(tmp_path):
    p = str(tmp_path / "c.ndjson")
    canonical = '{"delta": -244, "h": 6, "three_torsion": 3}'
    for text in (
        canonical + "\n",
        '{"three_torsion": 3, "h": 6, "delta": -244}\n',
        '{"delta":-244,"h":6,"three_torsion":3}\n',
        '{ "delta" : -244 , "h" : 6 , "three_torsion" : 3 }\n',
        canonical + " \t\n",
        canonical + "\r\n",
    ):
        with open(p, "w", newline="") as fh:
            fh.write(text)
        assert cache.load(p) == entries((-244, 6, 3)), text
    # every line save writes takes the pattern branch, and gives the entry
    # the json.loads branch gives
    cache.save(p, entries(
        (-244, 6, 3), (-4, 1, 1), (140, 4, 1), (-3299, 27, 9), (32009, 9, 9),
        (-999999995, 8856, 3),
    ))
    for line in open(p):
        line = line.strip()
        match = cache._CANONICAL.fullmatch(line)
        assert match, line
        obj = json.loads(line)
        entry = (obj["delta"], obj["h"], obj["three_torsion"])
        assert tuple(map(int, match.groups())) == cache._parse_json(line) == entry


def test_duplicate_entries_must_agree(tmp_path):
    p = str(tmp_path / "c.ndjson")
    with open(p, "w") as fh:
        fh.write('{"delta": -4, "h": 1, "three_torsion": 1}\n')
        fh.write('{"delta": -4, "h": 1, "three_torsion": 1}\n')
    assert cache.load(p) == entries((-4, 1, 1))
    with open(p, "a") as fh:
        fh.write('{"delta": -4, "h": 3, "three_torsion": 1}\n')
    with pytest.raises(cache.CacheCorruption, match="conflicts"):
        cache.load(p)


def test_quarantine_repairs_and_preserves(tmp_path):
    p = str(tmp_path / "c.ndjson")
    cache.save(p, entries((-4, 1, 1), (-52, 2, 1)))
    with open(p, "a") as fh:
        fh.write("garbage\n")
        fh.write('{"delta": -23, "h": 3, "three_torsion": 2}\n')
    kept, quarantined = cache.quarantine(p)
    assert (kept, quarantined) == (2, 2)
    assert cache.load(p) == entries((-4, 1, 1), (-52, 2, 1))
    side = open(p + ".quarantined").read()
    assert "garbage" in side and "power of 3" in side
    # idempotent on a clean file
    assert cache.quarantine(p) == (2, 0)


NOT_UTF8 = b"\xff\xfe garbage\n"


def test_load_names_a_line_that_is_not_utf8(tmp_path):
    p = str(tmp_path / "c.ndjson")
    cache.save(p, entries((-4, 1, 1), (-52, 2, 1)))
    with open(p, "ab") as fh:
        fh.write(NOT_UTF8)
    with pytest.raises(cache.CacheCorruption, match="line 3: Expecting value") as info:
        cache.load(p)
    assert [n for n, _, _ in info.value.bad_lines] == [3]


def test_quarantine_keeps_the_bytes_of_a_line_that_is_not_utf8(tmp_path):
    p = str(tmp_path / "c.ndjson")
    cache.save(p, entries((-4, 1, 1), (-52, 2, 1)))
    with open(p, "rb") as fh:
        clean = fh.read()
    with open(p, "ab") as fh:
        fh.write(NOT_UTF8)
    assert cache.quarantine(p) == (2, 1)
    with open(p, "rb") as fh:
        assert fh.read() == clean
    with open(p + ".quarantined", "rb") as fh:
        assert fh.read().endswith(b"\n" + NOT_UTF8)


def test_blank_lines_ignored(tmp_path):
    p = str(tmp_path / "c.ndjson")
    with open(p, "w") as fh:
        fh.write('\n{"delta": -4, "h": 1, "three_torsion": 1}\n\n')
    assert cache.load(p) == entries((-4, 1, 1))


def test_save_rejects_conflicting_new_entry(tmp_path):
    p = str(tmp_path / "c.ndjson")
    cache.save(p, entries((-4, 1, 1)))
    with pytest.raises(cache.CacheCorruption):
        cache.save(p, entries((-4, 3, 3)))


def test_default_path_from_environment(monkeypatch):
    monkeypatch.delenv(cache.CACHE_ENV_VAR, raising=False)
    assert cache.default_path() is None
    monkeypatch.setenv(cache.CACHE_ENV_VAR, "/tmp/some-cache.ndjson")
    assert cache.default_path() == "/tmp/some-cache.ndjson"


def test_entries_are_valid_json_lines(tmp_path):
    p = str(tmp_path / "c.ndjson")
    cache.save(p, entries((-244, 6, 3)))
    for line in open(p):
        obj = json.loads(line)
        assert list(obj) == ["delta", "h", "three_torsion"]


def reference_scan(path):
    """scan_lines as the json.loads branch alone reads a cache: every line
    parsed by json.loads and rebuilt by summary_from_counts."""
    data, bad = {}, []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict) or set(obj) != {"delta", "h", "three_torsion"}:
                    raise ValueError("keys must be exactly delta, h, three_torsion")
                for name, v in obj.items():
                    if not isinstance(v, int) or isinstance(v, bool):
                        raise ValueError(f"{name} must be an integer")
                _check_discriminant(obj["delta"])
                s = summary_from_counts(obj["delta"], obj["h"], obj["three_torsion"])
            except (ValueError, ArithmeticError) as exc:
                bad.append((lineno, raw.rstrip("\n"), str(exc)))
                continue
            if s.delta in data and data[s.delta] != s:
                bad.append((lineno, raw.rstrip("\n"), f"conflicts with earlier entry for {s.delta}"))
                continue
            data[s.delta] = s
    return data, bad


def canonical(delta, h, t):
    return f'{{"delta": {delta}, "h": {h}, "three_torsion": {t}}}'


def reordered(delta, h, t):
    return f'{{"three_torsion": {t}, "h": {h}, "delta": {delta}}}'


# (delta, h, 3-torsion) rows, valid ones first, so that the bad torsion and h
# values below meet torsion values the reader has already accepted
PAIR_ROWS = [
    (-244, 6, 3), (-4, 1, 1), (140, 4, 1), (-3299, 27, 9), (229, 3, 3),
    (-4, 1, 1),  # a duplicate that agrees
    (-4, 3, 3),  # a duplicate that conflicts
    (-244, 6, 1),  # conflicts on the 3-torsion alone
    (0, 1, 1), (-5, 1, 1), (-1, 1, 1), (6, 1, 1),  # not discriminants
    (9, 1, 1), (1, 1, 1),  # squares
    (-23, 0, 1), (-23, 0, 3), (-23, -3, 3),  # h not positive
    (-23, 3, 2), (-23, 3, 0), (-23, 6, -3), (-23, 4, 3), (-23, 3, 9),  # bad torsion
    (-23, 3, 3),
]


@pytest.mark.parametrize("form", [canonical, reordered])
def test_pair_reader_matches_scan_lines_and_load(tmp_path, form):
    p = str(tmp_path / "c.ndjson")
    with open(p, "wb") as fh:
        for row in PAIR_ROWS:
            fh.write(form(*row).encode() + b"\n")
        fh.write(NOT_UTF8 + b"\n" + form(-52, 2, 1).encode() + b"\n")
    expected, expected_bad = reference_scan(p)
    pairs, bad = cache.scan_lines(p)
    assert list(pairs.items()) == [
        (d, (s.class_number, s.three_torsion)) for d, s in expected.items()
    ]
    assert bad == expected_bad
    assert [n for n, _, _ in bad] == [7, 8, *range(9, 23), 24]
    assert list(pairs) == [-244, -4, 140, -3299, 229, -23, -52]
    with pytest.raises(cache.CacheCorruption) as loaded:
        cache.load(p)
    assert loaded.value.bad_lines == expected_bad
    # with the bad lines quarantined, load gives the same entries, sorted
    assert cache.quarantine(p) == (7, len(expected_bad))
    assert list(cache.load(p).items()) == sorted(pairs.items())


# Saves one entry at a time, from the discriminants -(4k + OFFSET) for k < N,
# once a line arrives on stdin, so that the writers start together.
SAVER = """
import sys
from twistrank import cache

path, offset, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
sys.stdin.readline()
for k in range(n):
    cache.save(path, {-(4 * k + offset): (1, 1)})
"""


def test_concurrent_saves_keep_every_writers_entries(tmp_path):
    target = tmp_path / "c.ndjson"
    link = tmp_path / "link.ndjson"
    link.symlink_to(target)
    env = dict(os.environ)
    env.pop(cache.CACHE_ENV_VAR, None)
    package_root = str(Path(twistrank.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root, *filter(None, env.get("PYTHONPATH", "").split(os.pathsep))]
    )
    n = 150
    # one writer names the link and the others the target: all lock the
    # target; three writers, so that they outnumber a 2-core host's cores
    offsets = {str(target): 4, str(link): 3, f"{tmp_path}/./c.ndjson": 4 + 4 * n}
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", SAVER, path, str(offset), str(n)],
            stdin=subprocess.PIPE, env=env, text=True,
        )
        for path, offset in offsets.items()
    ]
    for w in writers:
        w.stdin.write("go\n")
        w.stdin.flush()
    for w in writers:
        w.stdin.close()
        assert w.wait(timeout=120) == 0
    data = cache.load(str(target))
    assert len(offsets) == 3
    assert sorted(data) == sorted(-(4 * k + o) for o in offsets.values() for k in range(n))
    assert link.is_symlink() and sorted(os.listdir(tmp_path)) == ["c.ndjson", "link.ndjson"]


@pytest.mark.parametrize("a,x", [(1, 40_000), (-35, 10**6)])
def test_scan_class_data_round_trips_through_the_cache(tmp_path, a, x):
    from twistrank.stats import scan_family

    p = str(tmp_path / "c.ndjson")
    cold = scan_family(a, x)
    cache.save(p, cold.new_class_data)
    warm = scan_family(a, x, class_data=cache.load(p))
    n = cold.report.family_size
    assert warm.report == cold.report
    assert warm.class_numbers == cold.class_numbers
    assert warm.three_torsion == cold.three_torsion
    assert warm.computed == b"\0" * n
    assert warm.new_class_data == {}
