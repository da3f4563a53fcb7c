"""Persistent class-data cache: newline-delimited JSON keyed by discriminant.

Each line is an object {"delta": ..., "h": ..., "three_torsion": ...} with
keys in sorted order.  A line in exactly that form is parsed by one pattern
(_CANONICAL); any other line, a valid one with other key order or spacing
included, goes through json.loads.  Every line is re-validated: delta must be
a discriminant (nonzero, 0 or 1 mod 4, not a square) and the 3-torsion a power
of 3 dividing h.  Fundamentality is not re-checked, since factoring each delta
would cost more than the whole load.

The cache only ever gains entries; rewrites go through a temporary file and
an atomic rename, so a crash can never leave a half-written cache behind, and
keep the permission bits of the file they replace (a new file gets 0o666 less
the umask).  A cache reached through a symlink is rewritten at the link's
target, and the link stays.  Single writer assumed.
"""

from __future__ import annotations

import json
import os
import re
import stat
import tempfile

from .classgroup import ClassData, ClassGroupSummary, _check_discriminant, summary_from_counts

CACHE_ENV_VAR = "TWISTRANK_CACHE"

BadLine = tuple[int, str, str]  # (line number, raw text, reason)


class CacheCorruption(ValueError):
    """A cache file failed validation; bad_lines lists every offender."""

    def __init__(self, path: str, bad_lines: list[BadLine]):
        self.path = path
        self.bad_lines = bad_lines
        head = ", ".join(f"line {n}: {reason}" for n, _, reason in bad_lines[:3])
        more = "" if len(bad_lines) <= 3 else f" (+{len(bad_lines) - 3} more)"
        super().__init__(f"corrupt cache {path}: {head}{more}")


def default_path() -> str | None:
    """Cache location from the environment, if configured."""
    return os.environ.get(CACHE_ENV_VAR) or None


# The line _write_atomic writes.  Integers follow JSON's own grammar with ASCII
# [0-9]: \d would also match digits such as U+0664, which int() reads and JSON
# refuses.  So a match is a JSON object with exactly these three integer keys.
_INT = r"(-?(?:0|[1-9][0-9]*))"
_CANONICAL = re.compile(rf'\{{"delta": {_INT}, "h": {_INT}, "three_torsion": {_INT}\}}')


def _parse_line(line: str) -> ClassGroupSummary:
    match = _CANONICAL.fullmatch(line)
    if match:
        delta, h, torsion = map(int, match.groups())
    else:
        obj = json.loads(line)
        if not isinstance(obj, dict) or set(obj) != {"delta", "h", "three_torsion"}:
            raise ValueError("keys must be exactly delta, h, three_torsion")
        delta, h, torsion = obj["delta"], obj["h"], obj["three_torsion"]
        for name, v in (("delta", delta), ("h", h), ("three_torsion", torsion)):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer")
    _check_discriminant(delta)
    # re-derives the 3-rank, so this also rejects torsion values that are not
    # powers of 3 or do not divide h
    return summary_from_counts(delta, h, torsion)


def scan_lines(path: str) -> tuple[ClassData, list[BadLine]]:
    """Read a cache, keeping valid entries and collecting invalid lines.

    Later duplicates of a discriminant must agree with the first occurrence;
    a conflicting duplicate is reported as corrupt rather than resolved.
    Bytes that are not UTF-8 are read as surrogate escapes, so such a line
    fails to parse like any other corrupt line and keeps its bytes.
    """
    data: ClassData = {}
    bad: list[BadLine] = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                summary = _parse_line(line)
            except (ValueError, ArithmeticError) as exc:
                bad.append((lineno, raw.rstrip("\n"), str(exc)))
                continue
            delta = summary.delta
            if delta in data and data[delta] != summary:
                bad.append(
                    (lineno, raw.rstrip("\n"), f"conflicts with earlier entry for {delta}")
                )
                continue
            data[delta] = summary
    return data, bad


def load(path: str) -> ClassData:
    """Load a cache, raising CacheCorruption if any line fails validation."""
    data, bad = scan_lines(path)
    if bad:
        raise CacheCorruption(path, bad)
    return data


def _file_mode(path: str) -> int:
    """Permission bits for a rewrite of path: those of the file it replaces,
    or 0o666 less the umask for a new file, as open() would create it."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _write_atomic(path: str, data: ClassData) -> None:
    # a symlink stays a link: the temporary file and the rename go to its target
    path = os.path.realpath(path)
    directory = os.path.dirname(path)
    mode = _file_mode(path)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cache-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # the bytes json.dumps(..., sort_keys=True) gives for int values
            fh.writelines(
                f'{{"delta": {d}, "h": {data[d].class_number}, '
                f'"three_torsion": {data[d].three_torsion}}}\n'
                for d in sorted(data)
            )
        # mkstemp creates the file 0600, and the rename keeps that mode
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save(path: str, data: ClassData) -> None:
    """Write the cache atomically, entries sorted by discriminant.

    Entries already on disk are preserved: the stored file becomes the union
    of the existing valid entries and data.
    """
    merged = load(path) if os.path.exists(path) else {}
    for delta, summary in data.items():
        if delta in merged and merged[delta] != summary:
            raise CacheCorruption(
                path, [(0, "", f"new entry for {delta} conflicts with stored value")]
            )
        merged[delta] = summary
    _write_atomic(path, merged)


def quarantine(path: str) -> tuple[int, int]:
    """Strip corrupt lines from a cache, appending them to path + '.quarantined'.

    Returns (entries kept, lines quarantined).  The cleaned cache is written
    atomically; the original bad lines, bytes that are not UTF-8 included,
    stay in the side file.
    """
    data, bad = scan_lines(path)
    if bad:
        with open(path + ".quarantined", "a", encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, raw, reason in bad:
                fh.write(f"# line {lineno}: {reason}\n{raw}\n")
        _write_atomic(path, data)
    return len(data), len(bad)
