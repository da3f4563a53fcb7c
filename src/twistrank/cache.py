"""Persistent class-data cache: newline-delimited JSON keyed by discriminant.

Each line is an object {"delta": ..., "h": ..., "three_torsion": ...} with
keys in sorted order.  A line in exactly that form is parsed by one pattern
(_CANONICAL); any other line, a valid one with other key order or spacing
included, goes through json.loads.  Every line is re-validated: delta must be
a discriminant (nonzero, 0 or 1 mod 4, not a square), h positive and the
3-torsion a power of 3 dividing h, with one exact_log per distinct torsion
value.  Fundamentality is not re-checked, since factoring each delta would
cost more than the whole load.

One reader (scan_lines) makes every check and keeps each entry as its
(h, 3-torsion) pair, the class data a scan takes and gives (load, save); no
summary is built.

The cache only ever gains entries; rewrites go through a temporary file and
an atomic rename, so a crash can never leave a half-written cache behind, and
keep the permission bits of the file they replace (a new file gets 0o666 less
the umask).  A cache reached through a symlink is rewritten at the link's
target, and the link stays.  A save holds an exclusive flock on that target
from its reload to its rename, so concurrent saves each keep the other's
entries.
"""

from __future__ import annotations

import fcntl
import json
import os
import re
import stat
from collections.abc import Iterator
from contextlib import contextmanager

from .classgroup import ClassData, _check_discriminant, _three_rank

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


def _parse_json(line: str) -> tuple[int, int, int]:
    """(delta, h, 3-torsion) of a line that is not in _CANONICAL's form."""
    obj = json.loads(line)
    if not isinstance(obj, dict) or set(obj) != {"delta", "h", "three_torsion"}:
        raise ValueError("keys must be exactly delta, h, three_torsion")
    delta, h, torsion = obj["delta"], obj["h"], obj["three_torsion"]
    for name, v in (("delta", delta), ("h", h), ("three_torsion", torsion)):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{name} must be an integer")
    return delta, h, torsion


def scan_lines(path: str) -> tuple[ClassData, list[BadLine]]:
    """Read a cache, keeping valid entries and collecting invalid lines.

    Later duplicates of a discriminant must agree with the first occurrence;
    a conflicting duplicate is reported as corrupt rather than resolved.
    Bytes that are not UTF-8 are read as surrogate escapes, so such a line
    fails to parse like any other corrupt line and keeps its bytes.
    """
    pairs: ClassData = {}
    bad: list[BadLine] = []
    ranks: dict[int, int] = {}  # each 3-torsion value checked so far -> its 3-rank
    fullmatch = _CANONICAL.fullmatch
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                match = fullmatch(line)
                delta, h, torsion = map(int, match.groups()) if match else _parse_json(line)
                # A negative delta ≡ 0, 1 mod 4 is a discriminant, and a positive
                # h divisible by a torsion value in ranks passes every count
                # check; any other entry takes the full checks, which raise
                # summary_from_counts's messages (and put a new torsion value
                # that is a power of 3 into ranks).
                if delta >= 0 or delta % 4 > 1:
                    _check_discriminant(delta)
                if h < 1 or torsion not in ranks or h % torsion:
                    _three_rank(h, torsion, ranks)
            except (ValueError, ArithmeticError) as exc:
                bad.append((lineno, raw.rstrip("\n"), str(exc)))
                continue
            pair = h, torsion
            if pairs.setdefault(delta, pair) != pair:
                bad.append(
                    (lineno, raw.rstrip("\n"), f"conflicts with earlier entry for {delta}")
                )
    return pairs, bad


def load(path: str) -> ClassData:
    """Load a cache, raising CacheCorruption if any line fails validation."""
    pairs, bad = scan_lines(path)
    if bad:
        raise CacheCorruption(path, bad)
    return pairs


def _file_mode(path: str) -> int:
    """Permission bits for a rewrite of path: those of the file it replaces,
    or 0o666 less the umask for a new file, as open() would create it."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _write_atomic(path: str, pairs: ClassData) -> None:
    # imported here, as only a rewrite needs it: with the shutil and random it
    # loads, it costs a process that writes no cache (a warm rescan) about 4 ms
    import tempfile

    # a symlink stays a link: the temporary file and the rename go to its target
    path = os.path.realpath(path)
    directory = os.path.dirname(path)
    mode = _file_mode(path)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cache-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # the bytes json.dumps(..., sort_keys=True) gives for int values
            fh.writelines(
                f'{{"delta": {d}, "h": {h}, "three_torsion": {t}}}\n'
                for d, (h, t) in sorted(pairs.items())
            )
        # mkstemp creates the file 0600, and the rename keeps that mode
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextmanager
def _locked(path: str) -> Iterator[str]:
    """Hold an exclusive flock on the file that path resolves to, created
    empty if missing, and give that file's path.

    Every rewrite renames a new file over the target, so a writer that waited
    on the lock of a replaced file finds the target's inode changed and locks
    the new one instead: writers that lock one path are serialized.
    """
    target = os.path.realpath(path)
    while True:
        # read-only suffices for flock, so a read-only cache can still be replaced
        fd = os.open(target, os.O_RDONLY | os.O_CREAT, 0o666)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            held = os.fstat(fd)
            try:
                current = os.stat(target)
            except FileNotFoundError:
                current = None
        except BaseException:
            os.close(fd)
            raise
        if current is not None and os.path.samestat(held, current):
            break
        os.close(fd)
    try:
        yield target
    finally:
        os.close(fd)


def save(path: str, data: ClassData) -> None:
    """Write the cache atomically, entries sorted by discriminant.

    Entries already on disk are preserved: the stored file becomes the union
    of the existing valid entries and data.  The whole reload, merge and
    rename holds an exclusive lock on the cache's file, so concurrent savers
    keep each other's entries.
    """
    with _locked(path) as target:
        merged = load(target)
        for delta, pair in data.items():
            if merged.setdefault(delta, pair) != pair:
                raise CacheCorruption(
                    path, [(0, "", f"new entry for {delta} conflicts with stored value")]
                )
        _write_atomic(target, merged)


def quarantine(path: str) -> tuple[int, int]:
    """Strip corrupt lines from a cache, appending them to path + '.quarantined'.

    Returns (entries kept, lines quarantined).  The cleaned cache is written
    atomically; the original bad lines, bytes that are not UTF-8 included,
    stay in the side file.
    """
    pairs, bad = scan_lines(path)
    if bad:
        with open(path + ".quarantined", "a", encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, raw, reason in bad:
                fh.write(f"# line {lineno}: {reason}\n{raw}\n")
        _write_atomic(path, pairs)
    return len(pairs), len(bad)
