"""Run one twistrank CLI invocation in this process with its layers traced.

Usage: python3 perfbench/tracer.py SPANS_JSON ARGV...

Imports twistrank, wraps each layer's public functions at every module
attribute that binds them (so `cli.class_group_summary`,
`stats.class_group_summary` and `classgroup.class_group_summary` all reach
one wrapper), calls `twistrank.cli.main(ARGV)` and exits with its return
code.  The program's source is not changed.

Spans `(name, start, end, parent)` are kept in memory and written to
SPANS_JSON when `main` returns, together with the tallies: call counts of the
functions too hot to span, and sums taken from results (forms enumerated,
class numbers, cache entries).
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# Layer functions that get a span per call, by defining module.
SPANNED = {
    "arith": ("factorize", "squarefree_flags"),
    "classgroup": (
        "reduced_forms",
        "class_group_summary",
        "analytic_class_number_oracle",
        "brute_force_group_structure",
    ),
    "discriminants": ("is_fundamental", "enumerate_progression"),
    "selmer": ("twist_record",),
    "stats": ("compute_class_data", "scan_family"),
    "cache": ("load", "save"),
    "cli": ("main",),
}

# Counted but not spanned: xgcd runs millions of times per scan, and a span
# each would dwarf the composition work it is part of.
COUNTED = {"arith": ("xgcd",)}

# Sums taken from a spanned call's arguments and result, keyed by span name.
TALLIES = {
    "classgroup.reduced_forms": lambda args, out: {"forms": len(out)},
    "classgroup.class_group_summary": lambda args, out: {
        "h": out.class_number,
        "three_torsion": out.three_torsion,
        "h_div3": int(out.class_number % 3 == 0),
    },
    "stats.compute_class_data": lambda args, out: {"computed": len(out)},
    "stats.scan_family": lambda args, out: {"twists": out.report.family_size},
    "cache.load": lambda args, out: {"entries": len(out)},
    "cache.save": lambda args, out: {"entries": len(args[1])},
}


class Tracer:
    """In-memory span recorder for one single-threaded invocation."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.tallies: Counter[str] = Counter()
        self._stack: list[int] = []
        self._counts: dict[str, list[int]] = {}

    def spanned(self, name: str, fn):
        spans, stack, tallies = self.spans, self._stack, self.tallies
        tally = TALLIES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent)
                stack.pop()
            if tally is not None:
                for key, value in tally(args, out).items():
                    tallies[f"{name}.{key}"] += value
            return out

        return wrapper

    def counted(self, name: str, fn):
        cell = self._counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def dump(self, path: str) -> None:
        for name, cell in self._counts.items():
            self.tallies[f"{name}.calls"] = cell[0]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "tallies": self.tallies}, fh)


def install(tracer: Tracer) -> None:
    """Replace every twistrank module attribute bound to a traced function."""
    import twistrank  # noqa: F401  (loads every layer module)
    import twistrank.cli  # noqa: F401

    modules = [
        m for name, m in sys.modules.items()
        if name == "twistrank" or name.startswith("twistrank.")
    ]
    for table, make in ((SPANNED, tracer.spanned), (COUNTED, tracer.counted)):
        for module_name, functions in table.items():
            module = sys.modules[f"twistrank.{module_name}"]
            for fn_name in functions:
                fn = getattr(module, fn_name)
                wrapper = make(f"{module_name}.{fn_name}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    import twistrank.cli

    try:
        return twistrank.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
