"""perfbench/tracer.py wraps twistrank functions by name when it installs:
every name it spans or counts must stay bound, and every tally it takes from
a call's arguments and result must still compute, or each traced benchmark
run fails.  The tracer is read and run as a plain script, not imported, so no
bytecode is written next to it and its install() is never called.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
TRACER_GLOBALS = runpy.run_path(str(TRACER), run_name="perfbench_tracer")


@pytest.mark.parametrize("table", ["SPANNED", "COUNTED"])
def test_every_traced_name_is_bound(table):
    names = [(m, fn) for m, fns in TRACER_GLOBALS[table].items() for fn in fns]
    assert names
    for module_name, fn_name in names:
        module = importlib.import_module(f"twistrank.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"twistrank.{module_name}.{fn_name}"


def test_every_tally_computes_on_a_real_result(tmp_path):
    from twistrank import cache, classgroup, stats

    path = str(tmp_path / "c.ndjson")
    result = stats.scan_family(1, 400)
    cache.save(path, result.new_class_data)
    calls = {
        "classgroup.reduced_forms": ((-23,), classgroup.reduced_forms(-23)),
        "classgroup.class_group_summary": ((-23,), classgroup.class_group_summary(-23)),
        "stats.compute_class_data": (([-23, 229],), stats.compute_class_data([-23, 229])),
        "stats.scan_family": ((1, 400), result),
        "cache.load": ((path,), cache.load(path)),
        "cache.save": ((path, result.new_class_data), None),
    }
    tallies = TRACER_GLOBALS["TALLIES"]
    assert set(calls) == set(tallies)
    for name, (args, out) in calls.items():
        values = tallies[name](args, out)
        assert values and all(type(v) is int for v in values.values()), name
    assert tallies["cache.load"](*calls["cache.load"]) == {"entries": 7}
    assert tallies["cache.save"](*calls["cache.save"]) == {"entries": 7}
    assert tallies["stats.scan_family"](*calls["stats.scan_family"]) == {"twists": 7}
