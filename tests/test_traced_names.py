"""Every function the benchmark's tracer wraps exists in cfku.

perfbench/tracing.py names its targets as strings ("<module>.<function>",
or "<module>.<Class>.<method>"); a renamed or deleted target would break
traced benchmark runs, so the names are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_every_traced_target_resolves():
    assert tracing.TRACED
    for target in tracing.TRACED:
        module, *path = target.split(".")
        obj = importlib.import_module("cfku." + module)
        for name in path:
            assert hasattr(obj, name), target
            obj = getattr(obj, name)
        assert callable(obj), target


def test_homology_reads_the_one_subquotient():
    # the tracer rebinds complexes.subquotient in every namespace that
    # holds it, so homology must hold that same function
    from cfku import complexes, homology

    assert homology.subquotient is complexes.subquotient
