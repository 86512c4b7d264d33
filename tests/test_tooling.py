"""The bench tracer wraps library functions by name; every name it lists
must resolve, or a rename would silently break a traced bench run."""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_tables_resolve_on_the_package():
    tracer = _load_tracer()
    for name in tracer.MODULES:
        importlib.import_module("forestalg." + name)
    entries = [row[:2] for row in tracer.SPANNED + tracer.COUNTED]
    assert ("algebra", "quotient_by_ideal") in entries
    for modname, attr in entries:
        target = importlib.import_module("forestalg." + modname)
        for part in attr.split("."):
            assert hasattr(target, part), "%s.%s" % (modname, attr)
            target = getattr(target, part)
        assert callable(target), "%s.%s" % (modname, attr)
