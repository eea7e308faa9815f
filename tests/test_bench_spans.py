"""The benchmark tracer's span table must name live entry points.

`bench/tracing.py` wraps functions by module attribute and methods by their
owner class's own `__dict__`; a rename, or a method moved into a base class,
would break `--trace 1` without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_module_level_spans_resolve():
    entries = [s for s in load_spans() if s[2] is None]
    assert entries
    for name, module, _owner, attr, _extra in entries:
        mod = importlib.import_module(module)
        assert callable(getattr(mod, attr, None)), "%s: %s.%s" % (name, module, attr)


def test_method_spans_are_defined_on_their_owner():
    entries = [s for s in load_spans() if s[2] is not None]
    assert entries
    for name, module, owner, attr, _extra in entries:
        cls = getattr(importlib.import_module(module), owner)
        assert attr in cls.__dict__, "%s: %s.%s.%s" % (name, module, owner, attr)
