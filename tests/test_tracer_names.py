"""Every program name the benchmark's tracer looks up still exists.

``perfbench/trace.py`` rebinds the functions and patches the methods it
finds by name, and reports a name it cannot find as absent: a traced run
then still exits 0, but the metrics of that layer read ``null``.  So a name
in its tables is part of the benchmark, and deleting one fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"
spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
trace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trace)


@pytest.mark.parametrize("module, name", [row[:2] for row in trace.FUNCTIONS])
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))


@pytest.mark.parametrize("module, cls, name", [row[:3] for row in (*trace.METHODS, *trace.COUNTED)])
def test_traced_method_is_defined_on_its_class(module, cls, name):
    assert name in vars(getattr(importlib.import_module(module), cls))
