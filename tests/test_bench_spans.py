"""Every name the benchmark's tracer patches must exist where it looks it up.

``bench/spans.py`` wraps functions and methods by module and attribute name;
a name that moved would otherwise drop its layer from the trace silently.
"""

import importlib
import importlib.util
import types
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()
KINDS = {"function": types.FunctionType, "staticmethod": staticmethod, "classmethod": classmethod}


@pytest.mark.parametrize("module_name, attr", [entry[:2] for entry in SPANS._FUNCTIONS])
def test_function_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("module_name, cls, attr, kind", [entry[:4] for entry in SPANS._METHODS])
def test_method_resolves_with_its_kind(module_name, cls, attr, kind):
    owner = getattr(importlib.import_module(module_name), cls)
    assert isinstance(owner.__dict__[attr], KINDS[kind])
