"""Every name the benchmark's tracer wraps still exists in socle.

bench/spans.py wraps socle's functions and methods by name from the
benchmark's side, so deleting or renaming one breaks the traced
benchmark run (`bench/run.py --trace 1`).  This test loads spans.py
without installing it and resolves each name the way `Tracer.install`
does."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans = load_spans()


@pytest.mark.parametrize("modname, attr", sorted(spans.FUNCTIONS))
def test_traced_function_exists(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr))


@pytest.mark.parametrize("modname, clsname, attr", sorted(spans.METHODS))
def test_traced_method_exists(modname, clsname, attr):
    cls = getattr(importlib.import_module(modname), clsname)
    assert attr in cls.__dict__
