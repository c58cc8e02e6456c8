"""The benchmark's tracer must find every name it wraps.

``bench/spans.py`` replaces functions at their import sites by name, so a
refactor that moves or renames one breaks ``bench/run.py --trace 1``.  The
module is executed from its source text and only read.
"""

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    # Executed from its source, so that no bytecode is written beside it.
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


spans = load_spans()


def layer_of(span_name):
    layer = span_name.split(".")[0]
    assert layer in spans.LAYERS
    return layer


@pytest.mark.parametrize("module, attr, span_name", spans.SITES)
def test_every_wrapped_site_resolves_to_its_layer(module, attr, span_name):
    fn = getattr(importlib.import_module(f"tfsm.{module}"), attr)
    assert callable(fn)
    assert fn.__module__ == f"tfsm.{layer_of(span_name)}"


@pytest.mark.parametrize("attr, span_name", sorted(spans.API_NAMES.items()))
def test_every_benchmark_api_name_resolves_in_its_layer(attr, span_name):
    fn = getattr(importlib.import_module(f"tfsm.{layer_of(span_name)}"), attr)
    assert callable(fn)
    assert fn.__module__ == f"tfsm.{layer_of(span_name)}"
