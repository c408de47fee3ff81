"""The per-layer names BENCHMARK.json declares must name code that exists.

A traced benchmark run reads each per-layer value by name, so a function
renamed or moved out of its module makes that run fail with KeyError.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())

# spans and counters the tracer puts on QuotientGroup's methods itself
METHOD_SPANS = {("groups", "mult_table"), ("groups", "QuotientGroup")}

FUNCTION_NAMES = [entry["name"] for entry in BENCHMARK["per_layer"]
                  if not entry["name"].startswith("trace_")
                  and len(entry["name"].split(".")) > 2
                  and tuple(entry["name"].split(".")[:2]) not in METHOD_SPANS]


def test_per_layer_names_are_public_module_functions():
    missing = []
    for name in FUNCTION_NAMES:
        module_name, attr = name.split(".")[:2]
        module = importlib.import_module(f"euciso.{module_name}")
        obj = getattr(module, attr, None)
        if (not inspect.isfunction(obj) or obj.__module__ != module.__name__
                or attr.startswith("_")):
            missing.append(name)
    assert FUNCTION_NAMES and missing == []
