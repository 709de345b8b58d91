"""The benchmark tracer wraps package functions by name; every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for module, name, _ in tracer.LAYER_FUNCTIONS
               if not callable(getattr(importlib.import_module(f"gridstrength.{module}"), name, None))]
    assert tracer.LAYER_FUNCTIONS and missing == []
