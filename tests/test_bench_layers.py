"""The benchmark's tracer wraps library functions by name; they must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for span, (module_name, funcs) in tracer.LAYERS.items():
        module = importlib.import_module(module_name)
        for name in funcs:
            assert callable(getattr(module, name, None)), f"{span}: {module_name}.{name}"
