"""The benchmark's traced run wraps thetadim functions by name; each must exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path


def test_traced_names_are_functions_of_their_modules():
    # the traced benchmark run looks each of these names up in its module
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for modname, names in tracer.TRACED.items():
        module = importlib.import_module(f"thetadim.{modname}")
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, (modname, name)
