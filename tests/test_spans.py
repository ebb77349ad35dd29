"""The traced benchmark run wraps dtldesign functions by name.

benchmark/spans.py lists, per layer, the module and the function names it
replaces with timed wrappers.  A function renamed or removed in the program
would leave its layer silently empty, so every listed name must exist.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_function_exists():
    missing = []
    for layer, (module_name, functions) in _layers().items():
        module = importlib.import_module(module_name)
        missing += [f"{layer}: {module_name}.{name}" for name in functions
                    if not callable(getattr(module, name, None))]
    assert missing == []
