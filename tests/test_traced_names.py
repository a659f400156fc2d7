"""The benchmark's traced layer names still name functions in sedfuse."""

import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _traced_module():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    traced = _traced_module()
    names = set(traced.LAYER_STATS) | set(traced.COUNTS)
    missing = []
    for name in sorted(names):
        module_name, function = name.split(".")
        module = importlib.import_module(f"sedfuse.{module_name}")
        if not callable(getattr(module, function, None)):
            missing.append(name)
    assert not missing, f"traced but not defined in sedfuse: {missing}"
