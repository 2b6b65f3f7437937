"""The traced benchmark wraps seglab functions by name; every name must exist."""
import ast
import importlib
from pathlib import Path

import pytest

RUN_BENCH = Path(__file__).resolve().parents[1] / "bench" / "run_bench.py"


def layer_names() -> list[str]:
    tree = ast.parse(RUN_BENCH.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return [entry[0] for entry in ast.literal_eval(node.value)]
    raise AssertionError(f"no LAYERS table in {RUN_BENCH}")


@pytest.mark.parametrize("name", layer_names())
def test_layer_resolves_to_a_seglab_attribute(name):
    module_name, attr = name.split(".")
    module = importlib.import_module(f"seglab.{module_name}")
    if name == "grid.maps_built":  # counted at the constructors of the three map types
        for cls in ("LabelMap", "ProbabilityMap", "GradientMap"):
            assert callable(getattr(module, cls).__init__)
    else:
        assert callable(getattr(module, attr))
