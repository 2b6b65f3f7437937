"""The traced benchmark wraps seglab functions by name; every name must exist."""
import ast
import importlib
from pathlib import Path

import pytest

RUN_BENCH = Path(__file__).resolve().parents[1] / "bench" / "run_bench.py"
CALLS = RUN_BENCH.parent / "calls.py"


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


def cli_reads() -> list[str]:
    """Each name that the benchmark's unit calls read as ``cli.<name>``."""
    tree = ast.parse(CALLS.read_text(encoding="utf-8"))
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cli"
    }
    if not names:
        raise AssertionError(f"no cli.<name> reads in {CALLS}")
    return sorted(names)


@pytest.mark.parametrize("name", cli_reads())
def test_benchmark_cli_read_resolves(name):
    assert hasattr(importlib.import_module("seglab.cli"), name)
