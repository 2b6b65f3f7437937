"""Every exported name resolves: each module's __all__ and the package's imports."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import seglab

INIT = Path(seglab.__file__)
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(INIT.parent)]))


def package_imports() -> list[str]:
    """``module.name`` for each name that seglab/__init__.py imports from its modules."""
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(f"seglab.{module_name}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"seglab.{module_name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("qualified", package_imports())
def test_package_import_resolves(qualified):
    module_name, name = qualified.split(".")
    assert hasattr(importlib.import_module(f"seglab.{module_name}"), name)
    assert hasattr(seglab, name)
