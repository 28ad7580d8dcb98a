"""Tooling guards: no package module imports a name it never references, and
the package's ``__all__`` lists exactly the public names it binds."""

import ast
import inspect
from pathlib import Path

import pytest

import blgisim

MODULES = sorted(p for p in Path(blgisim.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_references_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - referenced) == []


def test_all_lists_each_public_name_bound_in_the_package_once():
    public = {
        name for name, value in vars(blgisim).items() if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(blgisim.__all__) == len(set(blgisim.__all__))
    assert set(blgisim.__all__) == public | {"__version__"}
