"""Public names: every export listed in an __all__ resolves, and every
name a module imports is used."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import kinb

MODULES = sorted(m.name for m in pkgutil.iter_modules(kinb.__path__, "kinb."))


def test_package_exports_resolve():
    missing = [name for name in kinb.__all__ if not hasattr(kinb, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(name)
    exports = getattr(mod, "__all__", None)
    assert exports, f"{name} declares no __all__"
    missing = [attr for attr in exports if not hasattr(mod, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_import(name):
    # dead imports still cost every fresh interpreter their compile time
    mod = importlib.import_module(name)
    tree = ast.parse(pathlib.Path(mod.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - used - set(mod.__all__)) == []
