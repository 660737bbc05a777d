"""Public names: every export listed in an __all__ resolves, every name a
module imports is used, and every module-level private name is read."""

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


def _private_definitions(tree):
    """(name, node) of every module-level private def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_name_is_used():
    # a private helper that nothing in src/ reads any more (say a stencil
    # routine left behind by its replacement) is dead code
    trees = [ast.parse(pathlib.Path(importlib.import_module(name).__file__).read_text())
             for name in MODULES]
    reads = [(n, n.id if isinstance(n, ast.Name) else n.attr)
             for tree in trees for n in ast.walk(tree)
             if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]
    dead = []
    for mod, tree in zip(MODULES, trees):
        for name, node in _private_definitions(tree):
            own = {id(n) for n in ast.walk(node)}
            if not any(read == name and id(n) not in own for n, read in reads):
                dead.append(f"{mod}.{name}")
    assert dead == []


def test_readme_layout_names_every_module():
    # the Layout block of the README describes each module of src/kinb
    path = pathlib.Path(__file__).parent.parent / "README.md"
    block = path.read_text(encoding="utf-8").split("## Layout", 1)[1].split("```")[1]
    listed = {line.split()[0] for line in block.splitlines()
              if line.startswith("  ") and line.split()[0].endswith(".py")}
    assert listed == {name.split(".")[1] + ".py" for name in MODULES}
