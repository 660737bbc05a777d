"""Public names: every export listed in an __all__ resolves."""

import importlib
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
