import importlib
import pkgutil

import pytest

import celldiv

MODULES = sorted(m.name for m in pkgutil.iter_modules(celldiv.__path__))


def test_package_exports_resolve():
    missing = [name for name in celldiv.__all__ if not hasattr(celldiv, name)]
    assert not missing


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"celldiv.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
