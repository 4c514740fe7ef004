import importlib
import pkgutil

import pytest

import celldiv

MODULES = sorted(m.name for m in pkgutil.iter_modules(celldiv.__path__))


def test_package_namespace_holds_only_its_submodules():
    # Public names are imported from their module, never from the package.
    for module in MODULES:
        importlib.import_module(f"celldiv.{module}")
    public = sorted(name for name in vars(celldiv) if not name.startswith("_"))
    assert public == MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"celldiv.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
