"""Every exported name resolves, and every package-level name is exported."""

import importlib
import pkgutil

import pytest

import addlab

MODULES = [importlib.import_module(f"addlab.{m.name}")
           for m in pkgutil.iter_modules(addlab.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


def test_package_reexports_are_exported():
    # a name addlab re-exports must be in the __all__ of the module defining it
    stale = []
    for name, obj in vars(addlab).items():
        home = getattr(obj, "__module__", None)
        if name.startswith("_") or home is None or not home.startswith("addlab."):
            continue
        if name not in getattr(importlib.import_module(home), "__all__", [name]):
            stale.append(f"{home}.{name}")
    assert not stale, f"re-exported but not in __all__: {stale}"
