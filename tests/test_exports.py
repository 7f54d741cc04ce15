"""Every name a levyap module exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import levyap

MODULES = sorted(info.name for info in pkgutil.iter_modules(levyap.__path__))


def test_every_module_is_found():
    assert {"cli", "coefficients", "solver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    module = importlib.import_module(f"levyap.{name}")
    exported = getattr(module, "__all__", None)
    assert exported, f"levyap.{name} has no __all__"
    assert len(set(exported)) == len(exported), f"levyap.{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"levyap.{name}.__all__ names what it lacks: {missing}"
