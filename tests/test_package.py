"""The package namespace re-exports every public name of its modules."""

import importlib

import pytest

import armax_extremes

MODULES = ("armax", "copulas", "errors", "estimation", "extremal", "margins", "taildep")


@pytest.mark.parametrize("name", MODULES)
def test_package_reexports_module_public_names(name):
    module = importlib.import_module(f"armax_extremes.{name}")
    for public in module.__all__:
        assert public in armax_extremes.__all__
        assert getattr(armax_extremes, public) is getattr(module, public)
