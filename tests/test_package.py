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


def test_module_public_names_exist_and_are_disjoint():
    # the package star-imports each module, so a name listed twice would
    # let a later module shadow an earlier one's
    seen = {}
    for name in MODULES:
        module = importlib.import_module(f"armax_extremes.{name}")
        for public in module.__all__:
            assert hasattr(module, public), f"{name}.{public}"
            assert public not in seen, f"{public} in both {seen.get(public)} and {name}"
            seen[public] = name
    assert sorted(armax_extremes.__all__) == sorted(["__version__", *seen])
