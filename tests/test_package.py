"""The package namespace re-exports every public name of its modules,
and every private module-level name is used somewhere in the package."""

import ast
import importlib
import pathlib

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


def test_every_private_module_name_is_used():
    # a module-level private function, class or constant that nothing in
    # the package reads is dead code: loaded names and attribute reads
    # count, definitions, imports and docstrings do not
    source = pathlib.Path(armax_extremes.__file__).parent
    defined, used = {}, set()
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[f"{path.stem}.{name}"] = name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert len(defined) > 100
    assert [key for key, name in defined.items() if name not in used] == []
