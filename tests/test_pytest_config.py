"""The project's pytest settings report a failing Hypothesis test as a
failure, and no test module defines a test that a later one shadows."""

import ast
import collections
import pathlib
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"

FAILING_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_always_fails(x):
    assert x != x
'''


def test_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # writing the failure patch imports libcst, which raises a
    # DeprecationWarning that the warnings-as-errors filters must let pass
    test_file = tmp_path / "test_fails.py"
    test_file.write_text(FAILING_TEST)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         str(test_file)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr


def test_no_module_defines_a_top_level_function_twice():
    # a second definition replaces the first, so pytest never collects it
    shadowed = {}
    for path in sorted(TESTS.glob("test_*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = collections.Counter(
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        twice = sorted(name for name, n in names.items() if n > 1)
        if twice:
            shadowed[path.name] = twice
    assert shadowed == {}
