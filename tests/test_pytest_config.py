"""The project's pytest settings report a failing Hypothesis test as a failure."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

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
