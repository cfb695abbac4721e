"""Write `theory_sweep_bits.json`: every outcome of the full and tiny
``theory-sweep`` workload (`perfbench/theory.py`), floats as float hex.

    PYTHONPATH=src python tests/make_theory_sweep_bits.py

`test_benchmark_outputs.py` checks every outcome against this file bit
for bit.  Rewrite it only with a change that moves outputs on purpose,
and list the keys that moved in CHANGES.md.
"""

import importlib.util
import json
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
BITS = TESTS / "theory_sweep_bits.json"


def load_theory():
    """`perfbench/theory.py`, loaded by path."""
    path = TESTS.parent / "perfbench" / "theory.py"
    spec = importlib.util.spec_from_file_location("perfbench_theory", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bits(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return value  # a bool, an int or the name of the exception raised


def sweep_bits(theory, size: str) -> dict:
    """Each operation's outcome in the sweep of ``size``, floats as hex."""
    ops = theory.operations(size)
    return {key: _bits(outcome) for key, outcome in theory.run_sweep(ops, range(len(ops))).items()}


if __name__ == "__main__":
    theory = load_theory()
    bits = {size: sweep_bits(theory, size) for size in ("full", "tiny")}
    BITS.write_text(json.dumps(bits, indent=1, sort_keys=True) + "\n")
