"""The benchmark's own output checks, run in process.

`perfbench/workloads.py` compares every workload's outputs with
`perfbench/references.json`; a run whose outputs differ is refused as
incorrect.  These tests load the benchmark's modules by path and run
the same checks on the tiny inputs (and the full theory sweep), so an
output drift fails the suite too.  They only read `perfbench/`.

The references' tolerance cannot see an ulp, so the theory sweep's
outcomes are also pinned as float hex in `theory_sweep_bits.json`,
written by `make_theory_sweep_bits.py` beside it.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

from armax_extremes import cli
from make_theory_sweep_bits import BITS, sweep_bits

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
theory = _load("theory")
REFERENCES = workloads.load_references()


@pytest.mark.parametrize("size", ["full", "tiny"])
def test_theory_sweep_matches_the_references(size):
    ops = theory.operations(size)
    outcomes = theory.run_sweep(ops, list(range(len(ops))))
    failed, mismatched = workloads.check_theory(REFERENCES, size == "tiny", outcomes)
    assert failed == [] and mismatched == []


@pytest.mark.parametrize("size, count", [("full", 178), ("tiny", 49)])
def test_theory_sweep_keeps_its_bits(size, count):
    pinned = json.loads(BITS.read_text())[size]
    assert len(pinned) == count
    assert sweep_bits(theory, size) == pinned


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("workload", ["cli-pipeline", "mc-study"])
def test_cli_workload_matches_the_references(workload, seed, tmp_path, monkeypatch):
    # the configs name their files relative to the work dir, as the
    # benchmark runs them
    monkeypatch.chdir(tmp_path)
    for op in workloads.write_cli_inputs(workload, seed, True, str(tmp_path)):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(list(op.argv))
        assert exit_info.value.code == 0, op.command
        assert workloads.check_cli_output(REFERENCES, workload, seed, True, op, str(tmp_path)), op.command
