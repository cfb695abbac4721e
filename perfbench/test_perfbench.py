"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

Runs every workload once at tiny size, traced and untraced, and checks
the tracer's self-time arithmetic.  The repository's own suite does not
collect this file (its testpaths is ``tests``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import workloads
from tracer import Tracer, self_times, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    # root [0, 10] has children A [1, 4] and B [3, 6], which overlap, and
    # C [9, 12], which outlives it; A has a child [2, 3].
    start = [0.0, 1.0, 2.0, 3.0, 9.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    assert self_times(start, end, parent) == pytest.approx([10 - 5 - 1, 2.0, 1.0, 3.0, 3.0])


def test_self_time_does_not_depend_on_span_order():
    start = [3.0, 0.0, 1.0]
    end = [6.0, 10.0, 4.0]
    parent = [1, -1, 1]
    assert self_times(start, end, parent) == pytest.approx([3.0, 5.0, 3.0])


def _fake_package():
    home = types.ModuleType("home")
    other = types.ModuleType("other")

    def inner(x):
        return [x] * x

    def outer(x):
        return home.inner(x)

    home.inner, home.outer = inner, outer
    other.outer = outer  # imported by name elsewhere
    return {"home": home, "other": other}


def test_tracer_wraps_every_alias_nests_spans_counts_and_tolerates_absent_targets():
    modules = _fake_package()
    original = modules["home"].outer
    tracer = Tracer()
    tracer.install(
        modules,
        [
            ("home", "outer", None),
            ("home", "inner", lambda result: {"home.rows": len(result)}),
            ("home", "moved_away", None),
        ],
    )
    assert modules["other"].outer(3) == [3, 3, 3]
    tracer.uninstall()
    assert modules["other"].outer is original and modules["home"].outer is original

    assert tracer.absent == ["home.moved_away"]
    assert tracer.counts == {"home.rows": 3}
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["home.outer", "home.inner"]
    assert list(tracer.parent) == [-1, 0]
    trace = {
        "names": tracer.names,
        "name_id": list(tracer.name_id),
        "parent": list(tracer.parent),
        "start": list(tracer.start),
        "end": list(tracer.end),
        "outer": list(tracer.outer),
    }
    summary = summarize(trace)
    outer, inner = summary["home.outer"], summary["home.inner"]
    assert outer["calls"] == inner["calls"] == 1
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"])


def _bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_once_at_tiny_size(workload, trace):
    out = _bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == expected
    assert info["env"]["nproc"] >= 1
    if workload == "theory-sweep":
        # the two lag-0 within-series TDC cells on exponential and GPD
        # margins raise NumericLimitError; 49 operations per tiny sweep
        assert result["failed"] * 49 == result["attempted"] * 2
    else:
        assert result["failed"] == 0


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = _bench(str(tmp_path), "mc-study", 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
