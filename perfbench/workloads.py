"""Workload inputs and output checks for the armax-extremes benchmark.

The benchmark seed picks the program's inputs; the program only sees the
JSON configs written here.  Expected outputs are stored in
``references.json`` next to this file (regenerate with
``make_references.py``).  This module imports nothing from
``armax_extremes``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")

WORKLOADS = ("cli-pipeline", "mc-study", "theory-sweep")

# Derived numbers must agree with the stored references to this relative
# tolerance (plus a small absolute floor for values near zero).  The
# lag-TDC limit divides a cancellation by t = 1e-5, so ulp-level changes
# upstream can move it by ~1e-10 relative; 1e-6 leaves room for that and
# still catches any real change.
REL_TOL = 1e-6
ABS_TOL = 1e-9

# The seed selects one of these program seeds, so every input the
# benchmark can generate has a stored reference.
PIPELINE_SEEDS = (101, 202, 303, 404, 505)
MC_SEEDS = (20240817, 20240818, 20240819, 20240820, 20240821)

PIPELINE_PROCESS = {
    "d": 2,
    "c": [0.5, 0.9],
    "margins": [{"kind": "frechet", "alpha": 1.0}, {"kind": "frechet", "alpha": 1.0}],
    "copula": {"kind": "gumbel", "gamma": 2.0},
}
PIPELINE_TAU_GRID = [[1.0, 1.0], [0.5, 2.0], [2.0, 0.0]]
MC_PROCESS = {
    "d": 1,
    "c": [0.5],
    "margins": [{"kind": "frechet", "alpha": 1.0}],
    "copula": {"kind": "independence"},
}

SIZES = {
    "full": {"pipeline_n": 200_000, "mc_n": 10_000, "mc_replicates": 1000},
    "tiny": {"pipeline_n": 2_000, "mc_n": 500, "mc_replicates": 20},
}

# Output columns compared with the references.  The variance and interval
# columns of ``estimate`` are left out on purpose: the shipped variance
# formula is a documented open defect whose fix will change them.
CHECKED_COLUMNS = {
    "estimate": ["j", "n", "u_bar", "c_moment", "c_lebedev", "c_davis_resnick", "alpha_hill"],
    "tail_dep": ["j", "jp", "r", "lambda_theoretical", "lambda_empirical", "eta_empirical", "regime", "flag"],
    "extremal_index": ["tau_1", "tau_2", "theta_theoretical", "theta_empirical", "k", "n", "flag"],
    "montecarlo": ["replicate", "n", "c_true", "c_moment", "c_lebedev", "c_dr", "flag"],
}
MC_SUMMARY_KEYS = (
    "n",
    "replicates",
    "seed",
    "c_true",
    "bias_c_moment",
    "bias_c_lebedev",
    "bias_c_dr",
    "rmse_c_moment",
    "rmse_c_lebedev",
    "rmse_c_dr",
    "empirical_var_sqrt_n_c_moment",
    "empirical_var_sqrt_n_u_bar",
    "sigma2_at_c_true",
    "normality_pvalue",
)


@dataclass(frozen=True)
class CliOp:
    """One CLI call: ``python -m armax_extremes.cli <argv>`` run in the work dir."""

    command: str  # RunConfig command name, e.g. "tail_dep"
    argv: tuple[str, ...]
    output: str


def size_name(tiny: bool) -> str:
    return "tiny" if tiny else "full"


def variant(workload: str, seed: int) -> str:
    """Key of the stored input variant that ``seed`` selects."""
    if workload == "cli-pipeline":
        return str(PIPELINE_SEEDS[seed % len(PIPELINE_SEEDS)])
    if workload == "mc-study":
        return str(MC_SEEDS[seed % len(MC_SEEDS)])
    return "fixed"


def write_cli_inputs(workload: str, seed: int, tiny: bool, workdir: str) -> list[CliOp]:
    """Write the JSON configs of a CLI workload into ``workdir``; return its calls."""
    size = SIZES[size_name(tiny)]
    program_seed = int(variant(workload, seed))
    if workload == "cli-pipeline":
        n = size["pipeline_n"]
        configs = {
            "simulate": {"process": PIPELINE_PROCESS, "n": n, "seed": program_seed, "output_path": "path.csv"},
            "estimate": {"input_path": "path.csv", "output_path": "estimate.csv"},
            "tail_dep": {"process": PIPELINE_PROCESS, "n": n, "seed": program_seed, "output_path": "tail_dep.csv"},
            "extremal_index": {
                "process": PIPELINE_PROCESS,
                "n": n,
                "seed": program_seed,
                "tau_grid": PIPELINE_TAU_GRID,
                "output_path": "extremal_index.csv",
            },
        }
    elif workload == "mc-study":
        configs = {
            "montecarlo": {
                "process": MC_PROCESS,
                "n": size["mc_n"],
                "seed": program_seed,
                "replicates": size["mc_replicates"],
                "workers": 1,
                "output_path": "replicates.csv",
            }
        }
    else:
        raise ValueError(f"{workload} is not a CLI workload")
    ops = []
    for command, body in configs.items():
        cfg_path = os.path.join(workdir, f"{command}.json")
        with open(cfg_path, "w") as f:
            json.dump({"command": command, **body}, f, sort_keys=True)
        cli_name = command.replace("_", "-")
        ops.append(CliOp(command, (cli_name, "--config", f"{command}.json"), body["output_path"]))
    return ops


def load_references() -> dict:
    with open(REFERENCES_PATH) as f:
        return json.load(f)


def same_value(expected, actual) -> bool:
    """Equality of one output value: numbers within the tolerance, else exact."""
    if isinstance(expected, str) or isinstance(actual, str):
        try:
            expected, actual = float(expected), float(actual)
        except (TypeError, ValueError):
            return str(expected) == str(actual)
    if isinstance(expected, bool) or isinstance(actual, bool) or expected is None or actual is None:
        return expected == actual
    x, y = float(expected), float(actual)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_columns(path: str, columns: list[str]) -> list[list[str]]:
    """Rows of ``path`` restricted to ``columns``, as strings."""
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        idx = [header.index(c) for c in columns]
        return [[parts[i] for i in idx] for parts in (line.rstrip("\n").split(",") for line in f)]


def observe_cli_output(op: CliOp, workdir: str) -> dict:
    """The checked part of one CLI call's output, in reference form."""
    path = os.path.join(workdir, op.output)
    if op.command == "simulate":
        return {"sha256": sha256_file(path)}
    columns = CHECKED_COLUMNS[op.command]
    out = {"columns": columns, "rows": read_columns(path, columns)}
    if op.command == "montecarlo":
        with open(path + ".summary.json") as f:
            summary = json.load(f)
        out["summary"] = {key: summary[key] for key in MC_SUMMARY_KEYS}
    return out


def same_observation(expected, actual) -> bool:
    """Recursive comparison of reference-form observations."""
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and set(expected) == set(actual)
            and all(same_observation(expected[k], actual[k]) for k in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(expected) == len(actual)
            and all(same_observation(e, a) for e, a in zip(expected, actual))
        )
    return same_value(expected, actual)


def check_cli_output(references: dict, workload: str, seed: int, tiny: bool, op: CliOp, workdir: str) -> bool:
    """True when the call's output matches the stored reference."""
    expected = references[workload][size_name(tiny)][variant(workload, seed)][op.command]
    try:
        actual = observe_cli_output(op, workdir)
    except (OSError, ValueError, KeyError, IndexError, json.JSONDecodeError):
        return False
    return same_observation(expected, actual)


def theory_order(seed: int, n_ops: int) -> list[int]:
    """Evaluation order of the theory-sweep operations for ``seed``."""
    order = list(range(n_ops))
    random.Random(seed).shuffle(order)
    return order


def bytes_written(op: CliOp, workdir: str) -> int:
    """Size of every file the call wrote next to its output path."""
    base = os.path.join(workdir, op.output)
    total = 0
    for suffix in ("", ".meta.json", ".summary.json"):
        if os.path.exists(base + suffix):
            total += os.path.getsize(base + suffix)
    return total


def check_theory(references: dict, tiny: bool, outcomes: dict) -> tuple[list[str], list[str]]:
    """Failed and mismatched theory-sweep operations.

    An operation fails when it raised or its values differ from the
    reference; a difference is also a mismatch, which makes the run
    incorrect.
    """
    expected_all = references["theory-sweep"][size_name(tiny)]["fixed"]
    failed, mismatched = [], []
    for key, expected in expected_all.items():
        actual = outcomes.get(key)
        if actual is None or isinstance(actual, str):
            failed.append(key)
        elif not same_observation(expected, actual):
            failed.append(key)
            mismatched.append(key)
    return failed, mismatched
