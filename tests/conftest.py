"""Shared fixtures for the test suite.

The expensive Monte Carlo study (10^3 replicates of an n=10^4 path at
c=0.5) is produced once per session through the ``montecarlo`` CLI
handler and shared by the estimation and acceptance tests.

Property tests run under one Hypothesis profile: derandomized, so every
run replays the same examples, and with no deadline, so a loaded machine
does not fail them on time.
"""

import json

import pytest
from hypothesis import settings

from armax_extremes import cli

settings.register_profile("replay", derandomize=True, deadline=None)
settings.load_profile("replay")


MC_SEED = 20240817
MC_N = 10_000
MC_REPLICATES = 1_000
MC_C_TRUE = 0.5


@pytest.fixture(scope="session")
def mc_study(tmp_path_factory):
    """Replicate-level estimates and the summary JSON at c=0.5.

    Returns a dict with the raw rows (as lists of floats per column)
    and the parsed summary.
    """
    out = tmp_path_factory.mktemp("mc") / "replicates.csv"
    config = cli.resolve_run_config(
        cli.run_config_from_dict(
            {
                "command": "montecarlo",
                "process": {
                    "d": 1,
                    "c": [MC_C_TRUE],
                    "margins": [{"kind": "frechet", "alpha": 1.0}],
                    "copula": {"kind": "independence"},
                },
                "n": MC_N,
                "seed": MC_SEED,
                "replicates": MC_REPLICATES,
                "output_path": str(out),
            }
        )
    )
    status = cli.run(config)
    assert status == 0
    columns = {"c_moment": [], "c_lebedev": [], "c_dr": []}
    with open(out, newline="") as fh:
        header = fh.readline().strip().split(",")
        idx = {name: header.index(name) for name in columns}
        for line in fh:
            parts = line.strip().split(",")
            for name in columns:
                columns[name].append(float(parts[idx[name]]))
    with open(str(out) + ".summary.json") as fh:
        summary = json.load(fh)
    return {
        "csv_path": str(out),
        "summary": summary,
        "n": MC_N,
        "c_true": MC_C_TRUE,
        **columns,
    }
