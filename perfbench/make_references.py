"""Regenerate ``references.json`` from the package in this checkout.

    python3 perfbench/make_references.py

Run it only when the package's outputs are meant to change, and say why
in the change that commits the new file.  Every input variant the
benchmark can generate is run once at both sizes.  The two lag-0
within-series TDC cells that currently raise get their analytic value:
a series is comonotone with itself, so the coefficient is exactly 1.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
import workloads


def cli_references(workload: str, tiny: bool, seeds) -> dict:
    out = {}
    for seed in seeds:
        program_seed = workloads.variant(workload, seed)
        workdir = tempfile.mkdtemp(dir=run.WORK_ROOT)
        try:
            ops = workloads.write_cli_inputs(workload, seed, tiny, workdir)
            out[program_seed] = {}
            for op in ops:
                _, _, _, code = run.spawn(["-m", "armax_extremes.cli", *op.argv], workdir, os.devnull)
                if code != 0:
                    raise SystemExit(f"{workload} {op.command} exited with {code}")
                out[program_seed][op.command] = workloads.observe_cli_output(op, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return out


def theory_references(tiny: bool) -> dict:
    sys.path.insert(0, run.SRC)
    import theory

    ops = theory.operations(workloads.size_name(tiny))
    outcomes = theory.run_sweep(ops, list(range(len(ops))))
    for key, value in outcomes.items():
        if isinstance(value, str):
            cell = key.removeprefix("tdc:").split(",")
            if not key.startswith("tdc:") or cell[0] != cell[1] or cell[2] != "0":
                raise SystemExit(f"{key} raised {value} and has no analytic reference")
            outcomes[key] = [1.0]
    return {"fixed": outcomes}


def main() -> None:
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    refs: dict = {}
    for workload, seeds in (
        ("cli-pipeline", range(len(workloads.PIPELINE_SEEDS))),
        ("mc-study", range(len(workloads.MC_SEEDS))),
    ):
        refs[workload] = {
            size: cli_references(workload, size == "tiny", seeds) for size in ("full", "tiny")
        }
    refs["theory-sweep"] = {size: theory_references(size == "tiny") for size in ("full", "tiny")}
    with open(workloads.REFERENCES_PATH, "w") as f:
        json.dump(refs, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


if __name__ == "__main__":
    main()
