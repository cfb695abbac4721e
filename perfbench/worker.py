"""Child process of the benchmark; it is the only part that imports the package.

    python3 perfbench/worker.py theory --seed N --seconds S [--tiny] --out FILE
        untraced theory-sweep iterations, with reference-kernel passes
        between operations, until S seconds have passed (at least one);
    python3 perfbench/worker.py trace --workload W --seed N [--tiny] --workdir DIR --out FILE
        one traced iteration of W, replaying CLI calls through
        ``cli.main(argv)`` in this process.

Both write one JSON file at the end.  The package is found through
PYTHONPATH, which the benchmark points at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import refkernel
import workloads


def _recursion_steps(path) -> dict:
    rows, d = path.data.shape
    burn = int(path.init_used.split(":")[1]) if path.init_used.startswith("burn_in:") else 0
    return {"armax.recursion_steps": (rows + burn) * d}


def _sample_rows(uniforms) -> dict:
    return {"copulas.copula_sample.rows": uniforms.shape[0] if uniforms.ndim == 2 else 1}


# (home module, function, counter) for every traced function.  Spans are
# named "<module>.<function>" after the module that defines the function.
TARGETS = [
    ("armax", "simulate_path", _recursion_steps),
    ("armax", "stationary_joint_logcdf", None),
    ("armax", "stationary_marginal_quantile", None),
    ("armax", "stationary_marginal_logcdf", None),
    ("armax", "check_stationarity", None),
    ("copulas", "copula_sample", _sample_rows),
    ("copulas", "copula_logcdf", None),
    ("copulas", "derived_copula_logcdf", None),
    ("copulas", "derived_copula_eval", None),
    ("copulas", "derived_copula_validity", None),
    ("margins", "margin_quantile", None),
    ("margins", "margin_cdf", None),
    ("estimation", "build_estimate_report", None),
    ("estimation", "estimate_c_moment", None),
    ("estimation", "estimate_c_lebedev", None),
    ("estimation", "estimate_c_davis_resnick", None),
    ("estimation", "hill_tail_index", None),
    ("estimation", "asymptotic_variance", None),
    ("estimation", "confidence_interval", None),
    ("taildep", "theoretical_lag_tdc", None),
    ("taildep", "empirical_tdc", None),
    ("taildep", "empirical_eta", None),
    ("extremal", "process_mv_extremal_index", None),
    ("extremal", "empirical_mv_extremal_index", None),
]


def _package_modules() -> dict:
    import armax_extremes.cli  # noqa: F401 - loads every submodule the CLI uses

    prefix = "armax_extremes."
    modules = {
        name[len(prefix):]: module
        for name, module in sorted(sys.modules.items())
        if name.startswith(prefix) and module is not None
    }
    modules["armax_extremes"] = sys.modules["armax_extremes"]  # the re-exports
    return modules


# Work between two reference-kernel passes in the theory sweep: long
# enough that the passes cost ~15% of the run, short enough that the
# machine's speed barely changes in between.
CHUNK_S = 0.1


def _theory(args) -> dict:
    import theory

    references = workloads.load_references()
    ops = theory.operations(workloads.size_name(args.tiny))
    order = workloads.theory_order(args.seed, len(ops))
    ref_data = refkernel.make_data()
    result = {"wall_s": [], "cpu_s": [], "wall_rel": [], "kernel_s": [],
              "attempted": 0, "failed": 0, "mismatched": []}
    deadline = time.perf_counter() + args.seconds
    while True:
        clock = refkernel.RelativeClock(lambda: refkernel.timed(ref_data))
        wall = cpu = chunk = 0.0
        outcomes = {}
        for i in order:
            key, thunk = ops[i]
            t0, c0 = time.perf_counter(), time.process_time()
            outcomes[key] = theory.run_op(thunk)
            dt = time.perf_counter() - t0
            cpu += time.process_time() - c0
            wall += dt
            chunk += dt
            if chunk >= CHUNK_S:
                clock.add(chunk)
                chunk = 0.0
        if chunk:
            clock.add(chunk)
        result["wall_s"].append(wall)
        result["cpu_s"].append(cpu)
        result["wall_rel"].append(clock.relative)
        result["kernel_s"].append(clock.references)
        failed, mismatched = workloads.check_theory(references, args.tiny, outcomes)
        result["attempted"] += len(ops)
        result["failed"] += len(failed)
        result["mismatched"] += mismatched
        if time.perf_counter() >= deadline:
            return result


def _trace(args) -> dict:
    from tracer import Tracer

    modules = _package_modules()
    cli = modules["cli"]
    tracer = Tracer()
    result: dict = {"ops": []}
    if args.workload == "theory-sweep":
        import theory

        references = workloads.load_references()
        ops = theory.operations(workloads.size_name(args.tiny))
        order = workloads.theory_order(args.seed, len(ops))
        tracer.install(modules, TARGETS)
        t0 = time.perf_counter()
        try:
            outcomes = theory.run_sweep(ops, order)
        finally:
            result["wall_s"] = time.perf_counter() - t0
            tracer.uninstall()
        failed, mismatched = workloads.check_theory(references, args.tiny, outcomes)
        result.update(attempted=len(ops), failed=len(failed), mismatched=mismatched)
    else:
        os.chdir(args.workdir)
        cli_ops = workloads.write_cli_inputs(args.workload, args.seed, args.tiny, ".")
        tracer.install(modules, TARGETS)
        t0 = time.perf_counter()
        try:
            for op in cli_ops:
                with tracer.span(f"cli.{op.command}"):
                    try:
                        cli.main(list(op.argv))
                        code = 0
                    except SystemExit as exc:
                        code = exc.code if isinstance(exc.code, int) else 1
                    except Exception as exc:  # noqa: BLE001 - an uncaught error is a failed call
                        print(f"{op.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
                        code = -1
                result["ops"].append({"command": op.command, "exit_code": code})
        finally:
            result["wall_s"] = time.perf_counter() - t0
            tracer.uninstall()
    tracer.dump(args.out + ".spans.json")
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("theory", "trace"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="theory-sweep")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    result = _theory(args) if args.mode == "theory" else _trace(args)
    with open(args.out, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
