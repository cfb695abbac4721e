"""Benchmark of the armax-extremes package, timed from outside.

    python3 perfbench/run.py --workload {cli-pipeline,mc-study,theory-sweep}
        --seed N --seconds S --trace {0,1} [--tiny]

Run from the root of a checkout: the package is taken from ``src/``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a separate traced run.  The last stdout line is the result
JSON; the line before it records the environment.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import refkernel
import workloads
from tracer import summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")
SETUP_REPEATS = 3
# Cold processes are compared with the reference kernel run as a cold
# process too: in a 4-minute recording of cli-pipeline calls, IQR/median
# over 30-second windows was 0.17 for the raw times, 0.127 relative to
# the kernel timed in process and 0.037 relative to the cold kernel.
COLD_REFERENCE = os.path.join(HERE, "refkernel.py")

# Printed with the end-to-end metrics but not bounded: absolute times swing
# by up to 2x within a minute on a shared machine (see README.md).
EXTRA_UNITS = {"wall_s": "s", "cpu_s": "s", "import_cold_s": "s", "failed_share": "ratio"}
CLI_COMMANDS = ("simulate", "estimate", "tail_dep", "extremal_index", "montecarlo")

# Per-layer metrics taken from the trace: name -> (field, span names,
# traced functions it needs).  Fields: "total_s" inclusive time, "self_s",
# "calls", "count" (a counter the tracer keeps), "self_prefix" (self time
# of every span whose name starts with the given prefix).
_EST = ("estimation.estimate_c_moment", "estimation.estimate_c_lebedev",
        "estimation.estimate_c_davis_resnick", "estimation.hill_tail_index")
_EMP = ("taildep.empirical_tdc", "taildep.empirical_eta")


def _m(field: str, *names: str, needs: tuple[str, ...] | None = None):
    return field, names, needs if needs is not None else names


LAYER_METRICS = {
    "cli.self_s": _m("self_prefix", "cli.", needs=()),
    "armax.simulate_path_s": _m("total_s", "armax.simulate_path"),
    "armax.simulate_path.self_s": _m("self_s", "armax.simulate_path"),
    "armax.simulate_path.calls": _m("calls", "armax.simulate_path"),
    "armax.recursion_steps": _m("count", "armax.recursion_steps", needs=("armax.simulate_path",)),
    "armax.stationary_joint_logcdf_s": _m("total_s", "armax.stationary_joint_logcdf"),
    "armax.stationary_joint_logcdf.calls": _m("calls", "armax.stationary_joint_logcdf"),
    "armax.stationary_marginal_quantile_s": _m("total_s", "armax.stationary_marginal_quantile"),
    "armax.stationary_marginal_quantile.calls": _m("calls", "armax.stationary_marginal_quantile"),
    "armax.stationary_marginal_logcdf.calls": _m("calls", "armax.stationary_marginal_logcdf"),
    "armax.check_stationarity_s": _m("total_s", "armax.check_stationarity"),
    "copulas.copula_sample_s": _m("total_s", "copulas.copula_sample"),
    "copulas.copula_sample.rows": _m("count", "copulas.copula_sample.rows", needs=("copulas.copula_sample",)),
    "copulas.copula_logcdf.calls": _m("calls", "copulas.copula_logcdf"),
    "copulas.copula_logcdf.self_s": _m("self_s", "copulas.copula_logcdf"),
    "copulas.derived_copula_eval.calls": _m("calls", "copulas.derived_copula_eval"),
    "copulas.derived_copula_validity_s": _m("total_s", "copulas.derived_copula_validity"),
    "margins.margin_quantile_s": _m("total_s", "margins.margin_quantile"),
    "margins.margin_cdf.calls": _m("calls", "margins.margin_cdf"),
    "margins.margin_cdf.self_s": _m("self_s", "margins.margin_cdf"),
    "estimation.build_estimate_report_s": _m("total_s", "estimation.build_estimate_report"),
    "estimation.estimators_s": _m("total_s", *_EST),
    "estimation.asymptotic_variance.calls": _m("calls", "estimation.asymptotic_variance"),
    "taildep.empirical_s": _m("total_s", *_EMP),
    "taildep.empirical.calls": _m("calls", *_EMP),
    "extremal.empirical_mv_extremal_index_s": _m("total_s", "extremal.empirical_mv_extremal_index"),
    "taildep.theoretical_lag_tdc_s": _m("total_s", "taildep.theoretical_lag_tdc"),
    "taildep.theoretical_lag_tdc.calls": _m("calls", "taildep.theoretical_lag_tdc"),
    "extremal.process_mv_extremal_index_s": _m("total_s", "extremal.process_mv_extremal_index"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list[str], cwd: str, log_path: str) -> tuple[float, float, float, int]:
    """Run ``python3 <argv>``; return wall s, user+sys CPU s, peak RSS MB, exit code."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=cwd, env=child_env(), stdout=log, stderr=log
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def cold_imports(run: "Run") -> tuple[float, float]:
    """Median cold ``import armax_extremes.cli``: raw seconds, and seconds at
    the reference machine's idle speed (each import divided by the cold
    reference timed beside it)."""
    clock = refkernel.RelativeClock(run.cold_reference)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        wall, _, _, code = spawn(["-c", "import armax_extremes.cli"], run.workdir, run.log)
        if code != 0:
            raise RuntimeError(f"import armax_extremes.cli failed with exit code {code}; see {run.log}")
        raw.append(wall)
        scaled.append(clock.add(wall) * refkernel.NOMINAL_COLD_S)
    return statistics.median(raw), statistics.median(scaled)


def scipy_module_count(workdir: str) -> int:
    code = (
        "import sys, armax_extremes.cli; "
        "print(sum(1 for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=workdir, env=child_env(), capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"counting scipy modules failed: {out.stderr[-2000:]}")
    return int(out.stdout.strip())


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


class Run:
    """State of one benchmark run: its inputs, samples and operation counts."""

    def __init__(self, args, workdir: str):
        self.args = args
        self.workdir = workdir
        self.log = os.path.join(workdir, "children.log")
        self.references = workloads.load_references()
        self.attempted = 0
        self.failed = 0
        self.mismatched: list[str] = []

    def cold_reference(self) -> float:
        """Wall time of the reference kernel run as a cold process."""
        wall, _, _, code = spawn([COLD_REFERENCE], self.workdir, self.log)
        if code != 0:
            raise RuntimeError(f"reference kernel exited with code {code}; see {self.log}")
        return wall

    # -- untraced iterations -------------------------------------------------

    def cli_iteration(self, ops, subdir: str) -> dict:
        """One pass of a CLI workload: one cold process per call, in sequence.

        The cold reference runs before the first call and after each one;
        it is not part of ``wall_s``.
        """
        sample = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "calls": {}, "rel": {}, "bytes": 0}
        clock = refkernel.RelativeClock(self.cold_reference)
        results = []
        for op in ops:
            wall, cpu, rss, code = spawn(["-m", "armax_extremes.cli", *op.argv], subdir, self.log)
            sample["rel"][op.command] = clock.add(wall)
            results.append((op, code))
            sample["wall_s"] += wall
            sample["cpu_s"] += cpu
            sample["peak_rss_mb"] = max(sample["peak_rss_mb"], rss)
            sample["calls"][op.command] = wall
        sample["kernel_s"] = clock.references
        for op, code in results:
            self.record_cli(op, code, subdir)
            sample["bytes"] += workloads.bytes_written(op, subdir)
        return sample

    def record_cli(self, op, code: int, subdir: str) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
        elif not workloads.check_cli_output(
            self.references, self.args.workload, self.args.seed, self.args.tiny, op, subdir
        ):
            self.failed += 1
            self.mismatched.append(op.command)

    def theory_iterations(self, seconds: float) -> tuple[list[dict], float]:
        """Untraced theory-sweep iterations in one worker process."""
        out = os.path.join(self.workdir, "theory.json")
        argv = [os.path.join(HERE, "worker.py"), "theory", "--seed", str(self.args.seed),
                "--seconds", str(seconds), "--out", out]
        _, _, rss, code = spawn(argv + (["--tiny"] if self.args.tiny else []), self.workdir, self.log)
        if code != 0:
            raise RuntimeError(f"theory worker exited with code {code}; see {self.log}")
        with open(out) as f:
            res = json.load(f)
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.mismatched += res["mismatched"]
        samples = [
            {"wall_s": w, "cpu_s": c, "wall_rel": r, "kernel_s": k}
            for w, c, r, k in zip(res["wall_s"], res["cpu_s"], res["wall_rel"], res["kernel_s"])
        ]
        return samples, rss

    # -- traced iteration ----------------------------------------------------

    def traced_iteration(self, subdir: str) -> tuple[float, dict]:
        out = os.path.join(self.workdir, "trace.json")
        argv = [os.path.join(HERE, "worker.py"), "trace", "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--workdir", subdir, "--out", out]
        _, _, _, code = spawn(argv + (["--tiny"] if self.args.tiny else []), subdir, self.log)
        if code != 0:
            raise RuntimeError(f"trace worker exited with code {code}; see {self.log}")
        with open(out) as f:
            res = json.load(f)
        with open(out + ".spans.json") as f:
            spans = json.load(f)
        if self.args.workload == "theory-sweep":
            self.attempted += res["attempted"]
            self.failed += res["failed"]
            self.mismatched += res["mismatched"]
        else:
            ops = {op.command: op for op in workloads.write_cli_inputs(
                self.args.workload, self.args.seed, self.args.tiny, subdir)}
            for item in res["ops"]:
                self.record_cli(ops[item["command"]], item["exit_code"], subdir)
        return res["wall_s"], spans


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, deadline: float) -> tuple[dict, dict]:
    args = run.args
    if args.workload == "theory-sweep":
        samples, rss = run.theory_iterations(max(0.0, deadline - time.perf_counter()))
        wall_rel = median([s["wall_rel"] for s in samples])
    else:
        ops = workloads.write_cli_inputs(args.workload, args.seed, args.tiny, run.workdir)
        samples = []
        while True:
            samples.append(run.cli_iteration(ops, run.workdir))
            if time.perf_counter() >= deadline:
                break
        rss = max(s["peak_rss_mb"] for s in samples)
        # per-call medians, so a slow moment spoils one call, not a pass
        wall_rel = sum(median([s["rel"][op.command] for s in samples]) for op in ops)
    metrics = {
        "wall_s": median([s["wall_s"] for s in samples]),
        "wall_rel": wall_rel,
        "cpu_s": median([s["cpu_s"] for s in samples]),
        "peak_rss_mb": rss,
        "failed_share": run.failed / run.attempted,
        "ok_share": 1.0 - run.failed / run.attempted,
    }
    return metrics, {"iterations": len(samples)}


def per_layer(run: Run, deadline: float, import_s: float) -> tuple[dict, dict]:
    """Alternate untraced and traced iterations; per-layer metrics from both."""
    args = run.args
    untraced, cpu, traced, summaries, counts, refs, absent = [], [], [], [], [], [], set()
    calls: dict[str, list[float]] = {c: [] for c in CLI_COMMANDS}
    written = []
    cli_ops = [] if args.workload == "theory-sweep" else workloads.write_cli_inputs(
        args.workload, args.seed, args.tiny, run.workdir)
    traced_dir = os.path.join(run.workdir, "traced")
    os.makedirs(traced_dir, exist_ok=True)
    while True:
        if cli_ops:
            sample = run.cli_iteration(cli_ops, run.workdir)
            written.append(sample["bytes"])
            for command in CLI_COMMANDS:
                calls[command].append(sample["calls"].get(command, 0.0))
        else:
            sample = run.theory_iterations(0.0)[0][0]
        untraced.append(sample["wall_s"])
        cpu.append(sample["cpu_s"])
        refs += sample["kernel_s"]
        wall, spans = run.traced_iteration(traced_dir)
        traced.append(wall)
        summaries.append(summarize(spans))
        counts.append(spans["counts"])
        absent.update(spans["absent"])
        if time.perf_counter() >= deadline:
            break

    def layer(kind: str, names: tuple[str, ...], i: int) -> float:
        if kind == "count":
            return counts[i].get(names[0], 0)
        if kind == "self_prefix":
            return sum((v["self_s"] for k, v in summaries[i].items() if k.startswith(names[0])), 0.0)
        return sum(summaries[i].get(n, {}).get(kind, 0) for n in names)

    metrics = {
        "import.scipy_modules": scipy_module_count(run.workdir),
        **{f"cli.{c}_s": median(calls[c]) for c in CLI_COMMANDS},
        "cli.bytes_written": median(written),
        "run.wall_s": median(untraced),
        "run.cpu_s": median(cpu),
        # the in-process replay skips one cold start per CLI call
        "trace.overhead_s": median(traced) - (median(untraced) - len(cli_ops) * import_s),
        "calib.reference_s": median(refs),
    }
    for name, (kind, names, needs) in LAYER_METRICS.items():
        if not absent.intersection(needs):
            metrics[name] = median([layer(kind, names, i) for i in range(len(summaries))])
    return metrics, {"traced_iterations": len(traced), "absent": sorted(absent)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "armax_extremes", "cli.py")):
        print(f"error: no package source at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    env = environment()
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        run = Run(args, workdir)
        import_s, setup = cold_imports(run)
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            metrics, info = per_layer(run, deadline, import_s)
            metrics["import.cold_s"] = import_s
        else:
            metrics, info = end_to_end(run, deadline)
            metrics.update(setup_s=setup, import_cold_s=import_s)
        info["setup_s"] = SETUP_REPEATS
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if os.path.exists(run.log):
            with open(run.log, errors="replace") as f:
                sys.stderr.write(f.read()[-4000:])
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [name for name in units if name not in metrics and name not in info.get("absent", ())]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value!r} {units.get(name, EXTRA_UNITS.get(name, ''))}")
    print(json.dumps({
        "env": env,
        "samples": info,
        "attempted": run.attempted,
        "failed": run.failed,
        "mismatched": run.mismatched,
    }))
    result = {
        "correct": not run.mismatched,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
