"""Command-line front end: seeded runs emitting CSV tables and JSON sidecars.

Subcommands: ``simulate``, ``estimate``, ``extremal-index``, ``tail-dep``,
``copula``, ``montecarlo``.  Each takes a JSON config (``--config``) whose
``command`` field, when present, must match the subcommand and whose
other fields are those the command reads (`_COMMAND_FIELDS`); ``--out``
and, where the command reads them, ``--seed``, ``--replicates`` and
``--workers`` override those entries, and ``--print-config`` echoes the
fully resolved configuration instead of running.  Every CSV has a
header row and 17-significant-digit floats; values that could not be
computed are the literal ``nan`` with a reason in the ``flag`` column.
Exit codes: 0 success (warnings go to stderr), 2 configuration error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .armax import ProcessConfig, simulate_path
from .copulas import (
    CopulaSpec,
    DerivedCopula,
    copula_logcdf,
    derived_copula_validity,
)
from .errors import ConfigurationError, NumericLimitError, UndefinedResultError
from .estimation import (
    VARIANCE_CONVENTIONS,
    _c_estimates,
    _convention_factor,
    _normality_pvalue,
    asymptotic_variance,
    build_estimate_report,
)
from .extremal import (
    check_extremal_index_parameters,
    empirical_mv_extremal_index,
    process_mv_extremal_index,
)
from .margins import attraction_domain
from .schema import (
    canonical_json,
    copula_from_dict,
    finite,
    integer,
    parse_fields,
    text,
    to_json,
    vector,
)
from .taildep import (
    DEFAULT_T_GRID,
    REGIME_BAND,
    check_tail_dep_parameters,
    classify_tail_regime,
    empirical_cells,
    theoretical_lag_tdc,
)

__all__ = ["RunConfig", "run", "main"]

# rows of the simulated path formatted per write; a bounded chunk keeps
# peak memory flat where one tolist() of the whole path would not
_PATH_CHUNK_ROWS = 65536


def _pair(value) -> tuple[int, int]:
    j, jp = vector(integer)(value)
    return j, jp


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully resolved description of one CLI run."""

    command: str
    process: ProcessConfig | None = None
    n: int | None = None
    seed: int | None = None
    output_path: str | None = None
    input_path: str | None = None
    replicates: int | None = None
    level: float | None = None
    convention: str | None = None
    k: int | None = None
    t: float | None = None
    t_grid: tuple[float, ...] | None = None
    r_list: tuple[int, ...] | None = None
    pairs: tuple[tuple[int, int], ...] | None = None
    tau_grid: tuple[tuple[float, ...], ...] | None = None
    copula: CopulaSpec | DerivedCopula | None = None
    workers: int | None = None


_RUN_FIELDS = {
    "command": text,
    "process": ProcessConfig.from_dict,
    "copula": copula_from_dict,
    **dict.fromkeys(("n", "seed", "replicates", "k", "workers"), integer),
    **dict.fromkeys(("level", "t"), finite),
    **dict.fromkeys(("output_path", "input_path", "convention"), text),
    "t_grid": vector(finite),
    "r_list": vector(integer),
    "pairs": vector(_pair),
    "tau_grid": vector(vector(finite)),
}


# the fields each command reads, with the defaults resolving fills in;
# a config field its command does not read is refused as unknown
_PATH_FIELDS = dict.fromkeys(("process", "n", "seed", "output_path"))
_COMMAND_FIELDS = {
    "simulate": _PATH_FIELDS,
    "estimate": {**_PATH_FIELDS, "input_path": None, "level": 0.95,
                 "convention": "delta_pow4", "k": None},
    "extremal_index": {**_PATH_FIELDS, "tau_grid": None, "k": None},
    "tail_dep": {**_PATH_FIELDS, "pairs": None, "r_list": (0, 1, 2), "t": 0.02,
                 "t_grid": DEFAULT_T_GRID, "k": None},
    "copula": {"copula": None, "output_path": None},
    "montecarlo": {**_PATH_FIELDS, "replicates": 100, "workers": 1},
}
COMMANDS = tuple(_COMMAND_FIELDS)


def run_config_from_dict(data: dict) -> RunConfig:
    """Parse a JSON config dictionary into an unresolved `RunConfig`."""
    head = {"command": data.get("command")} if isinstance(data, dict) else data
    command = parse_fields(head, "config", {"command": text}, ("command",))["command"]
    # an unknown command is refused by resolve_run_config
    names = ("command", *_COMMAND_FIELDS.get(command, _RUN_FIELDS))
    return parse_fields(data, "config", {name: _RUN_FIELDS[name] for name in names}, (), RunConfig)


def run_config_to_dict(config: RunConfig) -> dict:
    """JSON-ready form of a `RunConfig`; omits unset fields."""
    return to_json(config)


def resolve_run_config(config: RunConfig) -> RunConfig:
    """Validate ``config`` and fill its command's defaults."""
    cmd = config.command
    if cmd not in COMMANDS:
        raise ConfigurationError(f"command must be one of {COMMANDS}, got {cmd!r}")
    fields = _COMMAND_FIELDS[cmd]
    config = replace(config, **{name: default for name, default in fields.items()
                                if getattr(config, name) is None})
    reads_file = cmd == "estimate" and config.input_path is not None
    if reads_file and (config.process, config.n, config.seed) != (None, None, None):
        raise ConfigurationError("estimate takes input_path or process, n and seed, not both")
    if "process" in fields and not reads_file:
        if config.process is None:
            raise ConfigurationError(f"{cmd} requires a 'process' config")
        if config.n is None or config.n < 2:
            raise ConfigurationError(f"{cmd} requires n >= 2")
        if config.seed is None:
            raise ConfigurationError(
                f"{cmd} draws a sample path and requires an explicit seed"
            )
    updates: dict = {}
    if cmd == "estimate":
        if config.convention not in VARIANCE_CONVENTIONS:
            raise ConfigurationError(f"convention must be one of {VARIANCE_CONVENTIONS}")
        if not (0.0 <= config.level < 1.0):
            raise ConfigurationError("level must lie in [0, 1)")
        if not reads_file:  # refused here, before the path is drawn
            _check_hill_k(config.k, config.n)
    elif cmd == "extremal_index":
        if config.tau_grid is None:
            updates["tau_grid"] = (tuple(1.0 for _ in range(config.process.d)),)
        else:
            for row in config.tau_grid:
                if len(row) != config.process.d:
                    raise ConfigurationError("tau_grid rows must have length d")
        # refused here, before the path is drawn
        try:
            updates["k"] = check_extremal_index_parameters(
                config.n, config.k, updates.get("tau_grid", config.tau_grid)
            )
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
    elif cmd == "tail_dep":
        d = config.process.d
        if config.pairs is None:
            updates["pairs"] = tuple((j, jp) for j in range(d) for jp in range(d))
        resolved = replace(config, **updates)
        # refused here, before the path is drawn
        if not (resolved.pairs and resolved.r_list):
            raise ConfigurationError("tail_dep needs at least one pair and one lag in r_list")
        try:
            check_tail_dep_parameters(
                resolved.n, d, resolved.pairs, resolved.r_list, resolved.t, resolved.k,
                resolved.t_grid,
            )
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
    elif cmd == "copula":
        if config.copula is None:
            raise ConfigurationError("the copula command requires a 'copula' entry")
    elif cmd == "montecarlo":
        if config.replicates < 2:
            raise ConfigurationError("replicates must be at least 2")
        if config.workers < 1:
            raise ConfigurationError("workers must be at least 1")
    return replace(config, **updates) if updates else config


# ---------------------------------------------------------------------------
# output helpers

def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    return "nan" if math.isnan(v) else format(v, ".17g")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _write_path_csv(path: str, data: np.ndarray) -> None:
    # one "%.17g" row format per chunk of rows renders every float (nan,
    # inf and -0.0 included) as _fmt does, far faster than value by value
    row = "%d" + ",%.17g" * data.shape[1] + "\n"
    with open(path, "w", newline="") as f:
        f.write(",".join(["t"] + [f"x{j + 1}" for j in range(data.shape[1])]) + "\n")
        for start in range(0, len(data), _PATH_CHUNK_ROWS):
            chunk = data[start : start + _PATH_CHUNK_ROWS].tolist()
            f.write("".join(row % (start + i, *values) for i, values in enumerate(chunk)))


def _write_json(path: str, payload) -> None:
    with open(path, "w", newline="") as f:
        f.write(canonical_json(payload) + "\n")


def _finite_or_none(value):
    v = float(value)
    return v if math.isfinite(v) else None


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# command handlers

def _run_simulate(config: RunConfig) -> int:
    path = simulate_path(config.process, config.n, config.seed)
    _write_path_csv(config.output_path, path.data)
    meta = {
        "command": "simulate",
        "n": config.n,
        "seed": config.seed,
        "config_digest": path.config_digest,
        "init_used": path.init_used,
        "process": config.process.to_dict(),
    }
    _write_json(config.output_path + ".meta.json", meta)
    print(f"simulate: wrote {config.n} rows to {config.output_path}")
    return 0


def _read_series_csv(path: str) -> np.ndarray:
    try:
        with open(path) as f:
            # empty lines and lines of spaces are skipped wherever they
            # stand; the first other line decides the header
            lines = itertools.filterfalse(str.isspace, f)
            first = next(lines, "")
            tokens = [tok.strip() for tok in first.split(",")]
            try:
                [float(tok) for tok in tokens]
                has_header = False
            except ValueError:
                has_header = True
            with warnings.catch_warnings():
                # a header without rows is refused below, with its own message
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                rows = lines if has_header else itertools.chain([first], lines)
                data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except OSError as exc:
        raise ConfigurationError(f"cannot read input file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigurationError(f"input file {path} is not numeric CSV: {exc}") from exc
    if not first:
        raise ConfigurationError(f"input file {path} is empty")
    # a first field t is a row index, unless it heads the only column
    if has_header and tokens[0] == "t" and data.shape[1] > 1:
        data = data[:, 1:]
    if data.shape[0] < 2 or data.shape[1] < 1:
        raise ConfigurationError("input file must hold at least two rows")
    return data


def _check_hill_k(k: int | None, n: int) -> None:
    # a k outside (0, n) is a config error; hill_unavailable stays for
    # what the data decide, such as ties or a nonpositive pivot
    if k is not None and not 0 < k < n:
        raise ConfigurationError("k must lie strictly between 0 and n")


def _run_estimate(config: RunConfig) -> int:
    if config.input_path is not None:
        data = _read_series_csv(config.input_path)
        _check_hill_k(config.k, len(data))
    else:
        data = simulate_path(config.process, config.n, config.seed).data
    header = [
        "j",
        "n",
        "u_bar",
        "c_moment",
        "c_lebedev",
        "c_davis_resnick",
        "sigma2",
        "ci_low",
        "ci_high",
        "variance_convention",
        "alpha_hill",
        "flag",
    ]
    rows = []
    for j in range(data.shape[1]):
        report = build_estimate_report(
            data[:, j],
            j=j,
            convention=config.convention,
            level=config.level,
            hill_k=config.k,
        )
        flag = ";".join(report.flags) if report.flags else "ok"
        if report.flags:
            _warn(f"column {j}: {flag}")
        rows.append(
            [
                report.j,
                report.n,
                report.u_bar,
                report.c_moment,
                report.c_lebedev,
                report.c_davis_resnick,
                report.sigma2,
                report.ci[0],
                report.ci[1],
                report.variance_convention,
                report.alpha_hill,
                flag,
            ]
        )
    _write_csv(config.output_path, header, rows)
    print(f"estimate: wrote {len(rows)} rows to {config.output_path}")
    return 0


def _run_extremal_index(config: RunConfig) -> int:
    process = config.process
    path = simulate_path(process, config.n, config.seed)
    domains = [attraction_domain(m) for m in process.margins]
    d = process.d
    header = (
        [f"tau_{j + 1}" for j in range(d)]
        + ["theta_theoretical", "theta_empirical", "k", "n", "flag"]
    )
    theo = [process_mv_extremal_index(process, tau).theta for tau in config.tau_grid]
    # one call ranks each column once for the whole grid; a zero
    # denominator needs a nan in every weighted column of the path
    flag = "ok"
    try:
        emp = empirical_mv_extremal_index(
            path, domains, process.c, config.k, config.tau_grid
        ).tolist()
    except UndefinedResultError as exc:
        emp = [None] * len(config.tau_grid)
        flag = "empirical_undefined"
        _warn(f"tau_grid: {exc}")
    rows = [
        [*tau, t, e, config.k, config.n, flag]
        for tau, t, e in zip(config.tau_grid, theo, emp)
    ]
    _write_csv(config.output_path, header, rows)
    print(f"extremal-index: wrote {len(rows)} rows to {config.output_path}")
    return 0


def _run_tail_dep(config: RunConfig) -> int:
    process = config.process
    path = simulate_path(process, config.n, config.seed)
    header = [
        "j",
        "jp",
        "r",
        "lambda_theoretical",
        "lambda_empirical",
        "eta_empirical",
        "regime",
        "flag",
    ]
    cells = [(j, jp, r) for j, jp in config.pairs for r in config.r_list]
    rows = []
    for (j, jp, r), cell in zip(cells, empirical_cells(path, cells, config.t, config.k)):
        lam_theo = theoretical_lag_tdc(process, j, jp, r, config.t_grid)
        if isinstance(cell, UndefinedResultError):
            lam_emp = eta_emp = regime = None
            flag = "empirical_undefined"
            _warn(f"pair ({j},{jp}) lag {r}: {cell}")
        else:
            lam_emp, eta_emp = cell
            regime = classify_tail_regime(lam_emp, eta_emp)
            flag = "ok"
        rows.append([j, jp, r, lam_theo, lam_emp, eta_emp, regime, flag])
    _write_csv(config.output_path, header, rows)
    print(
        f"tail-dep: wrote {len(rows)} rows to {config.output_path} "
        f"(regime bands: +/-{REGIME_BAND} around 0.5 and 1)"
    )
    return 0


def _run_copula(config: RunConfig) -> int:
    spec = config.copula
    derived = spec if isinstance(spec, DerivedCopula) else None
    base = derived.base if derived is not None else spec
    dim = derived.dim if derived is not None else 2
    header = ["table", "copula", "m", "p", "value", "flag"]
    log_half = math.log(0.5)
    rows = [
        ["extremal_coefficient", "base", m, None, copula_logcdf(base, np.full(m, log_half)) / log_half, "ok"]
        for m in range(2, dim + 1)
    ]
    if derived is not None:
        value = copula_logcdf(derived, np.full(dim, log_half)) / log_half
        rows.append(["extremal_coefficient", "derived", dim, None, value, "ok"])
    ps = np.linspace(0.1, 0.9, 9)
    log_diagonal = np.repeat(np.log(ps)[:, None], dim, axis=1)
    for name, c in (("base", base), ("derived", derived)):
        if c is not None:
            values = np.exp(copula_logcdf(c, log_diagonal))
            rows.extend(["diagonal", name, None, p, v, "ok"] for p, v in zip(ps, values))
    if derived is not None:
        report = derived_copula_validity(derived)
        flag = "ok" if report.valid else "invalid_derived_copula"
        if not report.valid:
            _warn(
                "derived copula fails the bound checks "
                f"(max FH violation {max(report.max_lower_violation, report.max_upper_violation):.3e}, "
                f"min rectangle mass {report.min_rectangle_mass:.3e})"
            )
        rows.append(["validity", "derived", None, None, 1.0 if report.valid else 0.0, flag])
    _write_csv(config.output_path, header, rows)
    print(f"copula: wrote {len(rows)} rows to {config.output_path}")
    return 0


def ProcessPoolExecutor(max_workers: int):
    """`concurrent.futures.ProcessPoolExecutor`, imported on first use:
    the import adds about 25 ms to a cold start on a 2-vCPU Xeon, and
    only a montecarlo run with more than one worker needs it."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _mc_replicate(args) -> tuple:
    process, n, master_seed, index = args
    path = simulate_path(process, n, (master_seed, index))
    moment, lebedev, c_dr, _ = _c_estimates(path.data[:, 0])
    return (index, moment.c_hat, moment.u_bar, lebedev.c_hat, c_dr)


def _run_montecarlo(config: RunConfig) -> int:
    process = config.process
    n = config.n
    reps = config.replicates
    c_true = process.c[0]
    payloads = [(process, n, config.seed, i) for i in range(reps)]
    # a forking pool starts every worker at the first submit, so ask for
    # no more than there are replicates and CPUs
    workers = min(config.workers, reps, os.cpu_count() or 1)
    if workers > 1:
        chunk = max(1, reps // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_mc_replicate, payloads, chunksize=chunk))
    else:
        results = [_mc_replicate(p) for p in payloads]

    header = ["replicate", "n", "c_true", "c_moment", "c_lebedev", "c_dr", "flag"]
    rows = []
    for index, c_moment, _, c_lebedev, c_dr in results:
        flag = "ok"
        if math.isnan(c_moment) or math.isnan(c_lebedev) or math.isnan(c_dr):
            flag = "estimator_unavailable"
        rows.append([index, n, c_true, c_moment, c_lebedev, c_dr, flag])
    _write_csv(config.output_path, header, rows)

    c_moment = np.array([row[1] for row in results])
    u_bar = np.array([row[2] for row in results])
    c_lebedev = np.array([row[3] for row in results])
    c_dr = np.array([row[4] for row in results])
    sqrt_n = math.sqrt(n)
    z_c = sqrt_n * (c_moment - c_true)
    z_u = sqrt_n * (u_bar - 1.0 / (2.0 - c_true))
    sigma2 = asymptotic_variance(c_true)
    predicted = {name: sigma2 * _convention_factor(c_true, name) for name in VARIANCE_CONVENTIONS}
    empirical_var_c = float(np.var(z_c, ddof=1))
    matching = min(predicted, key=lambda name: abs(empirical_var_c - predicted[name]))
    if reps >= 20:
        normality_pvalue = _normality_pvalue(z_c)
    else:
        normality_pvalue = None
    summary = {
        "command": "montecarlo",
        "n": n,
        "replicates": reps,
        "seed": config.seed,
        "c_true": c_true,
        "bias_c_moment": _finite_or_none(np.mean(c_moment) - c_true),
        "bias_c_lebedev": _finite_or_none(np.mean(c_lebedev) - c_true),
        "bias_c_dr": _finite_or_none(np.mean(c_dr) - c_true),
        "rmse_c_moment": _finite_or_none(np.sqrt(np.mean((c_moment - c_true) ** 2))),
        "rmse_c_lebedev": _finite_or_none(np.sqrt(np.mean((c_lebedev - c_true) ** 2))),
        "rmse_c_dr": _finite_or_none(np.sqrt(np.mean((c_dr - c_true) ** 2))),
        "empirical_var_sqrt_n_c_moment": _finite_or_none(empirical_var_c),
        "empirical_var_sqrt_n_u_bar": _finite_or_none(np.var(z_u, ddof=1)),
        "sigma2_at_c_true": _finite_or_none(sigma2),
        "predicted_var_delta_pow4": _finite_or_none(predicted["delta_pow4"]),
        "predicted_var_paper_3m2c": _finite_or_none(predicted["paper_3m2c"]),
        "matching_convention": matching,
        "normality_pvalue": normality_pvalue,
    }
    _write_json(config.output_path + ".summary.json", summary)
    print(
        f"montecarlo: wrote {reps} replicates to {config.output_path}; "
        f"matching variance convention: {matching}"
    )
    return 0


_HANDLERS = {
    "simulate": _run_simulate,
    "estimate": _run_estimate,
    "extremal_index": _run_extremal_index,
    "tail_dep": _run_tail_dep,
    "copula": _run_copula,
    "montecarlo": _run_montecarlo,
}


def run(config: RunConfig) -> int:
    """Execute a resolved `RunConfig`; returns the process exit status."""
    config = resolve_run_config(config)
    if config.output_path is None:
        raise ConfigurationError("an output path is required (--out or output_path)")
    return _HANDLERS[config.command](config)


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="armax-extremes",
        description="Simulation, estimation and tail analysis of ARMAX processes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, fields in _COMMAND_FIELDS.items():
        cli_name = name.replace("_", "-")
        p = sub.add_parser(cli_name, help=f"run the {cli_name} command")
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", dest="output_path", help="override the config output path")
        for field in ("seed", "replicates", "workers"):
            if field in fields:
                p.add_argument(f"--{field}", type=int, help=f"override the config {field}")
        p.add_argument(
            "--print-config",
            action="store_true",
            help="echo the resolved config as canonical JSON and exit",
        )
        p.set_defaults(command=name)
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    try:
        with open(args.config) as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # undecodable bytes and over-long integers are ValueErrors too
        raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        # the command-line overrides go through the same field parsers
        overrides = {name: getattr(args, name, None) for name in _COMMAND_FIELDS[args.command]}
        data = {"command": args.command, **data,
                **{name: value for name, value in overrides.items() if value is not None}}
    config = run_config_from_dict(data)
    if config.command != args.command:
        raise ConfigurationError(
            f"config command {config.command!r} does not match the "
            f"{args.command.replace('_', '-')} subcommand"
        )
    return resolve_run_config(config)


def main(argv=None) -> None:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if args.print_config:
        print(canonical_json(run_config_to_dict(config)))
        raise SystemExit(0)
    try:
        status = run(config)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except (NumericLimitError, UndefinedResultError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        raise SystemExit(3)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(status)


if __name__ == "__main__":
    main()
