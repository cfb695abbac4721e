"""Command-line front end: seeded runs emitting CSV tables and JSON sidecars.

Subcommands: ``simulate``, ``estimate``, ``extremal-index``, ``tail-dep``,
``copula``, ``montecarlo``.  Each takes a JSON config (``--config``) whose
``command`` field, when present, must match the subcommand; ``--seed``,
``--out`` and ``--replicates`` override the corresponding config entries,
and ``--print-config`` echoes the fully resolved configuration instead of
running.  Every CSV has a header row and 17-significant-digit floats;
values that could not be computed are the literal ``nan`` with a reason in
the ``flag`` column.  Exit codes: 0 success (warnings go to stderr),
2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

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
    empirical_mv_extremal_index,
    process_mv_extremal_index,
)
from .margins import attraction_domain
from .schema import (
    canonical_json,
    copula_from_dict,
    copula_to_dict,
)
from .taildep import (
    DEFAULT_T_GRID,
    REGIME_BAND,
    _column_orders,
    _empirical_cell,
    classify_tail_regime,
    theoretical_lag_tdc,
)

__all__ = ["RunConfig", "run", "main"]

COMMANDS = ("simulate", "estimate", "extremal_index", "tail_dep", "copula", "montecarlo")

# rows of the simulated path formatted per write; a bounded chunk keeps
# peak memory flat where one tolist() of the whole path would not
_PATH_CHUNK_ROWS = 65536


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
    level: float = 0.95
    convention: str = "delta_pow4"
    k: int | None = None
    t: float | None = None
    t_grid: tuple[float, ...] | None = None
    r_list: tuple[int, ...] | None = None
    pairs: tuple[tuple[int, int], ...] | None = None
    tau_grid: tuple[tuple[float, ...], ...] | None = None
    copula: CopulaSpec | DerivedCopula | None = None
    workers: int = 1


_RUN_FIELDS = frozenset(f.name for f in fields(RunConfig))


def run_config_from_dict(data: dict) -> RunConfig:
    """Parse a JSON config dictionary into an unresolved `RunConfig`."""
    if not isinstance(data, dict):
        raise ConfigurationError("config must be a JSON object")
    unknown = set(data) - _RUN_FIELDS
    if unknown:
        raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
    kwargs: dict = {}
    if "command" not in data:
        raise ConfigurationError("config requires a 'command' field")
    kwargs["command"] = data["command"]
    if data.get("process") is not None:
        kwargs["process"] = ProcessConfig.from_dict(data["process"])
    if data.get("copula") is not None:
        kwargs["copula"] = copula_from_dict(data["copula"])
    for name in ("n", "seed", "replicates", "k", "workers"):
        if data.get(name) is not None:
            try:
                kwargs[name] = int(data[name])
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"{name} must be an integer") from exc
    for name in ("level", "t"):
        if data.get(name) is not None:
            kwargs[name] = float(data[name])
    for name in ("output_path", "input_path", "convention"):
        if data.get(name) is not None:
            kwargs[name] = str(data[name])
    try:
        if data.get("t_grid") is not None:
            kwargs["t_grid"] = tuple(float(v) for v in data["t_grid"])
        if data.get("r_list") is not None:
            kwargs["r_list"] = tuple(int(v) for v in data["r_list"])
        if data.get("pairs") is not None:
            kwargs["pairs"] = tuple((int(a), int(b)) for a, b in data["pairs"])
        if data.get("tau_grid") is not None:
            kwargs["tau_grid"] = tuple(
                tuple(float(v) for v in row) for row in data["tau_grid"]
            )
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad grid field: {exc}") from exc
    return RunConfig(**kwargs)


def run_config_to_dict(config: RunConfig) -> dict:
    """JSON-ready form of a `RunConfig`; omits unset fields."""
    out: dict = {"command": config.command}
    if config.process is not None:
        out["process"] = config.process.to_dict()
    if config.copula is not None:
        out["copula"] = copula_to_dict(config.copula)
    for name in (
        "n",
        "seed",
        "output_path",
        "input_path",
        "replicates",
        "level",
        "convention",
        "k",
        "t",
        "workers",
    ):
        value = getattr(config, name)
        if value is not None:
            out[name] = value
    if config.t_grid is not None:
        out["t_grid"] = list(config.t_grid)
    if config.r_list is not None:
        out["r_list"] = list(config.r_list)
    if config.pairs is not None:
        out["pairs"] = [list(p) for p in config.pairs]
    if config.tau_grid is not None:
        out["tau_grid"] = [list(row) for row in config.tau_grid]
    return out


def resolve_run_config(config: RunConfig) -> RunConfig:
    """Validate ``config`` and fill command-specific defaults."""
    if config.command not in COMMANDS:
        raise ConfigurationError(
            f"command must be one of {COMMANDS}, got {config.command!r}"
        )
    if config.convention not in VARIANCE_CONVENTIONS:
        raise ConfigurationError(f"convention must be one of {VARIANCE_CONVENTIONS}")
    if not (0.0 <= config.level < 1.0):
        raise ConfigurationError("level must lie in [0, 1)")
    if config.workers < 1:
        raise ConfigurationError("workers must be at least 1")
    cmd = config.command
    needs_process = cmd in ("simulate", "extremal_index", "tail_dep", "montecarlo") or (
        cmd == "estimate" and config.input_path is None
    )
    if needs_process:
        if config.process is None:
            raise ConfigurationError(f"{cmd} requires a 'process' config")
        if config.n is None or config.n < 2:
            raise ConfigurationError(f"{cmd} requires n >= 2")
        if config.seed is None:
            raise ConfigurationError(
                f"{cmd} draws a sample path and requires an explicit seed"
            )
    updates: dict = {}
    if cmd == "extremal_index":
        if config.tau_grid is None:
            updates["tau_grid"] = (tuple(1.0 for _ in range(config.process.d)),)
        else:
            for row in config.tau_grid:
                if len(row) != config.process.d:
                    raise ConfigurationError("tau_grid rows must have length d")
        if config.k is None:
            updates["k"] = math.ceil(math.sqrt(config.n))
    elif cmd == "tail_dep":
        d = config.process.d
        if config.r_list is None:
            updates["r_list"] = (0, 1, 2)
        if config.pairs is None:
            updates["pairs"] = tuple((j, jp) for j in range(d) for jp in range(d))
        else:
            for j, jp in config.pairs:
                if not (0 <= j < d and 0 <= jp < d):
                    raise ConfigurationError("pair indices out of range")
        if config.t is None:
            updates["t"] = 0.02
        if config.t_grid is None:
            updates["t_grid"] = DEFAULT_T_GRID
    elif cmd == "copula":
        if config.copula is None:
            raise ConfigurationError("the copula command requires a 'copula' entry")
    elif cmd == "montecarlo":
        if config.replicates is None:
            updates["replicates"] = 100
        elif config.replicates < 2:
            raise ConfigurationError("replicates must be at least 2")
    elif cmd == "estimate" and config.input_path is None and config.seed is None:
        raise ConfigurationError("estimate without an input file requires a seed")
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
            first = f.readline()
    except OSError as exc:
        raise ConfigurationError(f"cannot read input file {path}: {exc}") from exc
    if not first.strip():
        raise ConfigurationError(f"input file {path} is empty")
    tokens = [tok.strip() for tok in first.strip().split(",")]
    has_header = False
    try:
        [float(tok) for tok in tokens]
    except ValueError:
        has_header = True
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1 if has_header else 0, ndmin=2)
    except ValueError as exc:
        raise ConfigurationError(f"input file {path} is not numeric CSV: {exc}") from exc
    if has_header and tokens and tokens[0] == "t":
        data = data[:, 1:]
    if data.shape[0] < 2 or data.shape[1] < 1:
        raise ConfigurationError("input file must hold at least two rows")
    return data


def _run_estimate(config: RunConfig) -> int:
    if config.input_path is not None:
        data = _read_series_csv(config.input_path)
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
    rows = []
    # each column is sorted once; every (pair, lag) cell ranks its
    # windows from these orders
    orders = _column_orders(path.data, range(process.d))
    for j, jp in config.pairs:
        for r in config.r_list:
            lam_theo = theoretical_lag_tdc(process, j, jp, r, config.t_grid)
            flag = "ok"
            try:
                lam_emp, eta_emp = _empirical_cell(
                    path.data, orders, j, jp, r, config.t, config.k
                )
                regime = classify_tail_regime(lam_emp, eta_emp)
            except UndefinedResultError as exc:
                lam_emp = eta_emp = regime = None
                flag = "empirical_undefined"
                _warn(f"pair ({j},{jp}) lag {r}: {exc}")
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
    if config.workers > 1:
        chunk = max(1, reps // (config.workers * 4))
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
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
    for name in COMMANDS:
        cli_name = name.replace("_", "-")
        p = sub.add_parser(cli_name, help=f"run the {cli_name} command")
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output path")
        p.add_argument(
            "--replicates", type=int, default=None, help="override the replicate count"
        )
        p.add_argument(
            "--print-config",
            action="store_true",
            help="echo the resolved config as canonical JSON and exit",
        )
        if name == "montecarlo":
            p.add_argument(
                "--workers", type=int, default=None, help="worker processes (default 1)"
            )
        p.set_defaults(command=name)
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    try:
        with open(args.config) as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "command" not in data:
        data = {**data, "command": args.command}
    config = run_config_from_dict(data)
    if config.command != args.command:
        raise ConfigurationError(
            f"config command {config.command!r} does not match the "
            f"{args.command.replace('_', '-')} subcommand"
        )
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output_path"] = args.out
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    if overrides:
        config = replace(config, **overrides)
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
