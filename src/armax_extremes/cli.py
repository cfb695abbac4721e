"""Command-line front end: seeded runs emitting CSV tables and JSON sidecars.

Subcommands: ``simulate``, ``estimate``, ``extremal-index``, ``tail-dep``,
``copula``, ``montecarlo``.  Each takes a JSON config (``--config``) whose
``command`` field, when present, must name the subcommand, spelled with
a hyphen as the subcommand is or with an underscore as `COMMANDS` is,
and whose other fields are those the command reads (`_COMMAND_FIELDS`);
``--out`` and, where the command reads them, ``--seed``,
``--replicates`` and ``--workers`` override those entries, and
``--print-config`` echoes the fully resolved configuration, with the
underscore spelling, instead of running.  Every CSV has a header row and
17-significant-digit floats; values that could not be computed are the
literal ``nan`` with a reason in the ``flag`` column.  Exit codes, for
loading the config, ``--print-config`` and the run alike: 0 success
(warnings go to stderr), 2 configuration error (a run too large for
memory included), 3 numeric failure; a ``tail-dep`` cell that fails is
flagged in its row instead.

``estimate`` writes `estimation.build_estimate_report` per column: its
``sigma2`` and interval come from `estimation.asymptotic_variance_exact`.
``montecarlo`` draws replicate ``i`` from ``default_rng((seed, i))``.
Up to 8 replicates form one batch: `armax._simulate_batch` transforms
each margin's column of the batch's starts and innovations in one
in-place pass and overwrites the innovations with the paths, recursed
side by side, and
`estimation._c_estimates` estimates all of them in one pass into a
scratch array that a serial run reuses for every batch, where a fresh
one would be faulted in anew each time;
``workers > 1`` maps the batches over a process pool.  Its CSV and
summary do not depend on the batch size or on ``workers``.  Both
commands take their estimator codes from `estimation._c_estimates`
(``moment_misfit``, ``lebedev_misfit``, ``lebedev_boundary``,
``davis_resnick_unavailable`` and ``estimator_unavailable`` for a nan
estimate none of them explains), and the summary's statistics from
`estimation._study_statistics`.
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

from .armax import ProcessConfig, _batch_size, _simulate_batch, simulate_path
from .copulas import (
    CopulaSpec,
    DerivedCopula,
    _ROW_BLOCK,
    copula_logcdf,
    derived_copula_validity,
)
from .errors import ConfigurationError, NumericLimitError, UndefinedResultError, _check_top_k
from .estimation import (
    _c_estimates,
    _check_interval,
    _study_statistics,
    build_estimate_report,
)
from .extremal import (
    check_extremal_index_parameters,
    empirical_mv_extremal_index,
    process_mv_extremal_index,
)
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
    REGIME_BAND,
    check_tail_dep_parameters,
    classify_tail_regime,
    empirical_cells,
    theoretical_lag_tdc,
)

__all__ = ["RunConfig", "run", "main"]


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
    "tail_dep": {**_PATH_FIELDS, "pairs": None, "r_list": (0, 1, 2), "t": 0.02, "k": None},
    "copula": {"copula": None, "output_path": None},
    "montecarlo": {**_PATH_FIELDS, "replicates": 100, "workers": 1},
}
COMMANDS = tuple(_COMMAND_FIELDS)
# the subcommand spelling of each command (extremal-index, tail-dep),
# which a config's command field may use as well
_SUBCOMMANDS = {name.replace("_", "-"): name for name in COMMANDS}


def run_config_from_dict(data: dict) -> RunConfig:
    """Parse a JSON config dictionary into an unresolved `RunConfig`.

    The ``command`` field may spell a command as its subcommand does
    (``tail-dep``) or as `COMMANDS` does (``tail_dep``); the result
    holds the `COMMANDS` spelling.
    """
    head = {"command": data.get("command")} if isinstance(data, dict) else data
    command = parse_fields(head, "config", {"command": text}, ("command",))["command"]
    # an unknown command is refused by resolve_run_config
    command = _SUBCOMMANDS.get(command, command)
    names = ("command", *_COMMAND_FIELDS.get(command, _RUN_FIELDS))
    fields = {name: _RUN_FIELDS[name] for name in names}
    return parse_fields({**data, "command": command}, "config", fields, (), RunConfig)


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
        _check_interval(config.convention, config.level, ConfigurationError)
        # a k outside (0, n) is a config error, refused here before the
        # path is drawn; hill_unavailable stays for what the data decide
        if not reads_file and config.k is not None:
            _check_top_k(config.k, config.n, ConfigurationError)
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
                resolved.n, d, resolved.pairs, resolved.r_list, resolved.t, resolved.k
            )
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
    elif cmd == "copula":
        if config.copula is None:
            raise ConfigurationError("the copula command requires a 'copula' entry")
    elif cmd == "montecarlo":
        # the study reads column 0 only; column 0's law does not depend
        # on the copula, so a d = 1 process gives the same study
        if config.process.d != 1:
            raise ConfigurationError("montecarlo studies one series: give a d = 1 process")
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
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    return "nan" if math.isnan(v) else format(v, ".17g")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


# The path CSV is "%.17g" text, byte for byte, written block by block.
# A value in [1e-4, 1e17), where "%.17g" is fixed-point, is formatted
# exactly by numpy below; every other value (zeros, negatives, nan,
# infinities, subnormals, anything outside that range) and any value
# whose decimal exponent stays off after one fix is formatted by
# "%.17g" % v, as _fmt does.  A value's text sits in three 8-byte words,
# room for the widest text ("-2.2250738585072014e-308").  No text holds
# a NUL byte, so NUL bytes mark the padding a block drops.  The uint64
# limb arithmetic combines uint64 arrays only with uint64 arrays or
# Python ints: numpy 1.24 promotes uint64 with int64 to float64.  The
# kernel works in place where it can: a fresh block-sized temporary
# costs more than the arithmetic on it.
_ZEROS = 0x3030303030303030  # "0" in each byte of a word
_EXPONENTS = range(-4, 17)  # the decimal exponents k of the kernel's range


def _byte_mask(lo: int, hi: int, byte: int = 0xFF, words: int = 3) -> list[int]:
    # `byte` in bytes lo..hi-1 of a text of `words` little-endian words
    x = sum(byte << 8 * b for b in range(max(lo, 0), min(hi, 8 * words)))
    return [(x >> 64 * i) & (2**64 - 1) for i in range(words)]


def _word_table(masks) -> np.ndarray:
    return np.array(list(masks), dtype=np.uint64).T.copy()


# 5**(16 - k) in 32-bit halves, indexed by k + 4
_POW5_HI = np.array([5 ** (16 - k) >> 32 for k in _EXPONENTS], dtype=np.uint64)
_POW5_LO = np.array([5 ** (16 - k) & 0xFFFFFFFF for k in _EXPONENTS], dtype=np.uint64)
# The 17 digits of N follow four "0" in the digit string S.  At exponent
# k (index k + 4) "%.17g" writes S[4 + min(k, 0):k + 5], the dot at byte
# k + 5, then the rest of S shifted one byte on, without trailing zeros
# (nor the dot if no digit follows it).
_BEFORE_DOT = _word_table(_byte_mask(0, k + 5) for k in _EXPONENTS)
_AFTER_DOT = _word_table(_byte_mask(k + 6, 24) for k in _EXPONENTS)
_DOT = _word_table(_byte_mask(k + 5, k + 6, ord(".")) for k in _EXPONENTS)
# the bytes kept per k and index 4..20 of S's last nonzero digit,
# indexed by 17 (k + 4) + last - 4
_KEPT = _word_table(
    _byte_mask(4 + min(k, 0), last + 2 if last >= k + 5 else k + 5)
    for k in _EXPONENTS
    for last in range(4, 21)
)


def _limbs(m: np.ndarray, e: np.ndarray, k: np.ndarray):
    """``m * 5**(16 - k)`` as uint64 limbs ``(hi, lo)`` and the shift
    ``s`` with ``v * 10**(16 - k) = (hi * 2**64 + lo) / 2**s`` for
    ``v = m * 2**(e - 61)``, ``m < 2**61`` and ``-4 <= k <= 16``."""
    i = k + 4
    p_hi, p_lo = _POW5_HI[i], _POW5_LO[i]
    hi = m >> 32
    m_lo = m & 0xFFFFFFFF
    lo = m_lo * p_lo
    mid = hi * p_lo
    m_lo *= p_hi
    mid += m_lo
    hi *= p_hi
    hi += mid >> 32
    mid <<= 32
    lo += mid
    hi += lo < mid
    return hi, lo, (45 + k - e).astype(np.uint64)


def _rounded(hi: np.ndarray, lo: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``(hi * 2**64 + lo) / 2**s`` rounded half to even, for
    ``0 < s < 64`` and a quotient below ``2**64``."""
    # adding 2**(s-1) - 1 plus the truncated quotient's last bit rounds
    # half to even
    add = (lo >> s) & 1
    add += (1 << (s - 1)) - 1
    add += lo
    return ((hi + (add < lo)) << (64 - s)) | (add >> s)


def _digit_bytes(x: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each ``x < 10**8`` as bytes 0..9, most
    significant first in a little-endian uint64; overwrites ``x``.  Two
    halves of 4 digits, then of 2, then of 1, split in every lane at once."""
    a = x // 10000
    x -= a * 10000
    x <<= 32
    x |= a
    q = x * 10486  # lane // 100 for lanes below 10**4
    q >>= 20
    q &= 0x0000007F0000007F
    x -= q * 100
    x <<= 16
    x |= q
    q = x * 103  # lane // 10 for lanes below 100
    q >>= 10
    q &= 0x000F000F000F000F
    x -= q * 10
    x <<= 8
    x |= q
    return x


def _fixed_point_words(v: np.ndarray):
    """Exact ``"%.17g"`` text of the values ``v`` (1-d float64) that lie
    in ``[1e-4, 1e17)``, three words per value, NUL-padded, and the mask
    of the values the kernel leaves to ``"%.17g" % v``.

    With ``v = m * 2**(e - 61)`` from `np.frexp` and the decimal
    exponent ``k`` guessed by ``floor(log10(v))``, the 17 significant
    digits are ``N = v * 10**(16 - k)`` rounded half to even, exact in
    two uint64 limbs.  The guess is right when ``10**16 <= N < 10**17``:
    the largest float below ``10**k`` (-4 <= k <= 16), times
    ``10**(16 - k)``, stays more than 0.8 below ``10**16``, so
    ``N >= 10**16`` means ``v >= 10**k``.  Otherwise ``k`` moves by one
    and ``N`` is computed again, and a value still off is left over."""
    ok = (v >= 1e-4) & (v < 1e17)
    w = np.where(ok, v, 1.0)  # keeps log10 and frexp off nan, 0 and negatives
    f, e = np.frexp(w)
    f *= 2.0**61
    m = f.astype(np.uint64)
    k = np.log10(w, out=w)
    np.floor(k, out=k)
    k = np.clip(k, -4, 16, out=k).astype(np.int64)
    n = _rounded(*_limbs(m, e, k))
    step = (n >= 10**17).view(np.int8) - (n < 10**16).view(np.int8)
    fix = np.flatnonzero(step)
    if fix.size:
        k[fix] = np.clip(k[fix] + step[fix], -4, 16)
        n_fix = _rounded(*_limbs(m[fix], e[fix], k[fix]))
        n[fix] = n_fix
        ok[fix] &= (n_fix >= 10**16) & (n_fix < 10**17)
    high = n // 10**8
    n -= high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    high = _digit_bytes(high)
    low = _digit_bytes(n)
    # S index of the last nonzero digit; the float exponent of a word of
    # digit bytes gives its highest nonzero byte, -1 for 0
    in_low = low != 0
    last = np.frexp(np.where(in_low, low, high).astype(np.float64))[1]
    last -= 1
    last >>= 3
    last += np.where(in_low, 13, 5)
    high |= _ZEROS
    low |= _ZEROS
    lead |= 0x30
    lead <<= 32
    lead |= 0x30303030
    s0 = high << 40
    s0 |= lead
    s1 = high >> 24
    s1 |= low << 40
    s2 = low >> 24
    i = k + 4
    ends = 17 * i + last - 4  # the `_KEPT` index of each value
    words = (s0, s1, s2)
    text = []
    for j, word in enumerate(words):
        shifted = word << 8
        if j:
            shifted |= words[j - 1] >> 56
        shifted &= _AFTER_DOT[j][i]
        shifted |= _DOT[j][i]
        text.append(shifted)
    for j, word in enumerate(words):
        word &= _BEFORE_DOT[j][i]
        text[j] |= word
        text[j] &= _KEPT[j][ends]
    return text, ~ok


def _path_rows(chunk: np.ndarray, start: int, rows: np.ndarray) -> np.ndarray:
    """The CSV text of rows ``start, start + 1, ...`` of a path whose
    values are ``chunk``, built in the uint64 scratch matrix ``rows``
    (`_write_path_csv`)."""
    r, d = chunk.shape
    rows = rows[:r]
    width = rows.shape[1] - 1 - 4 * d
    t = np.arange(start, start + r, dtype=np.uint64)
    for i in reversed(range(width)):
        rest = t // 10**8
        t -= rest * 10**8
        rows[:, i] = _digit_bytes(t)
        t = rest
    # a digit 0 is a NUL byte until "0" goes into the significant digits;
    # the row numbers of one digit count run together
    a = start
    while a < start + r:
        digits = len(str(a))
        b = min(10**digits, start + r)
        zeros = _byte_mask(8 * width - digits, 8 * width, 0x30, width)
        rows[a - start : b - start, :width] |= np.array(zeros, dtype=np.uint64)
        a = b
    rows[:, width] = ord(",")
    cells = rows[:, width + 1 :].reshape(r, d, 4)
    v = np.ascontiguousarray(chunk, dtype=np.float64).reshape(-1)
    text, left = _fixed_point_words(v)
    for i in range(3):
        cells[:, :, i] = text[i].reshape(r, d)
    cells[:, :, 3] = ord(",")
    cells[:, -1, 3] = ord("\n")
    left = np.flatnonzero(left)
    if left.size:
        # `_fixed_point_words` is blind to these: "%.17g" % v, NUL-padded
        texts = np.array(["%.17g" % x for x in v[left].tolist()], dtype="S24")
        row, col = np.divmod(left, d)
        cells.view(np.uint8)[row, col, :24] = texts.view(np.uint8).reshape(-1, 24)
    raw = rows.view(np.uint8).reshape(-1)
    return raw[raw != 0]


def _write_path_csv(path: str, data: np.ndarray) -> None:
    # One block of `_ROW_BLOCK` rows at a time, in a scratch matrix made
    # once per call (made per block, it is paged in anew each time).  A
    # row: the row number right-aligned in whole words, a comma word, and
    # per column three text words and a separator word.
    n, d = data.shape
    width = -(-len(str(max(n - 1, 0))) // 8)
    rows = np.empty((min(n, _ROW_BLOCK), width + 1 + 4 * d), np.uint64)
    with open(path, "wb") as f:
        f.write((",".join(["t"] + [f"x{j + 1}" for j in range(d)]) + "\n").encode())
        for start in range(0, n, _ROW_BLOCK):
            f.write(_path_rows(data[start : start + _ROW_BLOCK], start, rows))


def _write_json(path: str, payload) -> None:
    with open(path, "w", newline="") as f:
        f.write(canonical_json(payload) + "\n")


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


def _run_estimate(config: RunConfig) -> int:
    if config.input_path is not None:
        data = _read_series_csv(config.input_path)
        if config.k is not None:
            _check_top_k(config.k, len(data), ConfigurationError)
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
    domains = process._tail.domains
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
        # a cell that fails keeps its row, as nan with the reason in flag
        flags = []
        try:
            lam_theo = theoretical_lag_tdc(process, j, jp, r)
        except NumericLimitError as exc:
            lam_theo = None
            flags.append("theoretical_undefined")
            _warn(f"pair ({j},{jp}) lag {r}: {exc}")
        if isinstance(cell, UndefinedResultError):
            lam_emp = eta_emp = regime = None
            flags.append("empirical_undefined")
            _warn(f"pair ({j},{jp}) lag {r}: {cell}")
        else:
            lam_emp, eta_emp = cell
            regime = classify_tail_regime(lam_emp, eta_emp)
        rows.append([j, jp, r, lam_theo, lam_emp, eta_emp, regime, ";".join(flags) or "ok"])
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


def _mc_batch(args, scratch: np.ndarray | None = None) -> list:
    """The `estimation._CEstimates` of each replicate in ``indices``,
    whose paths are drawn as one batch (see `armax._simulate_batch`) and
    estimated in one pass into ``scratch`` (see `estimation._c_estimates`)."""
    process, n, master_seed, indices = args
    data = _simulate_batch(process, n, [(master_seed, index) for index in indices])
    return _c_estimates(data[:, -n:, 0], scratch)


def _run_montecarlo(config: RunConfig) -> int:
    process = config.process
    n = config.n
    reps = config.replicates
    c_true = process.c[0]
    size = _batch_size(process, n)
    payloads = [
        (process, n, config.seed, range(start, min(start + size, reps)))
        for start in range(0, reps, size)
    ]
    # a forking pool starts every worker at the first submit, so ask for
    # no more than there are batches and CPUs
    workers = min(config.workers, len(payloads), os.cpu_count() or 1)
    if workers > 1:
        chunk = max(1, len(payloads) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_mc_batch, payloads, chunksize=chunk))
    else:
        scratch = np.empty(size * n)
        batches = [_mc_batch(p, scratch) for p in payloads]
    estimates = [e for batch in batches for e in batch]

    header = ["replicate", "n", "c_true", "c_moment", "c_lebedev", "c_dr", "flag"]
    rows = [
        [index, n, c_true, e.c_moment, e.c_lebedev, e.c_dr, ";".join(e.flags) or "ok"]
        for index, e in enumerate(estimates)
    ]
    _write_csv(config.output_path, header, rows)

    stats = _study_statistics(estimates, c_true, n)
    summary = {
        "command": "montecarlo",
        "n": n,
        "replicates": reps,
        "seed": config.seed,
        # JSON has no nan or inf: such a statistic is written as null
        **{name: None if isinstance(v, float) and not math.isfinite(v) else v
           for name, v in stats.items()},
    }
    _write_json(config.output_path + ".summary.json", summary)
    print(
        f"montecarlo: wrote {reps} replicates to {config.output_path}; "
        f"matching variance convention: {stats['matching_convention']}"
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
    """Resolve and execute a `RunConfig`; returns the process exit status."""
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
    for cli_name, name in _SUBCOMMANDS.items():
        fields = _COMMAND_FIELDS[name]
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
        spellings = " or ".join(map(repr, dict.fromkeys((args.subcommand, args.command))))
        raise ConfigurationError(
            f"config command {data['command']!r} does not match the {args.subcommand} "
            f"subcommand, which takes {spellings}"
        )
    return config


def main(argv=None) -> None:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        if args.print_config:
            print(canonical_json(to_json(resolve_run_config(config))))
            raise SystemExit(0)
        status = run(config)
    except (NumericLimitError, UndefinedResultError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        raise SystemExit(3)
    except ValueError as exc:  # a ConfigurationError included
        print(f"config error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    except MemoryError as exc:
        print(f"config error: the run does not fit in memory ({exc})", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(status)


if __name__ == "__main__":
    main()
