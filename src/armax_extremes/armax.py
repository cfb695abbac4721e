"""Simulation and stationary law of multivariate ARMAX processes.

A d-variate ARMAX process evolves componentwise as

    X[i, j] = max(c_j * X[i-1, j], Y[i, j]),    0 < c_j < 1,

with innovation rows ``Y[i]`` drawn i.i.d. from margins coupled by a
copula.  Iterating the recursion shows the stationary joint CDF is the
infinite product ``F(x) = prod_{i >= 0} G(x / c**i)`` (componentwise
scaling), which exists whenever the tail series
``sum_{i >= 1} -log G(x / c**i)`` is finite and positive; the product
form also yields the fixed-point identity ``F(x) = F(x/c) * G(x)``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .copulas import CopulaSpec, _base_logcdf, copula_sample
from .errors import ConfigurationError, NumericLimitError
from .errors import _check_coefficients, _check_integer, _check_open_unit
from .margins import MarginSpec, TailFacts, _cdf, attraction_domain, margin_quantile, right_endpoint
from .schema import (
    config_digest,
    copula_from_dict,
    finite,
    integer,
    margin_from_dict,
    parse_fields,
    text,
    to_json,
    vector,
)

__all__ = [
    "InitPolicy",
    "ProcessConfig",
    "SamplePath",
    "StationarityResult",
    "simulate_path",
    "apply_recursion",
    "check_stationarity",
    "stationary_marginal_cdf",
    "stationary_marginal_logcdf",
    "stationary_marginal_quantile",
    "stationary_joint_cdf",
    "stationary_joint_logcdf",
    "normalized_level",
]

DEFAULT_BURN_IN = 1000

# distinct (margin, c, p) solves kept by `_stationary_quantile`
_QUANTILE_CACHE_SIZE = 1024

# the lane sweeps of the recursion (see `_block_length`); chosen from
# timings against the scalar loop at c in 0.3..0.999 and n in 2e3..2e5
_BLOCK_MEMORIES = 6
_MIN_BLOCKS = 160
_MAX_SWEEPS = 8

# replicates whose recursion `_simulate_batch` runs as one lane array:
# up to `_MAX_BATCH` (the fastest of K = 1 to 16 at 11 000 rows), fewer
# where their paths, 8 bytes a value, would pass `_BATCH_BYTES`, so a
# study of long paths holds no more than one path or a few MiB at a time
_MAX_BATCH = 8
_BATCH_BYTES = 1 << 22

# terms in the first chunk of the truncated product; a point with
# light-tailed margins, or with unit Frechet margins at c up to 0.6,
# needs fewer than 64 factors, so it finishes in one chunk
_FIRST_CHUNK_TERMS = 64

# distinct (c, chunk) divisor tables kept by `_divisors`: a d-variate
# law has at most 2**d - 1 sets of kept components, each with a table per
# chunk and first term (0 for the product, 1 for the series); every
# lag-TDC cell and theta row of one d = 4 law reads 16 tables in all
_DIVISOR_CACHE_SIZE = 64

# the most terms summed of the stationarity series, the stationary
# product and the variance series, the term below which both series
# stop, and the product's per-factor bound: it stops before its first
# factor above ``1 - _PRODUCT_TOL``
_SERIES_TERMS = 10_000
_SERIES_STOP = 1e-14
_PRODUCT_TOL = 1e-12
_PRODUCT_STOP = -math.log1p(-_PRODUCT_TOL)

# parts the stationary quantile's bit search cuts its interval into per
# round: its 15 probes run as one batch, the lowest cold cost per solve
# of 1, 15, 63 and 255 probes
_QUANTILE_PARTS = 16


@dataclass(frozen=True)
class InitPolicy:
    """How a simulated path is started.

    ``burn_in`` starts from a single innovation draw and discards
    ``length`` warm-up steps; ``exact_marginal`` draws the initial state
    from the stationary law directly where that is exact: Frechet
    margins, and d = 1, independent innovations or the same
    ``c_j**alpha_j`` in every component.  Elsewhere it falls back to a
    burn-in of `DEFAULT_BURN_IN` steps.
    """

    kind: str
    length: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("burn_in", "exact_marginal"):
            raise ValueError(f"unknown init kind {self.kind!r}")
        if self.kind == "burn_in":
            _check_integer(self.length, "a burn_in length")
            if self.length < 0:
                raise ValueError("burn_in requires a nonnegative length")
            object.__setattr__(self, "length", int(self.length))  # a python int, from a numpy one too
        elif self.length is not None:
            raise ValueError("exact_marginal does not take a length")

    @classmethod
    def burn_in(cls, length: int = DEFAULT_BURN_IN) -> "InitPolicy":
        return cls("burn_in", length=length)

    @classmethod
    def exact_marginal(cls) -> "InitPolicy":
        return cls("exact_marginal")


@dataclass(frozen=True)
class ProcessConfig:
    """Complete description of a d-variate ARMAX process."""

    d: int
    c: tuple[float, ...]
    margins: tuple[MarginSpec, ...]
    copula: CopulaSpec
    init: InitPolicy | None = None  # None: InitPolicy.burn_in()

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or self.d < 1:
            raise ConfigurationError("d must be a positive integer")
        c = tuple(float(v) for v in self.c)
        object.__setattr__(self, "c", c)
        margins = tuple(self.margins)
        object.__setattr__(self, "margins", margins)
        if len(c) != self.d or len(margins) != self.d:
            raise ConfigurationError("c and margins must both have length d")
        _check_coefficients(c, ConfigurationError)
        for m in margins:
            if not isinstance(m, MarginSpec):
                raise ConfigurationError("margins must be MarginSpec instances")
        if not isinstance(self.copula, CopulaSpec):
            raise ConfigurationError("the innovation copula must be a base family (a CopulaSpec)")
        if self.init is None:
            object.__setattr__(self, "init", InitPolicy.burn_in())
        elif not isinstance(self.init, InitPolicy):
            raise ConfigurationError("init must be an InitPolicy or None")

    def to_dict(self) -> dict:
        return to_json(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ProcessConfig":
        """Inverse of `to_dict`: a validated config from a JSON object.

        Raises `ConfigurationError` for a missing or unknown field, a
        derived innovation copula, or values `ProcessConfig` rejects.
        """
        return parse_fields(data, "process", _PROCESS_FIELDS, ("d", "c", "margins", "copula"), cls)

    @functools.cached_property
    def _digest(self) -> str:
        return config_digest(self.to_dict())

    def digest(self) -> str:
        # hashed on first use, once per instance: montecarlo simulates
        # one config per replicate
        return self._digest

    @functools.cached_property
    def _tail(self) -> TailFacts:
        # built on first use, once per instance, as the digest is: every
        # theta and lag-TDC call of a config reads the same facts
        return TailFacts.of([attraction_domain(m) for m in self.margins], self.c)


_PROCESS_FIELDS = {
    "d": integer,
    "c": vector(finite),
    "margins": vector(margin_from_dict),
    "copula": copula_from_dict,
    "init": lambda data: parse_fields(
        data, "init", {"kind": text, "length": integer}, ("kind",), InitPolicy
    ),
}


@dataclass(frozen=True)
class SamplePath:
    """A simulated path: ``data`` has shape ``(n, d)``.

    ``init_used`` records the initialization actually applied:
    ``"exact_marginal"``, or ``"burn_in:<length>"``, also where an
    ``exact_marginal`` request falls back (see `InitPolicy`).
    """

    data: np.ndarray
    seed: int | tuple[int, ...]
    config_digest: str
    init_used: str


def _recurse_column(c: float, path: np.ndarray) -> None:
    # scalar loop on python floats: keeps X[i] >= c * X[i-1] exact, which
    # ratio-based estimators rely on; the lane sweeps must equal it bit for
    # bit.  It overwrites the innovations after the start ``path[0]``
    prev = float(path[0])
    for i, y in enumerate(path[1:].tolist(), 1):
        decayed = c * prev
        prev = y if y > decayed else decayed
        path[i] = prev


def _block_length(c: float, n: int) -> int:
    """Rows per lane block for a column of ``n`` rows, or 0 where the
    scalar loop is faster.

    A block forgets its start once an innovation beats the decayed
    state, within about ``1/(1-c)`` rows for unit Frechet innovations,
    so blocks of `_BLOCK_MEMORIES` such lengths settle in about two
    sweeps.  A sweep costs a fixed overhead per row of a block, so a
    column cut into fewer than `_MIN_BLOCKS` blocks (short columns, and
    ``c`` near 1) stays on the scalar loop.
    """
    length = max(math.isqrt(n) // 4, math.ceil(_BLOCK_MEMORIES / (1.0 - c)))
    return length if n // length >= _MIN_BLOCKS else 0


def _lockstep_column(c: float, path: np.ndarray, length: int) -> None:
    """The recursion of each column ``path[k]`` of ``path`` ``(K, 1 + n)``
    from its start ``path[k, 0]``, in place, with the rows after it cut
    into blocks of ``length`` rows and all blocks run as one lane array.

    Every block starts from the row before it: block 0 from the start,
    the others from the innovation there in the first sweep and from
    the end of the block before it in each next one.  A sweep steps
    down the rows of the blocks in lockstep: it multiplies the lanes by
    ``c`` in place, as the scalar loop does, and ``np.fmax`` (see
    `_recurse`) takes the row's value where it wins.  A repeated sweep
    stops at the first row where every lane already holds its new
    state: each lane is a run of the recursion, so the rest would
    repeat it.  Sweep k makes blocks 0..k-1 exact, so once no block
    start changes bit for bit, all blocks are.  One frontier, the first
    block not yet exact in some column, is where each sweep starts
    (blocks it recomputes that are already exact get the same bits)
    and where, after `_MAX_SWEEPS` sweeps or once every block is exact,
    the scalar loop finishes every column; it always runs the ragged
    tail of fewer than ``length`` rows.  Both read the states ``X'`` of
    earlier sweeps where the innovations ``Y`` were; block starts are
    at most the true states, so ``max(c X[i-1], X'[i]) = max(c X[i-1],
    c X'[i-1], Y[i])`` is the true ``X[i]`` bit for bit, as rounding of
    ``c * x`` is monotone.
    """
    blocks = (path.shape[1] - 1) // length
    rows = blocks * length
    # (length, K, blocks) view: row i of every block of every column
    lanes = path[:, 1 : rows + 1].reshape(len(path), blocks, length).transpose(2, 0, 1)
    starts = path[:, :rows:length]  # (K, blocks) view: the row before each block
    lo = 0  # the frontier: blocks before it are exact in every column
    for sweep in range(_MAX_SWEEPS):
        start = starts[:, lo:].copy()
        state = start.copy()
        bits = state.view(np.int64)
        for row in lanes[:, :, lo:]:
            np.multiply(state, c, out=state)
            np.fmax(state, row, out=state)
            if sweep and (bits == row.view(np.int64)).all():
                break
            row[...] = state
        moved = (starts[:, lo + 1 :].view(np.int64) != start[:, 1:].view(np.int64)).any(axis=0)
        lo = lo + 1 + int(moved.argmax()) if moved.any() else blocks
        if lo == blocks:
            break
    for column in path:
        _recurse_column(c, column[lo * length :])


def _recurse(c, path: np.ndarray) -> None:
    """The recursion of column ``j`` of each replicate ``k`` of ``path``
    ``(K, 1 + n, d)`` with coefficient ``c[j]``, in place: row 0 holds
    the starts, and the rows after it the innovations on entry and the
    paths on return.  Column ``j`` of all K replicates runs as one lane
    array where `_block_length` is nonzero, no start is nan and no start
    or innovation has a sign bit; every state of a lane from an exact
    start is then ``>= +0``, so ``d = c * prev`` is never nan or
    ``-0.0``, the only cases where ``fmax(d, y)`` parts from the scalar
    loop.  Margin quantiles are ``>= +0``, so simulated columns always
    pass; other columns run on the scalar loop.
    """
    for j in range(path.shape[2]):
        column = path[:, :, j]
        length = _block_length(c[j], path.shape[1] - 1)
        if length and not (np.isnan(column[:, 0]).any() or np.signbit(column).any()):
            _lockstep_column(c[j], column, length)
        else:
            for row in column:
                _recurse_column(c[j], row)


def apply_recursion(c, x0, innovations) -> np.ndarray:
    """Run the ARMAX recursion on explicitly supplied innovations.

    ``innovations`` is ``(n, d)`` (or ``(n,)`` for d = 1), ``c`` and
    ``x0`` are scalars or length-d vectors.  Returns a new array of the
    same shape as ``innovations``, which is left as it is.
    """
    y = np.asarray(innovations, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError("innovations must be a 1-d or 2-d array")
    columns = y[:, None] if y.ndim == 1 else y
    c_vec = np.broadcast_to(np.asarray(c, dtype=float), columns.shape[1:])
    _check_coefficients(c_vec)
    # one row longer: the start in row 0, the innovations after it
    path = np.insert(columns, 0, x0, axis=0)[None]
    _recurse([float(v) for v in c_vec], path)
    return path[0, 1:].reshape(y.shape)


def _frechet_scale(alpha: float, c: float) -> float:
    """``(1 - c**alpha)**(-1/alpha)``: the stationary marginal for a
    frechet(alpha) margin is frechet(alpha) times this scale; inf where
    the power leaves the float range (small ``alpha``)."""
    try:
        return (1.0 - c**alpha) ** (-1.0 / alpha)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _finite_quantile(value):
    """``value``, a float or an array, when every entry of it is finite."""
    if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        raise NumericLimitError("the stationary Frechet quantile is outside the float range")
    return value


def _start(config: ProcessConfig) -> tuple[int, list[float] | None]:
    """The burn-in length of a path of ``config`` and, for an exact
    start, the per-component stationary scales (else None).

    A Frechet margin's stationary marginal is the margin times
    `_frechet_scale`.  With a max-stable innovation copula of tail
    function ``l``, the stationary copula has ``l_F(y) = sum_k
    l(q**k (1 - q) y)``, ``q_j = c_j**alpha_j`` (read from the config's
    tail facts): the innovation copula when d = 1, under independence, or
    when every ``q_j`` is equal.
    """
    init, copula = config.init, config.copula
    if init.kind == "exact_marginal" and all(m.kind == "frechet" for m in config.margins):
        if len(set(config._tail.q)) == 1 or copula.kind == "independence" or copula.gamma == 1.0:
            return 0, [_frechet_scale(m.alpha, c) for c, m in zip(config.c, config.margins)]
    return (DEFAULT_BURN_IN if init.length is None else init.length), None


def _batch_size(config: ProcessConfig, n: int) -> int:
    """Replicates of ``n`` rows that `_simulate_batch` should take at
    once: `_MAX_BATCH`, or fewer where their buffers, ``8 * (1 + burn +
    n) * d`` bytes each, would pass `_BATCH_BYTES`."""
    each = 8 * (1 + _start(config)[0] + n) * config.d
    return max(1, min(_MAX_BATCH, _BATCH_BYTES // each))


def simulate_path(config: ProcessConfig, n: int, seed) -> SamplePath:
    """Simulate ``n`` rows of the process defined by ``config``.

    ``seed`` is an integer or a tuple of integers (the latter is how a
    master seed and a replicate index are combined into one independent
    stream), where an integral float counts as its integer.  The
    generator is ``np.random.default_rng(seed)``; consumption order is
    fixed (initial state first, then one copula row per step), so a
    given ``(config, n, seed)`` triple always returns identical output.
    """
    entries = tuple(seed) if isinstance(seed, (list, tuple)) else seed
    try:
        seed = tuple(map(int, entries)) if isinstance(entries, tuple) else int(entries)
    except (OverflowError, ValueError):  # int(inf) overflows, int(nan) is refused
        seed = None
    if seed != entries:
        raise ValueError(f"a seed must be an integer or a tuple of integers, got {entries!r}")
    data = _simulate_batch(config, n, [seed])
    burn, scales = _start(config)
    init_used = f"burn_in:{burn}" if scales is None else "exact_marginal"
    return SamplePath(data=data[0, burn:], seed=seed, config_digest=config.digest(), init_used=init_used)


def _simulate_batch(config: ProcessConfig, n: int, seeds) -> np.ndarray:
    """The paths of `simulate_path` for each of ``seeds``, as a
    ``(K, burn + n, d)`` view, burn-in rows first.

    Each seed draws from its own generator, in `simulate_path`'s order,
    its start uniforms into row 0 and its innovation uniforms into the
    rows after it of replicate k of one ``(K, 1 + burn + n, d)`` buffer.
    Each margin's quantiles then overwrite its column, starts and
    innovations, over all K replicates in one call, an exact start takes
    its stationary scale (see `_start`), and `_recurse` overwrites the
    innovations with the K paths side by side, so every path equals the
    one ``simulate_path(config, n, seeds[k])`` returns alone.  The
    buffer costs ``8 * K * (1 + burn + n) * d`` bytes; see `_batch_size`.
    """
    _check_integer(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    d = config.d
    burn, scales = _start(config)
    data = np.empty((len(seeds), 1 + burn + n, d))
    for k, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        copula_sample(config.copula, d, rng, out=data[k, 0])
        copula_sample(config.copula, d, rng, size=burn + n, out=data[k, 1:])
    for j, m in enumerate(config.margins):
        margin_quantile(m, data[:, :, j], out=data[:, :, j])
    if scales is not None:
        starts = data[:, 0]
        # a small alpha gives an inf scale or quantile, or inf * 0 = nan
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(starts, scales, out=starts)
        _finite_quantile(starts)
    _recurse(config.c, data)
    return data[:, 1:]


@dataclass(frozen=True)
class StationarityResult:
    """The paper's stationarity condition, and its series at a probe
    point as a diagnostic (see `check_stationarity`)."""

    stationary: bool
    series_value: float
    n_terms: int
    converged: bool
    probe: tuple[float, ...]


@functools.lru_cache(maxsize=_DIVISOR_CACHE_SIZE)
def _divisors(c: tuple[float, ...], start: int, stop: int) -> np.ndarray:
    """The read-only ``(stop - start, d)`` table of ``c_j**i`` for
    ``i = start, ..., stop - 1``: one chunk's divisors, computed once
    per set of kept coefficients."""
    powers = np.array(c) ** np.arange(start, stop)[:, None]
    powers.flags.writeable = False
    return powers


def _log_product(config: ProcessConfig, x: np.ndarray, first: int, last: int, threshold: float):
    """Truncated sums ``sum_{i = first, first + 1, ...} log G(x_k / c**i)``,
    one per row ``x_k`` of the ``(m, d)`` array ``x``, which holds no nan
    (the public entries refuse it; the kernel checks nothing), for
    ``first <= last``.

    Each row stops at its first term with ``i >= 1`` and
    ``-log G < threshold`` (converged), once its sum reaches ``-inf``
    (not converged; the terms are at most 0, so it stays there), or
    after term ``last``.  Terms are evaluated in chunks that double in
    size, for all unfinished rows at once, and summed in order along
    each row by `np.cumsum` from its running total (``+0.0`` at the
    start), so every row's total equals that of a term-by-term loop
    over that row alone, whatever the chunk lengths.  When every row
    stops in the first chunk, as points with light-tailed margins or
    moderate c do, the chunk's sums are returned as they are; otherwise
    one set of per-row arrays books each row as it stops, in whichever
    chunk that is.  Each chunk's divisors ``c**i`` come from the
    `_divisors` cache.  Components at ``inf`` in every row are left out:
    their factors are 1, and their copula arguments ``log u_j = 0``
    would change nothing (see `copulas._fold`).  The margins are read
    through `margins._cdf` under the kernel's one error state.  Returns
    ``(total, n_terms, converged)``, arrays of shape ``(m,)``;
    ``n_terms`` is an integer array.
    """
    c, margins = config.c, config.margins
    out = (x == np.inf).all(axis=0).tolist()
    if any(out):
        # a point at inf in every component keeps one, whose factors are 1
        keep = [j for j, left_out in enumerate(out) if not left_out] or [0]
        x = x.take(keep, axis=1)
        c, margins = tuple(c[j] for j in keep), [margins[j] for j in keep]
    m, d = x.shape
    # the rows still summing (all of them until a chunk leaves some
    # unfinished) and their sums so far
    rows, running = None, 0.0
    start, size = first, _FIRST_CHUNK_TERMS
    # c**i may underflow to 0 for small components while larger ones
    # still need factors; x / 0 -> inf is then the right argument (that
    # margin's factor is exactly 1); 0 / 0 needs x_j = 0, whose first
    # factor already ends the product at -inf, so the nan terms after
    # it are never summed; log 0 = -inf encodes G_j = 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while start <= last:
            stop_at = min(start + size, last + 1)
            g = (x[:, None, :] / _divisors(c, start, stop_at)).reshape(-1, d)
            for j, margin in enumerate(margins):
                g[:, j] = _cdf(margin, g[:, j])
            np.log(g, out=g)
            terms = _base_logcdf(config.copula, g).reshape(len(x), stop_at - start)
            # -log G < threshold, for terms with i >= 1 only
            stop = terms > -threshold
            if start < 1:
                stop[:, : 1 - start] = False
            # the partial sums, from each row's running total, over terms
            terms[:, 0] += running
            partial = terms.cumsum(axis=1, out=terms)
            stop |= partial == -math.inf
            k = stop.argmax(axis=1)
            each = np.arange(len(x))
            hit = stop[each, k]
            if rows is None:
                if hit.all():
                    # every row stops in the first chunk
                    total = partial[each, k]
                    return total, k + (start - first + 1), total > -math.inf
                total = np.zeros(m)
                n_terms = np.full(m, last - first + 1)
                converged = np.zeros(m, dtype=bool)
                rows = np.arange(m)
            done, k = rows[hit], k[hit]
            total[done] = partial[hit, k]
            n_terms[done] = k + (start - first + 1)
            converged[done] = total[done] > -math.inf
            rows, x, running = rows[~hit], x[~hit], partial[~hit, -1]
            if not len(rows):
                break
            total[rows] = running
            start, size = start + size, 2 * size
    return total, n_terms, converged


def _check_points(x: np.ndarray) -> None:
    if np.isnan(x).any():
        raise ValueError("x entries must not be nan")


def check_stationarity(config: ProcessConfig) -> StationarityResult:
    """The paper's condition, and ``sum_{i >= 1} -log G(probe / c**i)``.

    The process is stationary when every ``0 < c_j < 1`` and every
    margin is supported, which `ProcessConfig` enforces, so
    ``stationary`` is ``True``.  The series, positive and finite, is a
    diagnostic: its terms are nonincreasing in ``i``, and summation
    stops once a term drops below `_SERIES_STOP` (``converged``) or
    after `_SERIES_TERMS` terms, as at c near 1.  The probe is ``c_j``
    times the marginal median, so the first term is bounded away from
    both zero and infinity for any valid margin.
    """
    probe = np.array([c * margin_quantile(m, 0.5) for c, m in zip(config.c, config.margins)])
    total, n_terms, converged = _log_product(config, probe[None, :], 1, _SERIES_TERMS, _SERIES_STOP)
    return StationarityResult(
        stationary=True,
        series_value=0.0 - float(total[0]),  # +0.0, not -0.0, for a zero series
        n_terms=int(n_terms[0]),
        converged=bool(converged[0]),
        probe=tuple(float(v) for v in probe),
    )


def stationary_marginal_cdf(c: float, x):
    """Stationary marginal CDF for a unit-Frechet margin: ``exp(-1/((1-c)x))``.

    A nan entry raises ``ValueError``.
    """
    _check_open_unit(c)
    arr = np.asarray(x, dtype=float)
    _check_points(arr)
    scalar = arr.ndim == 0
    with np.errstate(divide="ignore"):
        out = np.where(arr > 0, np.exp(-1.0 / ((1.0 - c) * np.maximum(arr, 1e-300))), 0.0)
    return float(out) if scalar else out


def stationary_marginal_logcdf(margin: MarginSpec, c: float, x) -> float | np.ndarray:
    """Log stationary marginal CDF of one component for any margin,
    via the truncated product ``prod_{i >= 0} G(x / c**i)`` of the
    one-component process.

    ``x`` is one value, giving a float, or an ``(m,)`` array, giving an
    ``(m,)`` array whose entries equal the one-value results exactly.
    A nan entry raises ``ValueError``.
    """
    _check_open_unit(c)
    x = np.asarray(x, dtype=float)
    if x.ndim > 1:
        raise ValueError("x must be a scalar or a 1-d array")
    _check_points(x)
    one = ProcessConfig(1, (c,), (margin,), CopulaSpec.independence())
    values = _stationary_logcdf(one, x.reshape(-1, 1))
    return float(values[0]) if x.ndim == 0 else values


def stationary_marginal_quantile(margin: MarginSpec, c: float, p: float) -> float:
    """Quantile of the stationary marginal law of one component.

    Closed form for Frechet margins (the stationary marginal is again
    Frechet up to the scale ``(1 - c**alpha)**(-1/alpha)``).  Otherwise
    the least float ``v >= 0`` with ``log F(v) >= log p``, where ``F`` is
    the truncated product of `stationary_marginal_logcdf`: the
    innovation quantile when ``F`` already reaches ``p`` there, else the
    end of a bit search over the floats between that quantile and the
    margin's upper end.  The search is memoised on ``(margin, c, p)``,
    so a repeated request returns the identical float without solving
    again.  Raises `NumericLimitError` when the quantile leaves the
    float range (small ``alpha``, or ``F`` below ``p`` at the largest
    float), or when the product does not converge at a probe that
    reaches ``p``.
    """
    _check_open_unit(c)
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie strictly inside (0, 1)")
    if margin.kind == "frechet":
        try:
            value = _frechet_scale(margin.alpha, c) * (-math.log(p)) ** (-1.0 / margin.alpha)
        except OverflowError:
            value = math.inf
        return _finite_quantile(value)
    return _stationary_quantile(margin, float(c), float(p))


@functools.lru_cache(maxsize=_QUANTILE_CACHE_SIZE)
def _stationary_quantile(margin: MarginSpec, c: float, p: float) -> float:
    log_p = math.log(p)
    # the one-component law of `stationary_marginal_logcdf`, built once
    # per solve; the probes are finite, so its checks are not repeated
    one = ProcessConfig(1, (c,), (margin,), CopulaSpec.independence())

    def reaches(bits: list[int]) -> np.ndarray:
        """Whether ``log F >= log p`` at the floats with these bit patterns."""
        x = np.array(bits, dtype=np.int64).view(np.float64)[:, None]
        total, _, converged = _log_product(one, x, 0, _SERIES_TERMS, _PRODUCT_STOP)
        # a partial sum bounds log F from above, so a probe below log p
        # is decided whether or not its product converged
        if not converged.all():
            _require_converged(converged | (total < log_p))
        return total >= log_p

    # nonnegative floats are ordered as their bit patterns are, and the
    # computed log F is monotone in v, so the least float reaching p
    # does not depend on the probes; F <= G factorwise, so the
    # innovation quantile is the lower end (past the float range, so is
    # the stationary one), and the first batch is the two ends
    ends = [float(margin_quantile(margin, p)), min(right_endpoint(margin), sys.float_info.max)]
    if not math.isfinite(ends[0]):
        raise NumericLimitError("the stationary quantile is outside the float range")
    lo, hi = np.array(ends).view(np.int64).tolist()
    reached_lo, reached_hi = reaches([lo, hi]).tolist()
    if reached_lo:
        return ends[0]
    if not reached_hi:
        raise NumericLimitError("the stationary quantile is outside the float range")
    # F(lo) < p <= F(hi): cut the patterns between them into
    # `_QUANTILE_PARTS` parts until the two ends are adjacent floats
    while hi - lo > 1:
        cuts = sorted({lo + (hi - lo) * k // _QUANTILE_PARTS for k in range(1, _QUANTILE_PARTS)} - {lo})
        reached = reaches(cuts)
        first = int(np.argmax(reached)) if reached.any() else len(cuts)
        lo, hi = ([lo] + cuts)[first], (cuts + [hi])[first]
    return float(np.array([hi]).view(np.float64)[0])


def stationary_joint_logcdf(config: ProcessConfig, x) -> float | np.ndarray:
    """``log F(x)`` via the truncated product ``prod_{i>=0} G(x / c**i)``.

    ``x`` is one point of shape ``(d,)``, giving a float, or a batch of
    shape ``(m, d)``, giving an ``(m,)`` array whose entries equal the
    one-point values of its rows exactly.  Factors are accumulated until
    the next one would exceed ``1 - _PRODUCT_TOL``; the neglected tail
    then contributes at most about ``_PRODUCT_TOL / (1 - max c)`` to
    ``-log F``.  Raises `NumericLimitError` when the product needs more
    than `_SERIES_TERMS` factors at any point, as it can at c near 1,
    and ``ValueError`` for a nan entry.

    An entry ``x_j = inf`` marginalizes component ``j`` out: its margin
    contributes ``G_j = 1`` to every factor, and the exchangeable
    copulas ignore an argument ``log u_j = 0``, so the result equals the
    log CDF of the process restricted to the remaining components, bit
    for bit, for every d.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != config.d:
        raise ValueError(f"x must have shape ({config.d},) or (m, {config.d})")
    _check_points(x)
    if x.ndim == 1:
        return float(_stationary_logcdf(config, x[None, :])[0])
    return _stationary_logcdf(config, x)


def _stationary_logcdf(config: ProcessConfig, x: np.ndarray) -> np.ndarray:
    total, _, converged = _log_product(config, x, 0, _SERIES_TERMS, _PRODUCT_STOP)
    # a row at -inf (some x_j <= 0) did not converge but is decided;
    # when every row converged there is no such row to look for
    if not converged.all():
        _require_converged(converged | (total == -math.inf))
    return total


def _require_converged(decided: np.ndarray) -> None:
    if not decided.all():
        raise NumericLimitError(f"stationary product did not converge within {_SERIES_TERMS} factors")


def stationary_joint_cdf(config: ProcessConfig, x) -> float | np.ndarray:
    """Stationary joint CDF ``F(x) = prod_{i >= 0} G(x / c**i)``, at one
    point (float) or an ``(m, d)`` batch, as `stationary_joint_logcdf`."""
    log_f = stationary_joint_logcdf(config, x)
    return math.exp(log_f) if isinstance(log_f, float) else np.exp(log_f)


def normalized_level(c: float, n: int, tau: float) -> float:
    """Level ``u`` with ``n * (1 - F_c(u)) -> tau`` for the unit-Frechet
    stationary marginal ``F_c``.

    Solves ``F_c(u) = 1 - tau/n`` exactly: ``u = -1 / ((1-c) log(1 - tau/n))``.
    ``tau = 0`` maps to ``inf``; ``tau >= n`` is out of range, and so is
    a nan ``tau``.
    """
    _check_open_unit(c)
    _check_integer(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    if not tau >= 0:
        raise ValueError("tau must be nonnegative")
    if tau == 0:
        return math.inf
    if tau >= n:
        raise ValueError("tau must be smaller than n")
    return -1.0 / ((1.0 - c) * math.log1p(-tau / n))
