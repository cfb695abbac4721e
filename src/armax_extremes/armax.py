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
from dataclasses import dataclass

import numpy as np

from scipy.optimize import brentq

from .copulas import CopulaSpec, DerivedCopula, copula_logcdf, copula_sample
from .errors import ConfigurationError, NumericLimitError
from .margins import MarginSpec, margin_cdf, margin_quantile, right_endpoint
from .schema import (
    config_digest,
    copula_from_dict,
    copula_to_dict,
    margin_from_dict,
    margin_to_dict,
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

# distinct (margin, c, p, trunc_tol) solves kept by `_stationary_quantile`
_QUANTILE_CACHE_SIZE = 1024


@dataclass(frozen=True)
class InitPolicy:
    """How a simulated path is started.

    ``burn_in`` starts from a single innovation draw and discards
    ``length`` warm-up steps; ``exact_marginal`` draws the initial state
    from the closed-form stationary marginals directly (available for
    Frechet margins, where the stationary marginal is again Frechet up
    to scale).
    """

    kind: str
    length: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("burn_in", "exact_marginal"):
            raise ValueError(f"unknown init policy {self.kind!r}")
        if self.kind == "burn_in":
            if self.length is None or self.length < 0:
                raise ValueError("burn_in requires a nonnegative length")
        elif self.length is not None:
            raise ValueError("exact_marginal does not take a length")

    @classmethod
    def burn_in(cls, length: int = DEFAULT_BURN_IN) -> "InitPolicy":
        return cls("burn_in", length=int(length))

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
    init: InitPolicy | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or self.d < 1:
            raise ConfigurationError("d must be a positive integer")
        c = tuple(float(v) for v in self.c)
        object.__setattr__(self, "c", c)
        margins = tuple(self.margins)
        object.__setattr__(self, "margins", margins)
        if len(c) != self.d or len(margins) != self.d:
            raise ConfigurationError("c and margins must both have length d")
        for v in c:
            if not (0.0 < v < 1.0):
                raise ConfigurationError("autoregression coefficients must lie in (0, 1)")
        for m in margins:
            if not isinstance(m, MarginSpec):
                raise ConfigurationError("margins must be MarginSpec instances")
        if not isinstance(self.copula, CopulaSpec):
            raise ConfigurationError("copula must be a CopulaSpec")
        if self.init is not None and not isinstance(self.init, InitPolicy):
            raise ConfigurationError("init must be an InitPolicy or None")

    def effective_init(self) -> InitPolicy:
        return self.init if self.init is not None else InitPolicy.burn_in()

    def to_dict(self) -> dict:
        init = self.effective_init()
        init_dict = {"kind": init.kind}
        if init.length is not None:
            init_dict["length"] = init.length
        return {
            "d": self.d,
            "c": list(self.c),
            "margins": [margin_to_dict(m) for m in self.margins],
            "copula": copula_to_dict(self.copula),
            "init": init_dict,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProcessConfig":
        """Inverse of `to_dict`: a validated config from a JSON object.

        Raises `ConfigurationError` for a missing or unknown field, a
        derived innovation copula, or values `ProcessConfig` rejects.
        """
        if not isinstance(data, dict):
            raise ConfigurationError("process must be a JSON object")
        unknown = set(data) - {"d", "c", "margins", "copula", "init"}
        if unknown:
            raise ConfigurationError(f"unknown process fields: {sorted(unknown)}")
        for field in ("d", "c", "margins", "copula"):
            if field not in data:
                raise ConfigurationError(f"process requires the field {field!r}")
        copula = copula_from_dict(data["copula"])
        if isinstance(copula, DerivedCopula):
            raise ConfigurationError("the innovation copula must be a base family")
        init = None
        if "init" in data and data["init"] is not None:
            init_data = dict(data["init"])
            kind = init_data.pop("kind", None)
            try:
                if kind == "burn_in":
                    init = InitPolicy.burn_in(int(init_data.pop("length")))
                elif kind == "exact_marginal":
                    init = InitPolicy.exact_marginal()
                else:
                    raise ConfigurationError(f"unknown init kind {kind!r}")
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(f"bad init {data['init']!r}: {exc}") from exc
            if init_data:
                raise ConfigurationError(f"unknown init fields: {sorted(init_data)}")
        try:
            return cls(
                d=int(data["d"]),
                c=tuple(float(v) for v in data["c"]),
                margins=tuple(margin_from_dict(m) for m in data["margins"]),
                copula=copula,
                init=init,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad process config: {exc}") from exc

    def digest(self) -> str:
        return config_digest(self.to_dict())


@dataclass(frozen=True)
class SamplePath:
    """A simulated path: ``data`` has shape ``(n, d)``.

    ``init_used`` records the initialization actually applied, which may
    differ from the requested policy when ``exact_marginal`` is not
    available for the configured margins.
    """

    data: np.ndarray
    seed: int | tuple[int, ...]
    config_digest: str
    init_used: str


def _recurse_column(c: float, x0: float, innovations: np.ndarray) -> np.ndarray:
    # scalar loop on python floats: keeps X[i] >= c * X[i-1] exact, which
    # ratio-based estimators rely on
    out = np.empty(len(innovations))
    prev = float(x0)
    for i, y in enumerate(innovations.tolist()):
        decayed = c * prev
        prev = y if y > decayed else decayed
        out[i] = prev
    return out


def apply_recursion(c, x0, innovations) -> np.ndarray:
    """Run the ARMAX recursion on explicitly supplied innovations.

    ``innovations`` is ``(n, d)`` (or ``(n,)`` for d = 1), ``c`` and
    ``x0`` are scalars or length-d vectors.  Returns an array of the
    same shape as ``innovations``.
    """
    y = np.asarray(innovations, dtype=float)
    squeeze = y.ndim == 1
    if squeeze:
        y = y[:, None]
    d = y.shape[1]
    c_vec = np.broadcast_to(np.asarray(c, dtype=float), (d,))
    x0_vec = np.broadcast_to(np.asarray(x0, dtype=float), (d,))
    for v in c_vec:
        if not (0.0 < v < 1.0):
            raise ValueError("autoregression coefficients must lie in (0, 1)")
    out = np.empty_like(y)
    for j in range(d):
        out[:, j] = _recurse_column(float(c_vec[j]), float(x0_vec[j]), y[:, j])
    return out[:, 0] if squeeze else out


def _is_frechet(margin: MarginSpec) -> bool:
    return margin.kind == "frechet"


def _stationary_frechet_quantile(alpha: float, c: float, p: np.ndarray) -> np.ndarray:
    # stationary marginal for a frechet(alpha) margin is frechet(alpha)
    # scaled by (1 - c**alpha)**(-1/alpha)
    scale = (1.0 - c**alpha) ** (-1.0 / alpha)
    return scale * np.power(-np.log(p), -1.0 / alpha)


def simulate_path(config: ProcessConfig, n: int, seed) -> SamplePath:
    """Simulate ``n`` rows of the process defined by ``config``.

    ``seed`` is an integer or a tuple of integers (the latter is how a
    master seed and a replicate index are combined into one independent
    stream).  The generator is ``np.random.default_rng(seed)``;
    consumption order is fixed (initial state first, then one copula row
    per step), so a given ``(config, n, seed)`` triple always returns
    identical output.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if isinstance(seed, (list, tuple)):
        seed = tuple(int(s) for s in seed)
    else:
        seed = int(seed)
    rng = np.random.default_rng(seed)
    d = config.d
    policy = config.effective_init()

    exact = policy.kind == "exact_marginal" and all(_is_frechet(m) for m in config.margins)
    if policy.kind == "exact_marginal" and not exact:
        # closed-form stationary quantiles are unavailable: fall back to
        # a burn-in long enough for the recursion memory to fade
        policy = InitPolicy.burn_in(DEFAULT_BURN_IN)

    if exact:
        u0 = np.atleast_1d(copula_sample(config.copula, d, rng))
        x0 = np.array(
            [
                _stationary_frechet_quantile(m.alpha, config.c[j], u0[j])
                for j, m in enumerate(config.margins)
            ]
        )
        n_rows = n
        init_used = "exact_marginal"
    else:
        burn = policy.length
        u0 = np.atleast_1d(copula_sample(config.copula, d, rng))
        x0 = np.array(
            [margin_quantile(m, u0[j]) for j, m in enumerate(config.margins)]
        )
        n_rows = burn + n
        init_used = f"burn_in:{burn}"

    uniforms = copula_sample(config.copula, d, rng, size=n_rows)
    data = np.empty((n_rows, d))
    for j in range(d):
        innov = margin_quantile(config.margins[j], uniforms[:, j])
        data[:, j] = _recurse_column(config.c[j], float(x0[j]), innov)
    if n_rows > n:
        data = data[n_rows - n :]
    return SamplePath(
        data=data, seed=seed, config_digest=config.digest(), init_used=init_used
    )


@dataclass(frozen=True)
class StationarityResult:
    """Outcome of the stationarity series check at a probe point."""

    stationary: bool
    series_value: float
    n_terms: int
    converged: bool
    probe: tuple[float, ...]


def _joint_innovation_logcdf(config: ProcessConfig, x: np.ndarray) -> np.ndarray:
    """Row-wise ``log G(x)`` for points ``x`` of shape ``(m, d)``."""
    g = np.column_stack([margin_cdf(m, x[:, j]) for j, m in enumerate(config.margins)])
    with np.errstate(divide="ignore"):
        return copula_logcdf(config.copula, np.log(g))


def _log_product(config: ProcessConfig, x: np.ndarray, first: int, last: int, threshold: float):
    """Truncated sums ``sum_{i = first, first + 1, ...} log G(x_k / c**i)``,
    one per row ``x_k`` of the ``(m, d)`` array ``x``.

    Each row stops at its first term with ``i >= 1`` and
    ``-log G < threshold`` (converged), once its sum reaches ``-inf``,
    or after term ``last``.  Terms are evaluated in chunks that double
    in size, for all unfinished rows at once, and summed in order along
    each row by `np.cumsum`, so every row's total equals that of a
    term-by-term loop over that row alone.  Returns ``(total, n_terms,
    converged)``, arrays of shape ``(m,)``.
    """
    c = np.asarray(config.c)
    m, d = x.shape
    total = np.zeros(m)
    n_terms = np.full(m, last - first + 1)
    converged = np.zeros(m, dtype=bool)
    rows = np.arange(m)  # rows still summing
    start, size = first, 16
    while start <= last and rows.size:
        idx = np.arange(start, min(start + size, last + 1))
        # c**i may underflow to 0 for small components while larger ones
        # still need factors; x / 0 -> inf is then the right argument
        # (that margin's factor is exactly 1); 0 / 0 needs x_j = 0, whose
        # first factor already ends the product at -inf
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            scaled = x[rows, None, :] / c ** idx[:, None]
        terms = _joint_innovation_logcdf(config, scaled.reshape(-1, d)).reshape(rows.size, idx.size)
        partial = np.cumsum(np.concatenate((total[rows, None], terms), axis=1), axis=1)[:, 1:]
        stop = (partial == -np.inf) | ((idx >= 1) & (-terms < threshold))
        hit = stop.any(axis=1)
        k = np.argmax(stop[hit], axis=1)
        done = rows[hit]
        total[done] = partial[hit, k]
        n_terms[done] = idx[k] - first + 1
        converged[done] = total[done] != -np.inf
        rows = rows[~hit]
        total[rows] = partial[~hit, -1]
        start, size = start + size, 2 * size
    return total, n_terms, converged


def check_stationarity(
    config: ProcessConfig,
    probe=None,
    tol: float = 1e-14,
    max_terms: int = 10_000,
) -> StationarityResult:
    """Evaluate ``sum_{i >= 1} -log G(probe / c**i)`` and test it.

    The process admits a stationary law exactly when this series is
    positive and finite.  Terms are nonincreasing in ``i``; summation
    stops once a term drops below ``tol`` or after ``max_terms`` terms,
    whichever comes first.  The default probe is ``c_j`` times the
    marginal median, so the first term is bounded away from both zero
    and infinity for any valid margin.
    """
    if probe is None:
        probe = np.array(
            [config.c[j] * margin_quantile(m, 0.5) for j, m in enumerate(config.margins)]
        )
    else:
        probe = np.asarray(probe, dtype=float)
        if probe.shape != (config.d,):
            raise ValueError(f"probe must have shape ({config.d},)")
        if np.any(~(probe > 0.0)):
            raise ValueError("probe entries must be strictly positive")
    log_total, n_terms, converged = _log_product(config, probe[None, :], 1, max_terms, tol)
    total = 0.0 - float(log_total[0])  # +0.0, not -0.0, for a zero series
    converged = bool(converged[0])
    stationary = converged and 0.0 < total < math.inf
    return StationarityResult(
        stationary=stationary,
        series_value=total,
        n_terms=int(n_terms[0]),
        converged=converged,
        probe=tuple(float(v) for v in probe),
    )


def stationary_marginal_cdf(c: float, x):
    """Stationary marginal CDF for a unit-Frechet margin: ``exp(-1/((1-c)x))``."""
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    with np.errstate(divide="ignore"):
        out = np.where(arr > 0, np.exp(-1.0 / ((1.0 - c) * np.maximum(arr, 1e-300))), 0.0)
    return float(out) if scalar else out


def stationary_marginal_logcdf(
    margin: MarginSpec, c: float, x: float, trunc_tol: float = 1e-12
) -> float:
    """Log stationary marginal CDF of one component for any margin,
    via the truncated product ``prod_{i >= 0} G(x / c**i)`` of the
    one-component process."""
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    one = ProcessConfig(1, (c,), (margin,), CopulaSpec.independence())
    return float(_stationary_logcdf(one, np.array([[x]], dtype=float), trunc_tol, 10_000)[0])


def stationary_marginal_quantile(
    margin: MarginSpec, c: float, p: float, trunc_tol: float = 1e-12
) -> float:
    """Quantile of the stationary marginal law of one component.

    Closed form for Frechet margins (the stationary marginal is again
    Frechet up to the scale ``(1 - c**alpha)**(-1/alpha)``), a bracketed
    root-find on the log product otherwise.  The root-find is memoised
    on ``(margin, c, p, trunc_tol)``, so a repeated request returns the
    identical float without solving again.
    """
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie strictly inside (0, 1)")
    if margin.kind == "frechet":
        scale = (1.0 - c**margin.alpha) ** (-1.0 / margin.alpha)
        return scale * (-math.log(p)) ** (-1.0 / margin.alpha)
    return _stationary_quantile(margin, float(c), float(p), float(trunc_tol))


@functools.lru_cache(maxsize=_QUANTILE_CACHE_SIZE)
def _stationary_quantile(margin: MarginSpec, c: float, p: float, trunc_tol: float) -> float:
    log_p = math.log(p)
    # F <= G factorwise, so the innovation quantile brackets from below
    lo = float(margin_quantile(margin, p))
    if stationary_marginal_logcdf(margin, c, lo, trunc_tol) >= log_p:
        return lo
    hi = lo if lo > 0 else 1.0
    for _ in range(400):
        hi = hi / c
        if stationary_marginal_logcdf(margin, c, hi, trunc_tol) >= log_p:
            break
    else:
        raise NumericLimitError("failed to bracket a stationary quantile")
    hi = min(hi, right_endpoint(margin))
    return float(
        brentq(
            lambda v: stationary_marginal_logcdf(margin, c, v, trunc_tol) - log_p,
            lo,
            hi,
            xtol=1e-30,
            rtol=1e-15,
            maxiter=200,
        )
    )


def stationary_joint_logcdf(
    config: ProcessConfig, x, trunc_tol: float = 1e-12, max_terms: int = 10_000
) -> float | np.ndarray:
    """``log F(x)`` via the truncated product ``prod_{i>=0} G(x / c**i)``.

    ``x`` is one point of shape ``(d,)``, giving a float, or a batch of
    shape ``(m, d)``, giving an ``(m,)`` array whose entries equal the
    one-point values of its rows exactly.  Factors are accumulated until
    the next one would exceed ``1 - trunc_tol``; the neglected tail then
    contributes at most about ``trunc_tol / (1 - max c)`` to ``-log F``.
    Raises `ConfigurationError` when the product fails to converge at
    any point, which is the non-stationary case.

    An entry ``x_j = inf`` marginalizes component ``j`` out: its margin
    contributes ``G_j = 1`` to every factor, and the exchangeable
    copulas ignore an argument ``log u_j = 0``, so the result equals the
    log CDF of the process restricted to the remaining components.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != config.d:
        raise ValueError(f"x must have shape ({config.d},) or (m, {config.d})")
    if x.ndim == 1:
        return float(_stationary_logcdf(config, x[None, :], trunc_tol, max_terms)[0])
    return _stationary_logcdf(config, x, trunc_tol, max_terms)


def _stationary_logcdf(config: ProcessConfig, x: np.ndarray, trunc_tol: float, max_terms: int) -> np.ndarray:
    total, _, converged = _log_product(config, x, 0, max_terms, -math.log1p(-trunc_tol))
    if np.all(converged | (total == -math.inf)):
        return total
    raise ConfigurationError(
        f"stationary product did not converge within {max_terms} factors; "
        "the configuration is non-stationary at the requested point or "
        "needs a larger max_terms"
    )


def stationary_joint_cdf(
    config: ProcessConfig, x, trunc_tol: float = 1e-12, max_terms: int = 10_000
) -> float | np.ndarray:
    """Stationary joint CDF ``F(x) = prod_{i >= 0} G(x / c**i)``, at one
    point (float) or an ``(m, d)`` batch, as `stationary_joint_logcdf`."""
    log_f = stationary_joint_logcdf(config, x, trunc_tol, max_terms)
    return math.exp(log_f) if isinstance(log_f, float) else np.exp(log_f)


def normalized_level(c: float, n: int, tau: float) -> float:
    """Level ``u`` with ``n * (1 - F_c(u)) -> tau`` for the unit-Frechet
    stationary marginal ``F_c``.

    Solves ``F_c(u) = 1 - tau/n`` exactly: ``u = -1 / ((1-c) log(1 - tau/n))``.
    ``tau = 0`` maps to ``inf``; ``tau >= n`` is out of range.
    """
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be at least 1")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if tau == 0:
        return math.inf
    if tau >= n:
        raise ValueError("tau must be smaller than n")
    return -1.0 / ((1.0 - c) * math.log1p(-tau / n))
