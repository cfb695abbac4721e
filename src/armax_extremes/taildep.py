"""Lag-r tail dependence (lambda) and tail independence (eta) coefficients.

For components ``j, j'`` of a stationary ARMAX process and lag ``r``,
the tail dependence coefficient is the limit

    lambda = 2 - lim_{t -> 0} (1/t) * (1 - C(1-t, F(z_t)) * (1-t) / F(z_t)),

where ``C`` is the common (same-time) copula of the pair, ``F`` the
stationary marginal of ``j'`` and ``z_t = c_j'**(-r) * w_t`` the level
``w_t = F^{-1}(1-t)`` pushed ``r`` steps up the recursion.  The limit is
evaluated numerically on a decreasing ``t`` grid with one Richardson
extrapolation step and clamped to its Frechet-Hoeffding envelope.

When lambda vanishes the residual association is measured by the
Ledford-Tawn coefficient ``eta``, estimated by a Hill statistic on the
min-structure variable of rank-transformed margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .armax import (
    ProcessConfig,
    stationary_joint_logcdf,
    stationary_marginal_logcdf,
    stationary_marginal_quantile,
)
from .errors import NumericLimitError, UndefinedResultError
from .margins import MarginSpec, attraction_domain, right_endpoint

__all__ = [
    "LagTdcDiagnostics",
    "REGIME_BAND",
    "DEFAULT_T_GRID",
    "theoretical_lag_tdc",
    "lag_tdc_diagnostics",
    "tdc_bounds",
    "empirical_tdc",
    "empirical_eta",
    "eta_bounds_within_series",
    "classify_tail_regime",
]

DEFAULT_T_GRID = (1e-2, 1e-3, 1e-4, 1e-5)

# numeric tolerance band around the eta = 1/2 and eta = 1 boundaries used
# when mapping estimates to a regime label
REGIME_BAND = 0.05


@dataclass(frozen=True)
class LagTdcDiagnostics:
    """Grid evidence behind a numeric lag-r TDC limit.

    Per grid point: the evaluated expression ``middle``, its
    Frechet-Hoeffding envelope ``lower <= middle <= upper``, and the
    implied coefficient ``lam = 2 - middle``.  ``lam_extrapolated`` is
    the Richardson value, ``lam`` the final clamped result.
    """

    t: tuple[float, ...]
    middle: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    lam_grid: tuple[float, ...]
    lam_extrapolated: float
    lam: float
    bounds: tuple[float, float]


def lag_tdc_diagnostics(
    config: ProcessConfig,
    j: int,
    jp: int,
    r: int,
    t_grid=DEFAULT_T_GRID,
) -> LagTdcDiagnostics:
    """Evaluate the lag-r TDC limit expression along ``t_grid``.

    Frechet-domain margins use the tail substitution
    ``F(c**(-r) w_t) ~ 1 - t * c**(r * alpha)``; all other margins use
    the truncated stationary product directly.  The same-time pair
    copula is the comonotone diagonal when ``j == j'`` and the
    stationary pair law otherwise (the other components marginalized
    out at ``inf``), evaluated at the whole grid in one batch.  Raises
    `NumericLimitError` when the grid increments grow instead of
    shrinking.
    """
    d = config.d
    if not (0 <= j < d and 0 <= jp < d):
        raise ValueError("component indices out of range")
    if r < 0:
        raise ValueError("lag r must be nonnegative")
    t_grid = tuple(float(t) for t in t_grid)
    if len(t_grid) < 2 or any(t <= 0 or t >= 1 for t in t_grid):
        raise ValueError("t_grid must hold at least two values in (0, 1)")
    if any(b >= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be strictly decreasing")

    margin_jp = config.margins[jp]
    c_jp = config.c[jp]
    domain_jp = attraction_domain(margin_jp)
    frechet_sub = domain_jp.is_frechet and margin_jp.kind == "frechet"

    log_1mt = [math.log1p(-t) for t in t_grid]
    if not frechet_sub or j != jp:
        # the levels z_t, needed by F(z_t) and by the pair law
        z = [stationary_marginal_quantile(margin_jp, c_jp, 1.0 - t) / c_jp**r for t in t_grid]
    if frechet_sub:
        log_fval = [math.log1p(-t * c_jp ** (r * margin_jp.alpha)) for t in t_grid]
    elif r == 0:
        # F(z) = 1 - t holds exactly at r = 0; evaluating it at the
        # root-found z would only add the root finder's error
        log_fval = log_1mt
    else:
        log_fval = stationary_marginal_logcdf(margin_jp, c_jp, np.array(z)).tolist()
    if j == jp:
        # the pair (X_j, X_j) is comonotone and F(z) >= 1 - t, so the
        # copula value is exactly 1 - t
        log_c = log_1mt
    else:
        # the whole grid in one evaluation of the stationary pair law
        x = np.full((len(t_grid), d), math.inf)
        x[:, j] = [
            stationary_marginal_quantile(config.margins[j], config.c[j], 1.0 - t) for t in t_grid
        ]
        x[:, jp] = z
        log_c = stationary_joint_logcdf(config, x).tolist()

    middles, lowers, uppers, lams = [], [], [], []
    for t, l_1mt, l_f, l_c in zip(t_grid, log_1mt, log_fval, log_c):
        middle = -math.expm1(l_c + l_1mt - l_f) / t
        middles.append(middle)
        lowers.append(-math.expm1(2.0 * l_1mt - l_f) / t)
        uppers.append(1.0 + math.exp(l_1mt - l_f))
        lams.append(2.0 - middle)

    diffs = np.diff(lams)
    if len(diffs) >= 2 and abs(diffs[-1]) > 10.0 * abs(diffs[-2]) + 1e-12:
        raise NumericLimitError(
            "lag TDC grid did not converge: last increment "
            f"{diffs[-1]:.3e} exceeds 10x the previous {diffs[-2]:.3e}"
        )
    t_last, t_prev = t_grid[-1], t_grid[-2]
    lam_extrapolated = (lams[-1] * t_prev - lams[-2] * t_last) / (t_prev - t_last)

    if domain_jp.is_frechet:
        bounds = tdc_bounds(c_jp, domain_jp.alpha, r)
    else:
        bounds = (0.0, 1.0)
    lam = min(max(lam_extrapolated, bounds[0]), bounds[1])
    return LagTdcDiagnostics(
        t=t_grid,
        middle=tuple(middles),
        lower=tuple(lowers),
        upper=tuple(uppers),
        lam_grid=tuple(lams),
        lam_extrapolated=lam_extrapolated,
        lam=lam,
        bounds=bounds,
    )


def theoretical_lag_tdc(
    config: ProcessConfig,
    j: int,
    jp: int,
    r: int,
    t_grid=DEFAULT_T_GRID,
) -> float:
    """Numeric lag-r tail dependence coefficient of ``(X_j, X_j')``."""
    return lag_tdc_diagnostics(config, j, jp, r, t_grid).lam


def tdc_bounds(c_jp: float, alpha_jp: float, r: int) -> tuple[float, float]:
    """Envelope ``[0, c**(alpha * r)]`` of the lag-r TDC for a
    Frechet-domain component."""
    if not (0.0 < c_jp < 1.0):
        raise ValueError("c must lie in (0, 1)")
    if not alpha_jp > 0:
        raise ValueError("alpha must be positive")
    if r < 0:
        raise ValueError("lag r must be nonnegative")
    return (0.0, c_jp ** (alpha_jp * r))


def _ordinal_ranks(x: np.ndarray, order: np.ndarray, start: int = 0, stop: int | None = None):
    """Ordinal ranks ``1..m`` of the window ``x[start:stop]`` as floats.

    ``order`` is ``np.argsort(x, kind="stable")`` of the whole column;
    keeping its entries inside the window is an O(n) filter that leaves
    the window's own stable order, so the result equals
    ``scipy.stats.rankdata(x[start:stop], method="ordinal")``: ties take
    ranks in order of position, and a window holding a nan is all nan.
    One sort then serves every window of the column.
    """
    stop = len(x) if stop is None else stop
    window = order[(order >= start) & (order < stop)]
    ranks = np.empty(window.size)
    if window.size and np.isnan(x[window[-1]]):
        # argsort puts nan last
        ranks.fill(math.nan)
    else:
        ranks[window - start] = np.arange(1.0, window.size + 1.0)
    return ranks


def _column_orders(data: np.ndarray, columns) -> dict:
    """Stable argsort of each listed column of ``data``, keyed by column."""
    return {j: np.argsort(data[:, j], kind="stable") for j in columns}


def _lagged_ranks(data: np.ndarray, orders: dict, j: int, jp: int, r: int):
    """Ranks of ``X_j`` over ``[0, n-r)`` and of ``X_j'`` over ``[r, n)``."""
    if r < 0:
        raise ValueError("lag r must be nonnegative")
    n = data.shape[0]
    m = n - r
    if m < 2:
        raise ValueError("series too short for the requested lag")
    head = _ordinal_ranks(data[:, j], orders[j], 0, m)
    tail = _ordinal_ranks(data[:, jp], orders[jp], r, n)
    return head, tail


def _rank_tdc(head: np.ndarray, tail: np.ndarray, t: float) -> float:
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0, 1)")
    m = head.size
    if t * m < 10:
        raise ValueError("t * (n - r) must be at least 10")
    cutoff = (1.0 - t) * m
    head_exceeds = head > cutoff
    denom = int(np.count_nonzero(head_exceeds))
    if denom == 0:
        raise UndefinedResultError("empty conditioning set")
    num = int(np.count_nonzero(head_exceeds & (tail > cutoff)))
    return num / denom


def _rank_eta(head: np.ndarray, tail: np.ndarray, k: int | None) -> float:
    m = head.size
    if k is None:
        k = math.ceil(2.0 * math.sqrt(m))
    if not 0 < k < m:
        raise ValueError("k must lie strictly between 0 and n - r")
    u_head = head / (m + 1.0)
    u_tail = tail / (m + 1.0)
    t_var = np.minimum(1.0 / (1.0 - u_head), 1.0 / (1.0 - u_tail))
    # the top k + 1 order statistics, sorted, without sorting the rest
    t_sorted = np.sort(np.partition(t_var, m - k - 1)[m - k - 1 :])
    pivot, top = t_sorted[0], t_sorted[1:]
    eta = float(np.mean(np.log(top)) - math.log(pivot))
    if eta <= 0.0:
        raise UndefinedResultError("degenerate structure-variable sample")
    return min(eta, 1.0)


def _empirical_cell(data: np.ndarray, orders: dict, j: int, jp: int, r: int, t: float, k):
    """``(empirical_tdc, empirical_eta)`` of one ``(j, jp, r)`` cell from
    the column orders of `_column_orders`, so a caller with many cells
    sorts each column once."""
    head, tail = _lagged_ranks(data, orders, j, jp, r)
    return _rank_tdc(head, tail, t), _rank_eta(head, tail, k)


def _path_data(path) -> np.ndarray:
    data = np.asarray(getattr(path, "data", path), dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2:
        raise ValueError("path data must be 1-d or 2-d")
    return data


def empirical_tdc(path, j: int, jp: int, r: int, t: float) -> float:
    """Finite-t rank estimate of the lag-r TDC.

    Counts pairs with both ranks above ``(1-t)(n-r)`` relative to head
    exceedances alone.  Requires ``t * (n-r) >= 10`` so the tail counts
    are meaningful.
    """
    data = _path_data(path)
    return _rank_tdc(*_lagged_ranks(data, _column_orders(data, {j, jp}), j, jp, r), t)


def empirical_eta(path, j: int, jp: int, r: int, k: int | None = None) -> float:
    """Hill estimate of the tail independence coefficient ``eta``.

    The structure variable ``T_i = min(1/(1-U_{i,j}), 1/(1-U_{i+r,j'}))``
    with rank-based uniforms has survival ``t**(1/eta)`` up to slow
    variation, so its Hill tail index over the ``k`` upper order
    statistics estimates ``eta``.  ``k`` defaults to ``ceil(2 sqrt(n-r))``;
    the estimate is clamped to ``(0, 1]``.
    """
    data = _path_data(path)
    return _rank_eta(*_lagged_ranks(data, _column_orders(data, {j, jp}), j, jp, r), k)


def eta_bounds_within_series(margin: MarginSpec, c: float, r: int) -> tuple[float, float]:
    """Theoretical interval for ``eta`` of ``(X_j, X_j)`` at lag ``r``.

    Frechet-domain margins are tail dependent (``eta = 1``); margins
    with a finite right endpoint give exact ``eta = 1/2``; the
    exponential-type families (exponential treated as shape ``k = 1``,
    Weibull-min with its own ``k``) give
    ``1/2 <= eta <= max(1/2, c**(r k))``.
    """
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    if r < 0:
        raise ValueError("lag r must be nonnegative")
    if r == 0:
        return (1.0, 1.0)
    domain = attraction_domain(margin)
    if domain.is_frechet:
        return (1.0, 1.0)
    if math.isfinite(right_endpoint(margin)):
        return (0.5, 0.5)
    k = margin.k if margin.kind == "weibull_min" else 1.0
    return (0.5, max(0.5, c ** (r * k)))


def classify_tail_regime(lam: float | None, eta: float) -> str:
    """Map ``(lambda, eta)`` to a tail regime label.

    Uses the tolerance band `REGIME_BAND` around the boundary values
    ``eta = 1`` (dependence, requires ``lambda > 0``) and ``eta = 1/2``
    (near independence); in between is positive association, below is
    negative association.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    if lam is not None and not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1] when present")
    if eta >= 1.0 - REGIME_BAND and lam is not None and lam > 0.0:
        return "dependent"
    if eta > 0.5 + REGIME_BAND:
        return "positively_associated"
    if eta >= 0.5 - REGIME_BAND:
        return "near_independent"
    return "negatively_associated"
