"""Lag-r tail dependence (lambda) and tail independence (eta) coefficients.

For components ``j, j'`` of a stationary ARMAX process and lag ``r``,
the tail dependence coefficient is the limit

    lambda = 2 - lim_{t -> 0} (1/t) * (1 - C(1-t, F(z_t)) * (1-t) / F(z_t)),

where ``C`` is the common (same-time) copula of the pair, ``F`` the
stationary marginal of ``j'`` and ``z_t = c_j'**(-r) * w_t`` the level
``w_t = F^{-1}(1-t)`` pushed ``r`` steps up the recursion.  The limit is
evaluated numerically on the fixed decreasing grid `DEFAULT_T_GRID` with
one Richardson extrapolation step and clamped to `tdc_bounds` when ``j'``
is in the Frechet domain, to ``[0, 1]`` otherwise.

When lambda vanishes the residual association is measured by the
Ledford-Tawn coefficient ``eta``, estimated by a Hill statistic on the
min-structure variable of rank-transformed margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .armax import _PRODUCT_TOL, ProcessConfig, _stationary_logcdf, stationary_marginal_quantile
from .errors import NumericLimitError, UndefinedResultError
from .errors import _check_integer, _check_open_unit, _check_top_k
from .margins import MarginSpec, attraction_domain, right_endpoint
from .ranks import _has_nan, _path_data, _ranks, _sorted_columns, _top, _top_order_statistics, _window, _Window

__all__ = [
    "LagTdcDiagnostics",
    "REGIME_BAND",
    "DEFAULT_T_GRID",
    "theoretical_lag_tdc",
    "lag_tdc_diagnostics",
    "tdc_bounds",
    "empirical_tdc",
    "empirical_eta",
    "empirical_cells",
    "check_tail_dep_parameters",
    "eta_bounds_within_series",
    "classify_tail_regime",
]

DEFAULT_T_GRID = (1e-2, 1e-3, 1e-4, 1e-5)
# log(1 - t) on that grid, the same for every cell
_LOG_1MT = tuple(math.log1p(-t) for t in DEFAULT_T_GRID)

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


def lag_tdc_diagnostics(config: ProcessConfig, j: int, jp: int, r: int) -> LagTdcDiagnostics:
    """Evaluate the lag-r TDC limit expression along `DEFAULT_T_GRID`.

    Frechet margins use the tail substitution
    ``F(c**(-r) w_t) ~ 1 - t * c**(r * alpha)``; all other margins, a
    Frechet-domain GPD included, use the truncated stationary product
    directly (``F(z_t) = 1 - t`` exactly at ``r = 0``).  The same-time
    pair copula is the comonotone diagonal when ``j == j'`` and the
    stationary pair law otherwise (the other components marginalized
    out at ``inf``).  A cell evaluates the product at most once, in one
    batch over the whole grid: the pair law's rows for a cross cell,
    then, for every cell whose ``F(z_t)`` needs the product, rows with
    ``z_t`` at ``j'`` and every other component at ``inf``, equal to
    `stationary_marginal_logcdf` bit for bit.  Raises
    `NumericLimitError` when the last grid increment exceeds 10 times
    the previous one plus a noise floor.  The floor is
    ``armax._PRODUCT_TOL / ((1 - max(c_j, c_j')) * t_last)``: the
    truncated product leaves up to about ``_PRODUCT_TOL / (1 - c)`` in
    ``log F``, and the limit expression divides it by ``t``.
    """
    lam, lam_extrapolated, bounds, lams, middles, log_fval = _lag_tdc(config, j, jp, r)
    grid = list(zip(DEFAULT_T_GRID, _LOG_1MT, log_fval))
    return LagTdcDiagnostics(
        t=DEFAULT_T_GRID,
        middle=tuple(middles),
        lower=tuple(-math.expm1(2.0 * l_1mt - l_f) / t for t, l_1mt, l_f in grid),
        upper=tuple(1.0 + math.exp(l_1mt - l_f) for _, l_1mt, l_f in grid),
        lam_grid=tuple(lams),
        lam_extrapolated=lam_extrapolated,
        lam=lam,
        bounds=bounds,
    )


def theoretical_lag_tdc(config: ProcessConfig, j: int, jp: int, r: int) -> float:
    """Numeric lag-r tail dependence coefficient of ``(X_j, X_j')``:
    the ``lam`` of `lag_tdc_diagnostics`, computed without its record."""
    return _lag_tdc(config, j, jp, r)[0]


def _lag_tdc(config: ProcessConfig, j: int, jp: int, r: int):
    """One cell of `lag_tdc_diagnostics`, after the grid's convergence
    check: the clamped ``lam``, the Richardson value, the bounds, and on
    the grid the coefficients, the middles and ``log F(z_t)``."""
    d = config.d
    _check_components(d, (j, jp))
    _check_r(r)
    t_grid = DEFAULT_T_GRID
    t_last, t_prev = t_grid[-1], t_grid[-2]

    margin_jp = config.margins[jp]
    c_jp = config.c[jp]
    domain_jp = config._tail.domains[jp]
    frechet_sub = margin_jp.kind == "frechet"

    # F(z) = 1 - t holds exactly at r = 0, where the product at z, the
    # least float whose F reaches 1 - t (the quantile's bit search),
    # would only add that float's step above 1 - t; the pair (X_j, X_j)
    # is comonotone and F(z) >= 1 - t, so its copula value is exactly
    # 1 - t
    log_fval = log_c = _LOG_1MT
    if frechet_sub:
        log_fval = [math.log1p(-t * c_jp ** (r * margin_jp.alpha)) for t in t_grid]
    # one evaluation of the stationary law: a cross cell's pair law at
    # (w_t, z_t), then the rows of any product F(z_t), z_t at j' and inf
    # elsewhere
    pair, product_fval = j != jp, not frechet_sub and r > 0
    if pair or product_fval:
        # where c**r underflows to 0 the level c**(-r) w_t is +inf
        c_r = c_jp**r
        z = [
            stationary_marginal_quantile(margin_jp, c_jp, 1.0 - t) / c_r if c_r else math.inf
            for t in t_grid
        ]
        rows = []
        if pair:
            margin_j, c_j = config.margins[j], config.c[j]
            for z_t, t in zip(z, t_grid):
                row = [math.inf] * d
                row[j], row[jp] = stationary_marginal_quantile(margin_j, c_j, 1.0 - t), z_t
                rows.append(row)
        if product_fval:
            for z_t in z:
                row = [math.inf] * d
                row[jp] = z_t
                rows.append(row)
        # quantiles and inf: no point is nan
        values = _stationary_logcdf(config, np.array(rows)).tolist()
        if pair:
            log_c = values[: len(t_grid)]
        if product_fval:
            log_fval = values[-len(t_grid) :]

    middles = [
        -math.expm1(l_c + l_1mt - l_f) / t
        for t, l_1mt, l_f, l_c in zip(t_grid, _LOG_1MT, log_fval, log_c)
    ]
    lams = [2.0 - middle for middle in middles]

    last_step, prev_step = lams[-1] - lams[-2], lams[-2] - lams[-3]
    floor = _PRODUCT_TOL / ((1.0 - max(config.c[j], c_jp)) * t_last)
    if abs(last_step) > 10.0 * abs(prev_step) + floor:
        raise NumericLimitError(
            "lag TDC grid did not converge: last increment "
            f"{last_step:.3e} exceeds 10x the previous {prev_step:.3e}"
        )
    lam_extrapolated = (lams[-1] * t_prev - lams[-2] * t_last) / (t_prev - t_last)

    if domain_jp.is_frechet:
        bounds = tdc_bounds(c_jp, domain_jp.alpha, r)
    else:
        bounds = (0.0, 1.0)
    lam = min(max(lam_extrapolated, bounds[0]), bounds[1])
    return lam, lam_extrapolated, bounds, lams, middles, log_fval


def tdc_bounds(c_jp: float, alpha_jp: float, r: int) -> tuple[float, float]:
    """Envelope ``[0, c**(alpha * r)]`` of the lag-r TDC for a
    Frechet-domain component."""
    _check_open_unit(c_jp)
    if not alpha_jp > 0:
        raise ValueError("alpha must be positive")
    _check_r(r)
    return (0.0, c_jp ** (alpha_jp * r))


def _check_components(d: int, components) -> None:
    if not all(0 <= j < d for j in components):
        raise ValueError("component indices out of range")


def _check_r(r: int) -> None:
    _check_integer(r, "lag r")
    if r < 0:
        raise ValueError("lag r must be nonnegative")


def _check_lag(n: int, r: int) -> int:
    """The number ``n - r`` of lag-r pairs in ``n`` rows."""
    _check_r(r)
    if n - r < 2:
        raise ValueError("series too short for the requested lag")
    return n - r


def _check_t(m: int, t: float) -> None:
    _check_open_unit(t, "t")
    if t * m < 10:
        raise ValueError("t * (n - r) must be at least 10")


def _check_k(m: int, k: int | None) -> int:
    """``k``, or its default ``ceil(2 sqrt(m))``, for ``m`` pairs."""
    if k is None:
        k = math.ceil(2.0 * math.sqrt(m))
    _check_top_k(k, m, n_name="n - r")
    return k


def check_tail_dep_parameters(n: int, d: int, pairs, r_list, t: float, k: int | None) -> None:
    """Raise the `ValueError` that `theoretical_lag_tdc`, `empirical_tdc`
    or `empirical_eta` would raise for a ``(j, jp)`` pair of ``pairs`` at
    some lag of ``r_list`` of an ``n``-row, ``d``-column path, with level
    ``t`` and Hill count ``k``, so a caller can refuse them before
    drawing a path.
    """
    _check_components(d, [col for pair in pairs for col in pair])
    for r in r_list:
        m = _check_lag(n, r)
        _check_t(m, t)
        _check_k(m, k)


def _lagged_windows(data: np.ndarray, columns: dict, j: int, jp: int, r: int):
    """The windows of ``X_j`` over ``[0, n-r)`` and of ``X_j'`` over
    ``[r, n)``, from the `_sorted_columns` ``columns``."""
    n = data.shape[0]
    m = _check_lag(n, r)
    return _window(data[:, j], columns[j], 0, m), _window(data[:, jp], columns[jp], r, n)


def _rank_tdc(head: _Window, tail: _Window, t: float) -> float:
    m = head.values.size
    _check_t(m, t)
    # ranks are integers, so those above (1 - t) m are those above its floor
    count = m - math.floor((1.0 - t) * m)
    head_exceeds = _top(head, count)
    denom = int(np.count_nonzero(head_exceeds))
    if denom == 0:
        raise UndefinedResultError("empty conditioning set")
    head_exceeds &= _top(tail, count)
    return int(np.count_nonzero(head_exceeds)) / denom


def _rank_eta(head: _Window, tail: _Window, k: int | None) -> float:
    m = head.values.size
    k = _check_k(m, k)
    # a nan ranks its whole window nan, and the Hill slope with it
    if _has_nan(head) or _has_nan(tail):
        raise UndefinedResultError("degenerate structure-variable sample")
    # T grows with the smaller of a row's two ranks, so its top k + 1
    # values lie among the rows whose two ranks both exceed m - count
    # once k + 1 rows pass.  Double count until they do; while more than
    # 4 (k + 1) pass, bisect between the last count that let at most k
    # pass (`low`) and the least that let too many (`high`), so that few
    # rows are ranked
    low, high, count = k, None, k + 1
    while True:
        both = _top(head, count)
        both &= _top(tail, count)
        passing = np.count_nonzero(both)
        if passing <= k:
            low = count
        elif passing <= 4 * (k + 1) or count - low <= 1:
            break
        else:
            high = count
        del both  # before the next pass builds its masks
        if high is None:
            count = min(2 * count, m)
        else:
            count = max((low + high) // 2, low + 1)
    rows = np.flatnonzero(both)
    # T = min(1/(1 - head/(m+1)), 1/(1 - tail/(m+1))) in one buffer: each
    # rounded step is nondecreasing, so taking the min of the ranks first
    # gives the same bits
    t_var = _ranks(head, rows)
    np.minimum(t_var, _ranks(tail, rows), out=t_var)
    np.divide(t_var, m + 1.0, out=t_var)
    np.subtract(1.0, t_var, out=t_var)
    np.divide(1.0, t_var, out=t_var)
    t_sorted = _top_order_statistics(t_var, k)
    pivot, top = t_sorted[0], t_sorted[1:]
    eta = float(np.mean(np.log(top)) - math.log(pivot))
    if not eta > 0.0:
        raise UndefinedResultError("degenerate structure-variable sample")
    return min(eta, 1.0)


def _pair_windows(path, j: int, jp: int, r: int):
    """The `_lagged_windows` of the cell ``(j, jp, r)`` of ``path``."""
    data = _path_data(path)
    _check_components(data.shape[1], (j, jp))
    return _lagged_windows(data, _sorted_columns(data, {j, jp}), j, jp, r)


def empirical_tdc(path, j: int, jp: int, r: int, t: float) -> float:
    """Finite-t rank estimate of the lag-r TDC.

    Counts pairs with both ranks above ``(1-t)(n-r)`` relative to head
    exceedances alone.  Requires ``0 <= j, jp < d`` and
    ``t * (n-r) >= 10`` so the tail counts are meaningful.
    """
    return _rank_tdc(*_pair_windows(path, j, jp, r), t)


def empirical_eta(path, j: int, jp: int, r: int, k: int | None = None) -> float:
    """Hill estimate of the tail independence coefficient ``eta``.

    The structure variable ``T_i = min(1/(1-U_{i,j}), 1/(1-U_{i+r,j'}))``
    with rank-based uniforms has survival ``t**(1/eta)`` up to slow
    variation, so its Hill tail index over the ``k`` upper order
    statistics estimates ``eta``.  ``k`` defaults to ``ceil(2 sqrt(n-r))``;
    the estimate is clamped to ``(0, 1]``.  Requires ``0 <= j, jp < d``.
    A sample whose estimate is not positive, as a nan entry in either
    column makes it nan, raises `UndefinedResultError`.
    """
    return _rank_eta(*_pair_windows(path, j, jp, r), k)


def empirical_cells(path, cells, t: float, k: int | None = None) -> list:
    """`empirical_tdc` and `empirical_eta` of many ``(j, jp, r)`` cells.

    Returns, per cell in the order given, ``(lam, eta)`` or the
    `UndefinedResultError` that cell raised; a column index outside
    ``[0, d)``, a bad lag, ``t`` or ``k`` raises its ``ValueError``.
    Each column is sorted once; a cell counts the rows of its two
    lagged windows whose ranks pass a threshold, read off the sorted
    column (see `ranks._Window`), so besides the path the cells hold the
    sorted columns and one cell's boolean row masks.
    """
    data = _path_data(path)
    cells = list(cells)
    columns = dict.fromkeys(col for j, jp, _ in cells for col in (j, jp))
    _check_components(data.shape[1], columns)
    columns = _sorted_columns(data, columns)
    return [_rank_cell(*_lagged_windows(data, columns, j, jp, r), t, k) for j, jp, r in cells]


def _rank_cell(head: _Window, tail: _Window, t: float, k: int | None):
    """``(lam, eta)`` of one cell's windows, or the
    `UndefinedResultError` it raises; the masks are freed on return."""
    try:
        return _rank_tdc(head, tail, t), _rank_eta(head, tail, k)
    except UndefinedResultError as exc:
        return exc


def eta_bounds_within_series(margin: MarginSpec, c: float, r: int) -> tuple[float, float]:
    """Theoretical interval for ``eta`` of ``(X_j, X_j)`` at lag ``r``.

    Frechet-domain margins are tail dependent (``eta = 1``); margins
    with a finite right endpoint give exact ``eta = 1/2``; the
    exponential-type families (exponential treated as shape ``k = 1``,
    Weibull-min with its own ``k``) give
    ``1/2 <= eta <= max(1/2, c**(r k))``.
    """
    _check_open_unit(c)
    _check_r(r)
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
