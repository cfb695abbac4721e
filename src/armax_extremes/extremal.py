"""Extremal indices of ARMAX processes: theory and estimation.

Componentwise, an ARMAX process with coefficient ``c_j`` and a margin in
the Frechet domain with index ``alpha_j`` clusters at high levels with
marginal extremal index ``1 - c_j**alpha_j``; margins with lighter tails
do not cluster (index one).  Jointly, for a threshold direction ``tau``
the multivariate extremal index is

    theta(tau) = 1 - log C_I(exp(-tau_j c_j**alpha_j), j in I)
                     / log C(exp(-tau)),

where ``C`` is the copula of the innovation rows, ``I`` is the set of
Frechet-domain components and ``C_I`` the sub-copula obtained by setting
every other argument to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .armax import ProcessConfig, _stationary_logcdf, stationary_marginal_quantile
from .copulas import CopulaSpec, DerivedCopula, copula_logcdf
from .errors import NumericLimitError, UndefinedResultError
from .errors import _check_coefficients, _check_integer, _check_open_unit
from .margins import DomainTag, TailFacts
from .ranks import _has_nan, _order_statistic, _path_data, _sorted_columns, _top_k, _top_rows, _window

__all__ = [
    "ExtremalIndexResult",
    "marginal_extremal_index",
    "theoretical_mv_extremal_index",
    "process_mv_extremal_index",
    "empirical_extremal_index_runs",
    "empirical_mv_extremal_index",
    "check_extremal_index_parameters",
]

_AT_ONE = "every denominator level rounds to argument one"


@dataclass(frozen=True)
class ExtremalIndexResult:
    """Multivariate extremal index at direction ``tau``.

    ``index_set`` lists the Frechet-domain components (those that
    cluster); ``marginal_thetas`` are the per-component indices.
    """

    theta: float
    tau: tuple[float, ...]
    index_set: tuple[int, ...]
    marginal_thetas: tuple[float, ...]


def marginal_extremal_index(c: float, domain: DomainTag) -> float:
    """Extremal index of one component: ``1 - c**alpha`` in the Frechet
    domain, one otherwise (``1 - q``, see `DomainTag.q`)."""
    _check_open_unit(c)
    return 1.0 - domain.q(c)


def _tail_facts(domains, c, batch: bool = False) -> TailFacts:
    """The `TailFacts` of user-given ``domains`` and coefficients ``c``,
    after refusing a ``c`` not of shape ``(d,)`` (see `_index_levels`)."""
    domains = list(domains)
    c = np.asarray(c, dtype=float)
    if c.shape != (len(domains),):
        raise _shape_error(len(domains), batch)
    # numpy scalars: numpy's array power can differ from the scalar
    # power by an ulp
    return TailFacts.of(domains, list(c))


def _shape_error(d: int, batch: bool) -> ValueError:
    grid = f" or (m, {d})" if batch else ""
    return ValueError(f"c must have shape ({d},) and tau shape ({d},){grid}")


def _index_levels(facts: TailFacts, tau, batch: bool = False):
    """Validated levels of ``theta(tau)``: the index set and ``[tau, num]``.

    Returns the Frechet-domain index set and the levels as lists of
    floats: the pair of rows ``[tau, num]``, with ``num_j = tau_j * q_j``
    (``q_j = c_j**alpha_j``, read from ``facts``) on the index set and 0
    elsewhere, for one ``(d,)`` direction ``tau`` or, with ``batch``, a
    list of such pairs, one per row of an ``(m, d)`` grid.  Each
    direction must be finite and nonnegative with at least one positive
    entry (`_tau_rows`).
    """
    d = len(facts.domains)
    tau = np.asarray(tau, dtype=float)
    if tau.ndim not in (1, 1 + batch) or tau.shape[-1] != d:
        raise _shape_error(d, batch)
    rows = _tau_rows(tau)
    index_set = tuple(j for j, dom in enumerate(facts.domains) if dom.is_frechet)
    scales = [(j, float(facts.q[j])) for j in index_set]
    levels = []
    for row in rows:
        num = [0.0] * d
        for j, scale in scales:
            num[j] = row[j] * scale
        levels.append([row, num])
    return index_set, levels if tau.ndim == 2 else levels[0]


def _tau_rows(tau: np.ndarray) -> list[list[float]]:
    """The directions of a ``(d,)`` or ``(m, d)`` float array ``tau`` as
    lists of floats, after refusing one with a negative or nan entry or
    without a positive one, and then one with an infinite entry."""
    if tau.ndim not in (1, 2):
        raise ValueError("tau must be a (d,) direction or an (m, d) grid")
    rows = tau.tolist() if tau.ndim == 2 else [tau.tolist()]
    for row in rows:
        # `>= 0` is false for nan, so a nan entry is refused too
        if not (all(t >= 0.0 for t in row) and any(t > 0.0 for t in row)):
            raise ValueError("tau must be nonnegative with at least one positive entry")
        if math.inf in row:
            raise ValueError("tau entries must be finite")
    return rows


def check_extremal_index_parameters(n: int, k: int | None, tau) -> int:
    """``k``, or its default ``min(ceil(sqrt(n)), n - 1)``, for
    `empirical_mv_extremal_index` on an ``n``-row path, after raising the
    ``ValueError`` that estimator raises for ``k`` or for a direction or
    grid ``tau`` with a negative, nan or infinite entry or a row without
    a positive one, so a caller can refuse them before drawing a path.
    """
    _tau_rows(np.asarray(tau, dtype=float))
    return _top_k(n, k)


def _index_result(theta: float, tau: list[float], index_set, facts: TailFacts) -> ExtremalIndexResult:
    return ExtremalIndexResult(
        theta=float(theta),
        tau=tuple(tau),
        index_set=index_set,
        marginal_thetas=tuple(float(s) for s in facts.s),
    )


def theoretical_mv_extremal_index(
    copula: CopulaSpec | DerivedCopula,
    domains,
    c,
    tau,
) -> ExtremalIndexResult:
    """Multivariate extremal index of the stationary process.

    ``copula`` is the copula of the stationary law (a base family or a
    derived one), ``domains`` the per-component `DomainTag` sequence and
    ``c`` the autoregression coefficients.  ``tau`` must be finite and
    nonnegative with a positive entry.  The numerator and denominator are
    formed in log space, so ratios of tiny copula values stay exact.
    """
    c = np.asarray(c, dtype=float)
    facts = _tail_facts(domains, c)
    index_set, levels = _index_levels(facts, tau)
    _check_coefficients(c)
    theta = 1.0
    if index_set:
        log_den, log_num = copula_logcdf(copula, -np.array(levels)).tolist()
        theta = 1.0 - log_num / log_den
    return _index_result(theta, levels[0], index_set, facts)


def process_mv_extremal_index(config: ProcessConfig, tau) -> ExtremalIndexResult:
    """Multivariate extremal index implied by a full process configuration.

    Unlike `theoretical_mv_extremal_index`, which takes the copula of
    the stationary law as given, this evaluates that copula numerically
    from the innovation model: stationary marginal quantiles map
    ``exp(-tau)`` levels to points, and the truncated stationary product
    supplies the joint log CDF.  Components with ``tau_j = 0``, or with
    a level whose ``exp(-level)`` rounds to one, sit at argument one and
    are marginalized out.  When no numerator point is finite the
    numerator's ``log F`` is 0, so ``theta = 1`` is returned without
    evaluating the product.  Raises `NumericLimitError` when a level's
    ``exp(-level)`` rounds to zero, or when every denominator level
    rounds to argument one.
    """
    facts = config._tail
    index_set, levels = _index_levels(facts, tau)
    theta = 1.0
    if index_set:
        # components without a positive level sit at x_j = inf, which
        # marginalizes them out of the stationary law (an all-inf row
        # gives log F = 0); the points are never nan
        x_den, x_num = [[_level_point(config, j, level) for j, level in enumerate(row)] for row in levels]
        if min(x_num) == math.inf:
            # log F(x_num) = 0, so theta = 1 - 0 / log F(x_den) = 1
            # unless the denominator is at argument one too
            if min(x_den) == math.inf:
                raise NumericLimitError(_AT_ONE)
        else:
            log_den, log_num = _stationary_logcdf(config, np.array([x_den, x_num])).tolist()
            if log_den == 0.0:
                raise NumericLimitError(_AT_ONE)
            theta = 1.0 - log_num / log_den
    return _index_result(theta, levels[0], index_set, facts)


def _level_point(config: ProcessConfig, j: int, level: float) -> float:
    """The stationary quantile of component ``j`` at ``exp(-level)``,
    or ``inf`` for a level of 0 or one whose ``exp(-level)`` rounds to 1."""
    if level == 0.0:
        return math.inf
    # math.exp, not np.exp: the two can differ by an ulp
    p = math.exp(-level)
    if p == 0.0:
        raise NumericLimitError(f"exp(-level) underflows to 0 at level {level:.17g}")
    if p == 1.0:
        return math.inf
    return stationary_marginal_quantile(config.margins[j], config.c[j], p)


def empirical_extremal_index_runs(series, threshold: float, run_gap: int = 1) -> float:
    """Runs estimator of the extremal index of one series.

    Exceedances of ``threshold`` separated by at least ``run_gap``
    non-exceedances start new clusters; the estimate is the number of
    clusters over the number of exceedances.  Raises
    `UndefinedResultError` when nothing exceeds the threshold.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("series must be a non-empty 1-d array")
    _check_integer(run_gap, "run_gap")
    if run_gap < 1:
        raise ValueError("run_gap must be at least 1")
    idx = np.flatnonzero(x > threshold)
    if idx.size == 0:
        raise UndefinedResultError("no exceedance above the threshold")
    gaps = np.diff(idx) - 1
    clusters = 1 + int(np.count_nonzero(gaps >= run_gap))
    return clusters / idx.size


def empirical_mv_extremal_index(
    path,
    domains,
    c_est,
    k: int | None,
    tau,
) -> float | np.ndarray:
    """Rank-based estimator of the multivariate extremal index.

    Marginal ranks replace the unknown stationary margins: component
    ``j`` exceeds its level when its rank is above ``n - k * x_j``,
    first with ``x = tau`` (denominator) and then with
    ``x_j = tau_j * c_j**alpha_j`` on the Frechet-domain components only
    (numerator).  ``k`` defaults to ``min(ceil(sqrt(n)), n - 1)``
    (`ranks._top_k`), and a 1-d series is one column.  The ratio is
    clamped to ``[0, 1]``.  A ``(d,)`` direction ``tau`` gives a float;
    an ``(m, d)`` grid gives an ``(m,)`` array, reading every level of
    the grid off one sorted copy of each column (`ranks`), one column at
    a time.  Ties rank in order of position, and a column holding a nan
    exceeds no level.  Raises `UndefinedResultError` when no observation
    exceeds the levels of some direction.
    """
    data = _path_data(path)
    n, d = data.shape
    domains = list(domains)
    if len(domains) != d:
        raise ValueError("domains must match the number of columns")
    index_set, levels = _index_levels(_tail_facts(domains, c_est, batch=True), tau, batch=True)
    levels = np.array(levels).reshape(np.shape(tau)[:-1] + (2, d))
    k = _top_k(n, k)

    if not index_set:
        theta = np.ones(levels.shape[:-2])
    else:
        # component j exceeds level x_j when its rank is above n - k x_j,
        # that is above q_j = floor(n - k x_j): every row when q_j = 0,
        # none when q_j = n, as at the numerator's 0 off the index set
        q = np.floor(np.clip(n - k * levels.reshape(-1, d), 0, n)).astype(np.intp)
        # the value of rank q_j, from one sorted copy of one column at a
        # time for the whole grid; -inf where every row exceeds
        value = np.full(q.shape, -math.inf)
        for j in range(d):
            window = _window(data[:, j], _sorted_columns(data, (j,))[j], 0, n)
            inner = (q[:, j] > 0) & (q[:, j] < n)
            if _has_nan(window):
                # a column holding a nan ranks every row nan: none exceeds
                q[:, j] = n
            elif inner.any():
                value[inner, j] = _order_statistic(window.column, window.left_out, q[inner, j])
            del window  # before the next column's sort
        counts = np.empty(len(q), dtype=np.intp)
        for i, (q_i, value_i) in enumerate(zip(q, value)):
            exceeds = np.zeros(n, dtype=bool)
            for j in np.flatnonzero(q_i < n):
                exceeds |= _top_rows(data[:, j], value_i[j], n - q_i[j])
            counts[i] = np.count_nonzero(exceeds)
        counts = counts.reshape(levels.shape[:-1])
        denominator, numerator = counts[..., 0], counts[..., 1]
        if np.any(denominator == 0):
            raise UndefinedResultError("no observation exceeds the tau levels")
        theta = np.clip(1.0 - numerator / denominator, 0.0, 1.0)
    return float(theta) if levels.ndim == 2 else theta
