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

from .armax import ProcessConfig, stationary_joint_logcdf, stationary_marginal_quantile
from .copulas import CopulaSpec, DerivedCopula, copula_logcdf
from .errors import UndefinedResultError
from .margins import DomainTag, attraction_domain
from .taildep import _ordinal_ranks

__all__ = [
    "ExtremalIndexResult",
    "marginal_extremal_index",
    "theoretical_mv_extremal_index",
    "process_mv_extremal_index",
    "empirical_extremal_index_runs",
    "empirical_mv_extremal_index",
]


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
    domain, one otherwise."""
    if not (0.0 < c < 1.0):
        raise ValueError("c must lie in (0, 1)")
    if domain.is_frechet:
        return 1.0 - c**domain.alpha
    return 1.0


def theoretical_mv_extremal_index(
    copula: CopulaSpec | DerivedCopula,
    domains,
    c,
    tau,
) -> ExtremalIndexResult:
    """Multivariate extremal index of the stationary process.

    ``copula`` is the copula of the stationary law (a base family or a
    derived one), ``domains`` the per-component `DomainTag` sequence and
    ``c`` the autoregression coefficients.  ``tau`` must be nonnegative
    with at least one positive entry.  The numerator and denominator are
    formed in log space, so ratios of tiny copula values stay exact.
    """
    domains = list(domains)
    c = np.asarray(c, dtype=float)
    tau = np.asarray(tau, dtype=float)
    d = len(domains)
    if c.shape != (d,) or tau.shape != (d,):
        raise ValueError("domains, c and tau must have equal length")
    if np.any(tau < 0) or not np.any(tau > 0):
        raise ValueError("tau must be nonnegative with at least one positive entry")
    if np.any(c <= 0) or np.any(c >= 1):
        raise ValueError("autoregression coefficients must lie in (0, 1)")

    index_set = tuple(j for j, dom in enumerate(domains) if dom.is_frechet)
    marginal = tuple(marginal_extremal_index(float(c[j]), domains[j]) for j in range(d))

    if not index_set:
        theta = 1.0
    else:
        log_den = copula_logcdf(copula, -tau)
        log_u_num = np.zeros(d)
        for j in index_set:
            log_u_num[j] = -tau[j] * c[j] ** domains[j].alpha
        log_num = copula_logcdf(copula, log_u_num)
        theta = 1.0 - log_num / log_den
    return ExtremalIndexResult(
        theta=float(theta),
        tau=tuple(float(v) for v in tau),
        index_set=index_set,
        marginal_thetas=marginal,
    )


def process_mv_extremal_index(config: ProcessConfig, tau) -> ExtremalIndexResult:
    """Multivariate extremal index implied by a full process configuration.

    Unlike `theoretical_mv_extremal_index`, which takes the copula of
    the stationary law as given, this evaluates that copula numerically
    from the innovation model: stationary marginal quantiles map
    ``exp(-tau)`` levels to points, and the truncated stationary product
    supplies the joint log CDF.  Components with ``tau_j = 0`` sit at
    argument one and are marginalized out.
    """
    tau = np.asarray(tau, dtype=float)
    d = config.d
    if tau.shape != (d,):
        raise ValueError(f"tau must have shape ({d},)")
    if np.any(tau < 0) or not np.any(tau > 0):
        raise ValueError("tau must be nonnegative with at least one positive entry")
    domains = [attraction_domain(m) for m in config.margins]
    index_set = tuple(j for j in range(d) if domains[j].is_frechet)
    marginal = tuple(
        marginal_extremal_index(config.c[j], domains[j]) for j in range(d)
    )

    theta = 1.0
    if index_set:
        # row 0 holds the denominator levels tau_j, row 1 the numerator
        # levels tau_j c_j**alpha_j on the Frechet-domain components;
        # components without a positive level sit at x_j = inf, which
        # marginalizes them out of the stationary law (an all-inf row
        # gives log F = 0)
        levels = np.zeros((2, d))
        levels[0] = tau
        for j in index_set:
            levels[1, j] = tau[j] * config.c[j] ** domains[j].alpha
        x = np.full((2, d), math.inf)
        for i, j in zip(*np.nonzero(levels > 0)):
            x[i, j] = stationary_marginal_quantile(
                config.margins[j], config.c[j], math.exp(-levels[i, j])
            )
        log_den, log_num = stationary_joint_logcdf(config, x).tolist()
        theta = 1.0 - log_num / log_den
    return ExtremalIndexResult(
        theta=float(theta),
        tau=tuple(float(v) for v in tau),
        index_set=index_set,
        marginal_thetas=marginal,
    )


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
) -> float:
    """Rank-based estimator of the multivariate extremal index.

    Marginal ranks replace the unknown stationary margins: component
    ``j`` exceeds its level when its rank is above ``n - k * x_j``,
    first with ``x = tau`` (denominator) and then with
    ``x_j = tau_j * c_j**alpha_j`` on the Frechet-domain components only
    (numerator).  ``k`` defaults to ``ceil(sqrt(n))``.  The ratio is
    clamped to ``[0, 1]``.
    """
    data = np.asarray(getattr(path, "data", path), dtype=float)
    if data.ndim != 2:
        raise ValueError("path data must be a 2-d array")
    n, d = data.shape
    domains = list(domains)
    c_est = np.asarray(c_est, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if len(domains) != d or c_est.shape != (d,) or tau.shape != (d,):
        raise ValueError("domains, c_est and tau must match the number of columns")
    if np.any(tau < 0) or not np.any(tau > 0):
        raise ValueError("tau must be nonnegative with at least one positive entry")
    if k is None:
        k = math.ceil(math.sqrt(n))
    if not 0 < k < n:
        raise ValueError("k must lie strictly between 0 and n")

    ranks = np.column_stack(
        [_ordinal_ranks(data[:, j], np.argsort(data[:, j], kind="stable")) for j in range(d)]
    )
    index_set = [j for j, dom in enumerate(domains) if dom.is_frechet]
    if not index_set:
        return 1.0

    def union_count(levels, columns) -> int:
        exceed = np.zeros(n, dtype=bool)
        for j in columns:
            exceed |= ranks[:, j] > n - k * levels[j]
        return int(np.count_nonzero(exceed))

    denominator = union_count(tau, range(d))
    if denominator == 0:
        raise UndefinedResultError("no observation exceeds the tau levels")
    numer_levels = np.zeros(d)
    for j in index_set:
        numer_levels[j] = tau[j] * c_est[j] ** domains[j].alpha
    numerator = union_count(numer_levels, index_set)
    theta = 1.0 - numerator / denominator
    return float(min(max(theta, 0.0), 1.0))
